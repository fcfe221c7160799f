// Package store is the persistent, content-addressed result store
// underneath the simulation service: a filesystem layout keyed by the
// canonical-config SHA-256 the service already computes for its
// in-memory result cache, so completed simulation bodies survive
// process death.
//
// The contract mirrors the in-memory LRU (internal/serve) one level
// down:
//
//   - Keys are lowercase hex SHA-256 digests of canonical requests.
//     Content addressing makes the store idempotent — two processes (or
//     two attempts of one resumed job) writing the same key write the
//     same bytes, so Put never needs coordination beyond atomicity.
//   - Writes are atomic: the body lands in a temporary file in the same
//     directory and is renamed into place, so a crash mid-write can
//     never leave a torn entry, and a reader never observes a partial
//     body.
//   - The index is restart-safe: Open scans the directory tree once and
//     rebuilds the key set, so a restarted worker knows exactly which
//     results exist and re-enters a half-finished sweep by skipping
//     them — checkpoint/resume for free, and the identity layer that
//     lets N replicas drain one queue against a shared directory.
//
// Layout: <dir>/<key[:2]>/<key>.json — a two-level fan-out keeps
// directories small at campaign scale. Entries are immutable once
// written and never evicted (results are tiny next to traces; an
// operator prunes with rm).
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Store is a persistent result store rooted at one directory. It is
// safe for concurrent use; the zero value is not usable, call Open.
type Store struct {
	dir string

	mu    sync.RWMutex
	index map[string]struct{}

	hits, misses, puts, errs atomic.Int64
	bytes                    atomic.Int64
}

// Stats is the store's observable state, exposed by the service's
// /metrics snapshot.
type Stats struct {
	// Entries and Bytes describe the resident result set (Bytes counts
	// entries present at Open plus bodies written since).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Hits and Misses count Get outcomes; Puts counts bodies written
	// (idempotent re-puts of an existing key are not counted).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
	// Errors counts I/O failures (all non-fatal: the caller falls back
	// to simulating).
	Errors int64 `json:"errors"`
}

// Open opens (creating if needed) the store rooted at dir and rebuilds
// its index from the entries already on disk.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, index: make(map[string]struct{})}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		key, ok := strings.CutSuffix(name, ".json")
		if !ok || !validKey(key) {
			return nil // temp files, foreign droppings
		}
		s.index[key] = struct{}{}
		if info, err := d.Info(); err == nil {
			s.bytes.Add(info.Size())
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validKey reports whether key is a lowercase hex SHA-256 digest — the
// only key shape the store accepts, which also makes paths safe by
// construction.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Has reports whether key is present, from the index alone (no I/O).
func (s *Store) Has(key string) bool {
	if !validKey(key) {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok
}

// Get returns the stored body for key and whether it was present. A
// body that cannot be read back (index/filesystem divergence) counts as
// a miss and drops the key from the index.
func (s *Store) Get(key string) ([]byte, bool) {
	if !s.Has(key) {
		s.misses.Add(1)
		return nil, false
	}
	body, err := os.ReadFile(s.path(key))
	if err != nil {
		s.errs.Add(1)
		s.misses.Add(1)
		s.mu.Lock()
		delete(s.index, key)
		s.mu.Unlock()
		return nil, false
	}
	s.hits.Add(1)
	return body, true
}

// Put stores body under key with an atomic write. Re-putting an
// existing key is a no-op: entries are content-addressed and immutable,
// so the first body is always kept. Errors are returned for logging but
// leave the store consistent (the entry is simply absent).
func (s *Store) Put(key string, body []byte) error {
	if !validKey(key) {
		s.errs.Add(1)
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	if _, ok := s.index[key]; ok {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := WriteFileAtomic(s.path(key), body); err != nil {
		s.errs.Add(1)
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	s.mu.Lock()
	_, dup := s.index[key]
	s.index[key] = struct{}{}
	s.mu.Unlock()
	if !dup {
		s.puts.Add(1)
		s.bytes.Add(int64(len(body)))
	}
	return nil
}

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats returns the store's counters. Like every metrics read it is
// approximate under concurrency.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	entries := len(s.index)
	s.mu.RUnlock()
	return Stats{
		Entries: entries,
		Bytes:   s.bytes.Load(),
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Puts:    s.puts.Load(),
		Errors:  s.errs.Load(),
	}
}

// WriteFileAtomic writes data to path via a same-directory temporary
// file and rename, creating parent directories as needed. A crash at
// any point leaves either the old content or the new, never a torn
// file; the file and then its directory are synced, so a returned nil
// means the rename survives power loss. The job engine reuses it for
// its job records.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir flushes a directory's entries (a completed rename) to stable
// storage. It is a variable so tests can count calls and inject
// failures.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
