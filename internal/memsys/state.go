package memsys

import (
	"fmt"

	"repro/internal/cache"
)

// State is a frozen image of the memory pipeline: the pending-line
// (MSHR) table, the tag-port and MSHR-saturation clocks, and the cache
// tag store.
//
// The pending table is the one structure here that must be deep-copied
// rather than shared: put, del, and the bounded-MSHR eviction all mutate
// its open-addressed arrays in place (backward-shift deletion slides
// entries between slots), so a shallow copy would alias a fork's MSHR
// bookkeeping to the parent's — in-flight fills retired by one run would
// vanish from, or reappear in, the other. The scratch buffers (lineBuf,
// accBuf) hold no cross-call state and are not captured.
type State struct {
	// PendingKeys, PendingVals, PendingUsed, and PendingN are a verbatim
	// copy of the pending table's open-addressed arrays. Preserving the
	// exact slot layout (rather than re-inserting entries) keeps a fork's
	// probe chains identical to the parent's; the table's semantics are
	// layout-independent, but verbatim restoration makes fork-vs-fresh
	// equality trivially exact.
	PendingKeys []uint32
	PendingVals []int64
	PendingUsed []bool
	PendingN    int

	TagFreeAt        int64
	MSHRBlockedUntil int64

	// Cache is the tag-store state, nil when no cache is configured.
	Cache *cache.State
}

// Snapshot captures the pipeline state as an immutable State.
func (m *MemSys) Snapshot() *State {
	st := &State{
		PendingKeys:      append([]uint32(nil), m.pending.keys...),
		PendingVals:      append([]int64(nil), m.pending.vals...),
		PendingUsed:      append([]bool(nil), m.pending.used...),
		PendingN:         m.pending.n,
		TagFreeAt:        m.tagFreeAt,
		MSHRBlockedUntil: m.mshrBlockedUntil,
	}
	if m.CacheEnabled() {
		st.Cache = m.l1.Snapshot()
	}
	return st
}

// Restore overwrites the pipeline state with a previously captured
// State. It copies out of st (never aliases it), so one State can seed
// any number of forks, concurrently. The cache geometry must match; the
// pipeline's own Config (latencies, MSHR bound, write policy) is
// untouched, which is what lets a fork diverge on those parameters. A
// fork whose MaxMSHRs bound is below the restored in-flight count simply
// drains: the bounded-eviction path in Load retires entries until the
// table is back under the new bound.
func (m *MemSys) Restore(st *State) error {
	if (st.Cache != nil) != m.CacheEnabled() {
		return fmt.Errorf("memsys: cache presence changed across a snapshot")
	}
	if st.Cache != nil {
		if err := m.l1.Restore(st.Cache); err != nil {
			return fmt.Errorf("memsys: %w", err)
		}
	}
	m.pending.keys = append(m.pending.keys[:0], st.PendingKeys...)
	m.pending.vals = append(m.pending.vals[:0], st.PendingVals...)
	m.pending.used = append(m.pending.used[:0], st.PendingUsed...)
	m.pending.n = st.PendingN
	m.tagFreeAt = st.TagFreeAt
	m.mshrBlockedUntil = st.MSHRBlockedUntil
	return nil
}

// SetTiming replaces the pipeline's timing parameters mid-run (the
// snapshot machinery's param-switch-at-K semantics). The cache capacity
// is structural — the tag store is live state — and must not change.
func (m *MemSys) SetTiming(cfg Config) error {
	if cfg.CacheBytes != m.cfg.CacheBytes {
		return fmt.Errorf("memsys: cache capacity changed from %d to %d mid-run", m.cfg.CacheBytes, cfg.CacheBytes)
	}
	m.cfg = cfg
	return nil
}
