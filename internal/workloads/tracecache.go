// Trace memoization: every simulation of a kernel replays the same
// per-warp instruction streams, because a warp's trace depends only on
// the kernel (name and blocking factor), the physical register budget
// (which decides spill code), and the workload seed (which drives the
// divergent-gather RNG streams) — never on the memory configuration the
// timing model sweeps. The experiment drivers therefore regenerate each
// distinct trace hundreds of times while sweeping capacities, and the
// kgen builder (register allocation, operand placement, address
// generation) dominated both CPU and allocation profiles.
//
// This file makes the amortization structural: a process-wide,
// concurrency-safe cache keyed by (kernel name, BF, regsAvail, seed)
// builds each per-warp stream exactly once and hands the same immutable
// slice to every replay. The timing core only reads traces (the warp's
// PC and scoreboard live in dispatch.Warp, not in the instructions), so
// sharing one backing array across concurrently simulated SMs is safe;
// a -race fan-out test and the golden-table suite pin that down.
//
// Alongside each warp trace the cache memoizes the banks.Outcome of
// every instruction per (design, aggressive-scatter) variant: the bank
// conflict outcome is a pure function of the instruction and the design,
// so unprobed timing runs can replay it as a table lookup instead of
// re-evaluating the conflict model per issue. Probed runs keep calling
// banks.Evaluate (the heatmap needs the model's scratch state); a
// differential test asserts lookup and evaluation never disagree.
//
// The cache also memoizes each warp's coalesced global-memory lines
// (memsys.Lines: every LDG, STG, and TEX instruction's distinct cache
// lines and touched-sector masks), which likewise depend only on the
// addresses. The timing core then walks the precomputed lines instead of
// re-coalescing 32 addresses per global access, leaving only
// timing-dependent work in the cycle loop. Both memos are compact — a
// 4-byte Outcome per instruction and variant, and 4 bytes per
// instruction plus 4 per line — next to the instructions themselves.
//
// Memory is bounded: the cache tracks an approximate byte footprint and
// flushes itself entirely when it would exceed the budget (entries are
// rebuilt on demand; in-flight simulations keep their slices). Flushing
// never affects results — only whether a trace is rebuilt.
package workloads

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memsys"
)

// traceKey identifies one distinct trace family. Kernel identity is
// (Name, BF): registry kernels have unique names, and the Figure 11
// needle variants share a name but differ in blocking factor.
type traceKey struct {
	name      string
	bf        int
	regsAvail int
	seed      uint64
}

// outcomeVariants is the number of (design, aggressive) bank-model
// variants an instruction's conflict outcome can be memoized under.
const outcomeVariants = 2 * 3 // config.Design values x {simple, aggressive}

// outcomeIndex maps a bank-model variant to its memoization slot, or -1
// for designs outside the known enum (defensively uncached).
func outcomeIndex(design config.Design, aggressive bool) int {
	if int(design) >= 3 {
		return -1
	}
	i := int(design) * 2
	if aggressive {
		i++
	}
	return i
}

// warpEntry memoizes one warp's instruction stream, its coalesced
// lines, and its per-variant bank outcomes. Each field is built at most
// once; the built slices are never written again.
type warpEntry struct {
	traceOnce sync.Once
	insts     []isa.WarpInst

	linesOnce sync.Once
	lines     memsys.Lines

	outcomes [outcomeVariants]struct {
		once sync.Once
		out  []banks.Outcome
	}
}

// gridEntry holds one trace family's warps, keyed by (cta, warp). Warps
// are filled lazily so sources that extend the grid (the chip
// simulator's replicated validation source) memoize naturally.
type gridEntry struct {
	mu    sync.Mutex
	warps map[[2]int]*warpEntry
}

func (g *gridEntry) warp(cta, warp int) *warpEntry {
	g.mu.Lock()
	e, ok := g.warps[[2]int{cta, warp}]
	if !ok {
		e = &warpEntry{}
		g.warps[[2]int{cta, warp}] = e
	}
	g.mu.Unlock()
	return e
}

// traceCache is the process-wide cache state. The lookup/build/flush
// counters are monotonic over the process lifetime (a flush does not
// reset them) so long-lived consumers — the simulation service's
// /metrics endpoint — can export rates and hit ratios.
var traceCache = struct {
	mu      sync.RWMutex
	grids   map[traceKey]*gridEntry
	bytes   atomic.Int64
	limit   atomic.Int64
	lookups atomic.Int64
	builds  atomic.Int64
	flushes atomic.Int64
}{grids: make(map[traceKey]*gridEntry)}

// TraceCacheStats is a point-in-time snapshot of the process-wide trace
// cache, exported for observability (cmd/smserve's /metrics).
type TraceCacheStats struct {
	// Lookups counts warp-trace requests; Builds counts the subset that
	// had to construct the trace. Lookups - Builds is the hit count.
	Lookups int64 `json:"lookups"`
	Builds  int64 `json:"builds"`
	// Flushes counts whole-cache evictions forced by the byte budget
	// (plus explicit ResetTraceCache calls).
	Flushes int64 `json:"flushes"`
	// Bytes is the approximate resident footprint; Limit the budget.
	Bytes int64 `json:"bytes"`
	Limit int64 `json:"limit"`
}

// HitRatio returns the fraction of lookups served without a build, or 0
// before any lookup.
func (s TraceCacheStats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Lookups-s.Builds) / float64(s.Lookups)
}

// TraceCacheSnapshot returns the cache's current statistics. Counters
// are read individually without a lock: the snapshot is approximate
// under concurrency, like every metrics read.
func TraceCacheSnapshot() TraceCacheStats {
	limit := traceCache.limit.Load()
	if limit == 0 {
		limit = DefaultTraceCacheLimit
	}
	return TraceCacheStats{
		Lookups: traceCache.lookups.Load(),
		Builds:  traceCache.builds.Load(),
		Flushes: traceCache.flushes.Load(),
		Bytes:   traceCache.bytes.Load(),
		Limit:   limit,
	}
}

// DefaultTraceCacheLimit is the default approximate byte budget of the
// trace cache; the full 15-experiment suite stays well inside it.
const DefaultTraceCacheLimit = int64(1) << 31 // 2 GiB

// SetTraceCacheLimit sets the cache's approximate byte budget; reaching
// it flushes the whole cache (entries rebuild on demand). n <= 0
// restores DefaultTraceCacheLimit. It returns the previous limit.
func SetTraceCacheLimit(n int64) int64 {
	if n <= 0 {
		n = DefaultTraceCacheLimit
	}
	return traceCache.limit.Swap(n)
}

// ResetTraceCache empties the trace cache (for tests and long-lived
// processes that want to release memory). Simulations in flight keep
// the slices they already hold.
func ResetTraceCache() {
	traceCache.mu.Lock()
	traceCache.grids = make(map[traceKey]*gridEntry)
	traceCache.bytes.Store(0)
	traceCache.flushes.Add(1)
	traceCache.mu.Unlock()
}

// TraceCacheBytes returns the cache's approximate resident byte count.
func TraceCacheBytes() int64 { return traceCache.bytes.Load() }

// grid returns (creating if needed) the cache entry for key.
func grid(key traceKey) *gridEntry {
	traceCache.mu.RLock()
	g, ok := traceCache.grids[key]
	traceCache.mu.RUnlock()
	if ok {
		return g
	}
	traceCache.mu.Lock()
	g, ok = traceCache.grids[key]
	if !ok {
		g = &gridEntry{warps: make(map[[2]int]*warpEntry)}
		traceCache.grids[key] = g
	}
	traceCache.mu.Unlock()
	return g
}

// charge adds an approximate byte count and flushes the cache when the
// budget is exceeded. The flush drops the whole map — simple, safe
// (entries rebuild deterministically), and rare enough not to matter.
func charge(n int64) {
	limit := traceCache.limit.Load()
	if limit == 0 {
		limit = DefaultTraceCacheLimit
	}
	if traceCache.bytes.Add(n) > limit {
		ResetTraceCache()
	}
}

// traceBytes estimates the resident footprint of a built warp trace.
func traceBytes(insts []isa.WarpInst) int64 {
	n := int64(len(insts)) * int64(unsafe.Sizeof(isa.WarpInst{}))
	for i := range insts {
		if insts[i].Addrs != nil {
			n += int64(unsafe.Sizeof(isa.AddrVec{}))
		}
	}
	return n
}

// key returns the source's trace-cache key.
func (s *Source) key() traceKey {
	return traceKey{name: s.K.Name, bf: s.K.BF, regsAvail: s.RegsAvail, seed: s.Seed}
}

// cachedWarp returns the memoized entry for one warp, building the
// instruction stream on first use, and counts the call as a lookup.
func (s *Source) cachedWarp(cta, warp int) *warpEntry {
	traceCache.lookups.Add(1)
	return s.entry(cta, warp)
}

// entry is cachedWarp without the lookup count.
func (s *Source) entry(cta, warp int) *warpEntry {
	e := grid(s.key()).warp(cta, warp)
	e.traceOnce.Do(func() {
		traceCache.builds.Add(1)
		e.insts = s.buildWarpTrace(cta, warp)
		charge(traceBytes(e.insts))
	})
	return e
}

// WarpOutcomes returns the memoized per-instruction bank-conflict
// outcomes of one warp under the given bank-model variant, or nil for a
// design outside the known enum. The returned slice is shared and
// immutable; it is index-aligned with WarpTrace(cta, warp).
func (s *Source) WarpOutcomes(cta, warp int, design config.Design, aggressive bool) []banks.Outcome {
	v := outcomeIndex(design, aggressive)
	if v < 0 {
		return nil
	}
	e := s.cachedWarp(cta, warp)
	slot := &e.outcomes[v]
	slot.once.Do(func() {
		slot.out = banks.Outcomes(design, aggressive, e.insts)
		charge(int64(len(slot.out)) * int64(unsafe.Sizeof(banks.Outcome{})))
	})
	return slot.out
}

// WarpLines returns the memoized coalesced lines of one warp's global
// memory instructions (see memsys.Lines). The returned arena is shared
// and immutable; it is index-aligned with WarpTrace(cta, warp). The call
// rides on the warp's trace lookup and is not counted as one.
func (s *Source) WarpLines(cta, warp int) memsys.Lines {
	e := s.entry(cta, warp)
	e.linesOnce.Do(func() {
		e.lines = memsys.TraceLines(e.insts)
		charge(int64(cap(e.lines)) * int64(unsafe.Sizeof(uint32(0))))
	})
	return e.lines
}
