package workloads

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memsys"
)

// freshSource returns a Source for the named registry kernel.
func freshSource(t *testing.T, name string) *Source {
	t.Helper()
	k, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &Source{K: k}
}

// TestTraceCacheSharesBacking: two Sources with identical parameters must
// hand out the same backing array — the trace is built once, process-wide.
func TestTraceCacheSharesBacking(t *testing.T) {
	ResetTraceCache()
	a := freshSource(t, "needle").WarpTrace(0, 0)
	b := freshSource(t, "needle").WarpTrace(0, 0)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if &a[0] != &b[0] {
		t.Error("identical sources built the trace twice (distinct backing arrays)")
	}
}

// TestTraceCacheColdVsHot: a cache flush must not change the generated
// instructions — rebuilds are deterministic. (DeepEqual follows the
// Addrs pointers, so this compares full address vectors, not pointers.)
func TestTraceCacheColdVsHot(t *testing.T) {
	ResetTraceCache()
	src := freshSource(t, "mummer")
	_, warps := src.Grid()
	cold := make([][]isa.WarpInst, warps)
	for w := 0; w < warps; w++ {
		cold[w] = src.WarpTrace(0, w)
	}
	ResetTraceCache()
	for w := 0; w < warps; w++ {
		hot := src.WarpTrace(0, w)
		if &hot[0] == &cold[w][0] {
			t.Fatalf("warp %d: flush did not drop the cached entry", w)
		}
		if !reflect.DeepEqual(cold[w], hot) {
			t.Fatalf("warp %d: trace differs after cache flush", w)
		}
	}
}

// TestTraceCacheKeyDistinguishesVariants: kernels that share a registry
// name but differ in blocking factor or register budget must not collide
// in the cache.
func TestTraceCacheKeyDistinguishesVariants(t *testing.T) {
	ResetTraceCache()
	k16 := NeedleKernel(16)
	k64 := NeedleKernel(64)
	t16 := (&Source{K: k16}).WarpTrace(0, 0)
	t64 := (&Source{K: k64}).WarpTrace(0, 0)
	if len(t16) == len(t64) && &t16[0] == &t64[0] {
		t.Fatal("needle BF=16 and BF=64 shared one cache entry")
	}

	full := freshSource(t, "needle").WarpTrace(0, 0)
	k, _ := ByName("needle")
	spilled := (&Source{K: k, RegsAvail: 18}).WarpTrace(0, 0)
	if len(full) == len(spilled) && &full[0] == &spilled[0] {
		t.Fatal("spill-free and regsAvail=18 traces shared one cache entry")
	}
}

// TestTraceCacheConcurrent hammers one kernel's traces, outcome tables,
// and lines memos from 8 goroutines; under -race this proves the cache
// is safe, and the pointer comparison proves each entry was built
// exactly once.
func TestTraceCacheConcurrent(t *testing.T) {
	ResetTraceCache()
	src := freshSource(t, "needle")
	ctas, warps := src.Grid()
	if ctas > 4 {
		ctas = 4
	}
	const goroutines = 8
	traces := make([][]*isa.WarpInst, goroutines) // per-goroutine first-element pointers
	outs := make([][]*banks.Outcome, goroutines)
	lines := make([][]*uint32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := &Source{K: src.K} // distinct Source, same identity
			for c := 0; c < ctas; c++ {
				for w := 0; w < warps; w++ {
					tr := s.WarpTrace(c, w)
					traces[g] = append(traces[g], &tr[0])
					out := s.WarpOutcomes(c, w, config.Unified, false)
					if len(out) != len(tr) {
						t.Errorf("goroutine %d: %d outcomes for %d instructions", g, len(out), len(tr))
						return
					}
					outs[g] = append(outs[g], &out[0])
					l := s.WarpLines(c, w)
					if len(l) <= len(tr) {
						t.Errorf("goroutine %d: %d-word lines arena for %d instructions", g, len(l), len(tr))
						return
					}
					lines[g] = append(lines[g], &l[0])
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(traces[0], traces[g]) {
			t.Errorf("goroutine %d saw different trace backing arrays than goroutine 0", g)
		}
		if !reflect.DeepEqual(outs[0], outs[g]) {
			t.Errorf("goroutine %d saw different outcome backing arrays than goroutine 0", g)
		}
		if !reflect.DeepEqual(lines[0], lines[g]) {
			t.Errorf("goroutine %d saw different lines backing arrays than goroutine 0", g)
		}
	}
}

// TestWarpOutcomesMatchEvaluate is the differential check behind the
// timing core's fast path: for every bank-model variant, the memoized
// outcome table must equal a fresh Model's per-instruction evaluation.
func TestWarpOutcomesMatchEvaluate(t *testing.T) {
	ResetTraceCache()
	for _, name := range []string{"needle", "dgemm", "bfs"} {
		src := freshSource(t, name)
		insts := src.WarpTrace(0, 0)
		for _, design := range []config.Design{config.Partitioned, config.Unified, config.FermiLike} {
			for _, aggressive := range []bool{false, true} {
				got := src.WarpOutcomes(0, 0, design, aggressive)
				m := banks.New(design)
				if aggressive {
					m = banks.NewAggressive(design)
				}
				for i := range insts {
					want := m.Evaluate(&insts[i])
					if got[i] != want {
						t.Fatalf("%s design=%v aggressive=%v inst %d: memoized %+v, evaluated %+v",
							name, design, aggressive, i, got[i], want)
					}
				}
			}
		}
	}
}

// TestWarpLinesMatchCoalescer is the differential check behind the
// memory pipeline's memoized-lines path: for every registry kernel, with
// and without spill code, every instruction's memoized lines must equal
// the coalescer's output (and an independent per-lane reference) for
// LDG, STG, and TEX, and be empty for every other instruction.
func TestWarpLinesMatchCoalescer(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	globals, spills := 0, 0
	for _, k := range All() {
		for _, regs := range []int{0, k.RegsNeeded / 2} {
			src := &Source{K: k, RegsAvail: regs}
			_, warps := src.Grid()
			for w := 0; w < warps; w++ {
				insts := src.WarpTrace(0, w)
				lines := src.WarpLines(0, w)
				if len(lines) < len(insts)+1 {
					t.Fatalf("%s regs=%d warp %d: arena of %d words for %d instructions", k.Name, regs, w, len(lines), len(insts))
				}
				for i := range insts {
					wi := &insts[i]
					got := lines.At(i)
					if !wi.Op.IsGlobal() {
						if len(got) != 0 {
							t.Fatalf("%s regs=%d warp %d inst %d (%v): %d memoized lines, want none", k.Name, regs, w, i, wi.Op, len(got))
						}
						continue
					}
					globals++
					if wi.Spill {
						spills++
					}
					if want := memsys.Coalesce(nil, wi); !slices.Equal(got, want) {
						t.Fatalf("%s regs=%d warp %d inst %d: memoized %x, coalescer %x", k.Name, regs, w, i, got, want)
					}
					if want := referenceLines(wi); !slices.Equal(got, want) {
						t.Fatalf("%s regs=%d warp %d inst %d: memoized %x, reference %x", k.Name, regs, w, i, got, want)
					}
				}
			}
		}
	}
	if globals == 0 || spills == 0 {
		t.Fatalf("checked %d global memory instructions, %d of them spill code; want both > 0", globals, spills)
	}
}

// referenceLines coalesces one instruction the slow way: each active
// lane's line in first-touch order, packed with the OR of the 32-byte
// sectors its lanes touch.
func referenceLines(wi *isa.WarpInst) []uint32 {
	var order []uint32
	sectors := map[uint32]uint32{}
	for lane := 0; lane < isa.WarpSize; lane++ {
		if wi.Mask>>lane&1 == 0 {
			continue
		}
		addr := wi.Addrs[lane]
		line := addr / config.CacheLineBytes
		if _, ok := sectors[line]; !ok {
			order = append(order, line)
		}
		sectors[line] |= 1 << (addr % config.CacheLineBytes / memsys.SectorBytes)
	}
	var out []uint32
	for _, line := range order {
		out = append(out, line<<memsys.SectorBits|sectors[line])
	}
	return out
}

// TestTraceCacheLimitFlush: exceeding the byte budget flushes the cache,
// and rebuilt traces still match what in-flight holders kept.
func TestTraceCacheLimitFlush(t *testing.T) {
	ResetTraceCache()
	prev := SetTraceCacheLimit(1) // flush on every charge
	defer SetTraceCacheLimit(prev)
	src := freshSource(t, "needle")
	first := src.WarpTrace(0, 0)
	second := src.WarpTrace(0, 0)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("rebuild after flush changed the trace")
	}
	SetTraceCacheLimit(prev)
	ResetTraceCache()
	if TraceCacheBytes() != 0 {
		t.Fatalf("TraceCacheBytes = %d after reset, want 0", TraceCacheBytes())
	}
}

// TestTraceCacheSnapshot asserts the exported statistics track lookups,
// builds, bytes, and flushes. Counters are process-monotonic, so the
// test measures deltas around its own traffic.
func TestTraceCacheSnapshot(t *testing.T) {
	ResetTraceCache()
	before := TraceCacheSnapshot()
	src := freshSource(t, "needle")
	src.WarpTrace(0, 0)                      // cold: one build
	src.WarpTrace(0, 0)                      // hot: no build
	freshSource(t, "needle").WarpTrace(0, 0) // hot via a second Source
	after := TraceCacheSnapshot()
	if got := after.Lookups - before.Lookups; got != 3 {
		t.Errorf("lookups delta = %d, want 3", got)
	}
	if got := after.Builds - before.Builds; got != 1 {
		t.Errorf("builds delta = %d, want 1", got)
	}
	if after.Bytes <= 0 {
		t.Errorf("bytes = %d, want > 0 after a build", after.Bytes)
	}
	if after.Limit <= 0 {
		t.Errorf("limit = %d, want > 0", after.Limit)
	}
	if hr := (TraceCacheStats{Lookups: 4, Builds: 1}).HitRatio(); hr != 0.75 {
		t.Errorf("HitRatio = %v, want 0.75", hr)
	}
	if hr := (TraceCacheStats{}).HitRatio(); hr != 0 {
		t.Errorf("zero-value HitRatio = %v, want 0", hr)
	}
	flushesBefore := after.Flushes
	ResetTraceCache()
	if got := TraceCacheSnapshot().Flushes - flushesBefore; got != 1 {
		t.Errorf("flushes delta = %d, want 1", got)
	}
	if got := TraceCacheSnapshot().Bytes; got != 0 {
		t.Errorf("bytes after reset = %d, want 0", got)
	}
}
