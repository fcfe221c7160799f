package dispatch

import (
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// traceOnly hides a source's memo extensions.
type traceOnly struct{ TraceSource }

// TestRestoreReresolvesMemos: a restored fork attaches the memos its
// own configuration asks for, never the parent's. Bank outcomes follow
// the fork's EnableOutcomes (unprobed forks replay them, probed ones do
// not), and coalesced lines follow the fork's source; every attached
// lines memo must equal the coalescer's output for the warp's restored
// trace, also after CTA rotation moved grid CTAs between slots.
func TestRestoreReresolvesMemos(t *testing.T) {
	k, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	src := &workloads.Source{K: k}
	const resident = 2
	for _, parentProbed := range []bool{false, true} {
		parent, err := New(src, resident, &stats.Counters{})
		if err != nil {
			t.Fatal(err)
		}
		if !parentProbed && !parent.EnableOutcomes(config.Unified, false) {
			t.Fatal("workloads.Source lacks bank outcomes")
		}
		parent.Start(0)
		// Retire slot 0's CTA so grid CTA 2 rotates into it.
		for _, w := range parent.ctas[0].warps {
			parent.Activate(w)
			parent.Exit(w, 10)
		}
		if parent.ctas[0].id != resident {
			t.Fatalf("slot 0 holds CTA %d after rotation, want %d", parent.ctas[0].id, resident)
		}
		snap := parent.Snapshot()

		for _, fc := range []struct {
			name          string
			src           TraceSource
			probed, lines bool
		}{
			{"unprobed fork", src, false, true},
			{"probed fork", src, true, true},
			{"fork without memos", traceOnly{src}, false, false},
		} {
			fork, err := New(fc.src, resident, &stats.Counters{})
			if err != nil {
				t.Fatal(err)
			}
			wantOutcomes := !fc.probed && fork.EnableOutcomes(config.Unified, false)
			if err := fork.Restore(snap); err != nil {
				t.Fatal(err)
			}
			live := 0
			for i := range fork.warps {
				w := &fork.warps[i]
				if w.Status == Done || w.Status == Idle {
					continue
				}
				live++
				if got := w.Outcomes != nil; got != wantOutcomes {
					t.Errorf("parent probed=%v, %s, warp %d: outcomes attached = %v, want %v", parentProbed, fc.name, i, got, wantOutcomes)
				}
				if got := w.Lines != nil; got != fc.lines {
					t.Fatalf("parent probed=%v, %s, warp %d: lines attached = %v, want %v", parentProbed, fc.name, i, got, fc.lines)
				}
				if w.Lines == nil {
					continue
				}
				for pc := range w.Trace {
					var want []uint32
					if w.Trace[pc].Op.IsGlobal() {
						want = memsys.Coalesce(nil, &w.Trace[pc])
					}
					if got := w.Lines.At(pc); !slices.Equal(got, want) {
						t.Fatalf("parent probed=%v, %s, warp %d pc %d: memo %x, coalescer %x", parentProbed, fc.name, i, pc, got, want)
					}
				}
			}
			if live == 0 {
				t.Fatalf("%s: no live warp restored", fc.name)
			}
		}
	}
}
