package dispatch

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// traceOnly hides a source's memo extensions.
type traceOnly struct{ TraceSource }

// TestRestoreReresolvesMemos: a restored fork attaches the tables its
// own source and bank-model variant give, never the parent's. Every
// live warp of every fork — also after CTA rotation moved grid CTAs
// between slots — carries issue records, lines, and outcomes equal to
// isa.IssueRecords, memsys.TraceLines, and banks.Outcomes of its
// restored trace under the fork's variant, and each table is the trace
// cache's own slice exactly when the fork's source memoizes it. needle
// mixes shared and global accesses, so the variants' outcomes differ.
// The SM configures probed and unprobed dispatchers alike (EnableOutcomes
// with the SM's variant), so the variants below cover probed forks too.
func TestRestoreReresolvesMemos(t *testing.T) {
	k, err := workloads.ByName("needle")
	if err != nil {
		t.Fatal(err)
	}
	src := &workloads.Source{K: k}
	const resident = 2
	for _, parentSrc := range []TraceSource{src, traceOnly{src}} {
		parent, err := New(parentSrc, resident, &stats.Counters{})
		if err != nil {
			t.Fatal(err)
		}
		parent.EnableOutcomes(config.Unified, false)
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
			name       string
			src        TraceSource
			design     config.Design
			aggressive bool
			memos      bool
		}{
			{"memo fork", src, config.Unified, false, true},
			{"memo fork, aggressive scatter", src, config.Unified, true, true},
			{"memo fork, partitioned", src, config.Partitioned, false, true},
			{"fork without memos", traceOnly{src}, config.Unified, false, false},
			{"fork without memos, aggressive scatter", traceOnly{src}, config.Unified, true, false},
		} {
			fork, err := New(fc.src, resident, &stats.Counters{})
			if err != nil {
				t.Fatal(err)
			}
			fork.EnableOutcomes(fc.design, fc.aggressive)
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
				where := fmt.Sprintf("parent %T, %s, warp %d", parentSrc, fc.name, i)
				cta, warp := fork.ctas[w.CTASlot].id, i%fork.streams[0].warpsPer
				if want := isa.IssueRecords(w.Trace); !slices.Equal(w.Issue, want) {
					t.Fatalf("%s: %d issue records not aligned with its %d-instruction trace", where, len(w.Issue), len(w.Trace))
				}
				if want := memsys.TraceLines(w.Trace); !slices.Equal(w.Lines, want) {
					t.Fatalf("%s: lines %x, want TraceLines %x", where, w.Lines, want)
				}
				if want := banks.Outcomes(fc.design, fc.aggressive, w.Trace); !slices.Equal(w.Outcomes, want) {
					t.Fatalf("%s: outcomes differ from banks.Outcomes of the restored trace", where)
				}
				shared := []bool{
					sameArray(w.Issue, src.WarpIssue(cta, warp)),
					sameArray(w.Lines, src.WarpLines(cta, warp)),
					sameArray(w.Outcomes, src.WarpOutcomes(cta, warp, fc.design, fc.aggressive)),
				}
				for j, table := range []string{"issue records", "lines", "outcomes"} {
					if shared[j] != fc.memos {
						t.Errorf("%s: %s shared with the trace cache = %v, want %v", where, table, shared[j], fc.memos)
					}
				}
			}
			if live == 0 {
				t.Fatalf("%s: no live warp restored", fc.name)
			}
		}
	}
}

// sameArray reports whether two non-empty slices share their backing
// array's first element.
func sameArray[T any](a, b []T) bool { return &a[0] == &b[0] }
