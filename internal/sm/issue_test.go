package sm

import (
	"testing"

	"repro/internal/config"
	"repro/internal/occupancy"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// traceOnly exposes only a source's Grid and WarpTrace, hiding its memo
// extensions (bank outcomes, coalesced lines, issue records).
type traceOnly struct{ TraceSource }

// TestIssueRecordFallbackMatchesMemo pins the dispatcher's launch-time
// issue records: a source without the trace cache's memos (as chip
// shards, trace files, and test fakes are) must simulate to exactly the
// counters of the memoized workloads source, under every design.
func TestIssueRecordFallbackMatchesMemo(t *testing.T) {
	total := config.Baseline().TotalBytes()
	for _, name := range []string{"needle", "bfs"} {
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		req := k.Requirements()
		unified, err := config.Allocate(total, 0, req)
		if err != nil {
			t.Fatal(err)
		}
		fermi := config.ChooseFermi(total-config.BaselineRFBytes, 0, req)
		for _, cfg := range []config.MemConfig{config.Baseline(), unified, fermi} {
			occ := occupancy.Compute(req, cfg, 0)
			run := func(src TraceSource) stats.Counters {
				s, err := newSM(cfg, DefaultParams(), src, occ.CTAs)
				if err != nil {
					t.Fatal(err)
				}
				c, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return *c
			}
			memo := run(&workloads.Source{K: k})
			plain := run(traceOnly{&workloads.Source{K: k}})
			if plain != memo {
				t.Errorf("%s on %v: trace-only source\n %+v\nmemoized source\n %+v", name, cfg.Design, plain, memo)
			}
			if memo.WarpInsts == 0 {
				t.Errorf("%s on %v: empty run", name, cfg.Design)
			}
		}
	}
}
