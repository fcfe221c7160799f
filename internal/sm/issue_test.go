package sm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/occupancy"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// traceOnly exposes only a source's Grid and WarpTrace, hiding its memo
// extensions (bank outcomes, coalesced lines, issue records).
type traceOnly struct{ TraceSource }

// TestIssueRecordFallbackMatchesMemo pins the dispatcher's launch-time
// tables — issue records, coalesced lines, and bank outcomes: a source
// without the trace cache's memos (as chip shards, trace files, and test
// fakes are) must simulate to exactly the counters of the memoized
// workloads source, under every design and both scatter variants of the
// unified one. Probed runs must also stream byte-identical NDJSON,
// bank heatmap included, and so must probed forks resumed mid-run.
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
		for _, c := range []struct {
			cfg        config.MemConfig
			aggressive bool
		}{{config.Baseline(), false}, {unified, false}, {unified, true}, {fermi, false}} {
			occ := occupancy.Compute(req, c.cfg, 0)
			params := DefaultParams()
			params.AggressiveScatter = c.aggressive
			spec := func(src TraceSource, p *probe.Probe) Spec {
				return Spec{Config: c.cfg, Params: params, Source: src, ResidentCTAs: occ.CTAs, Probe: p}
			}
			// run simulates src to completion, probed when ndjson is
			// non-nil; forkAt > 0 snapshots there and finishes on a fork.
			run := func(src TraceSource, ndjson *bytes.Buffer, forkAt int64) stats.Counters {
				var p *probe.Probe
				if ndjson != nil {
					p = probe.New(4096, ndjson)
				}
				s, err := NewSM(spec(src, p))
				if err != nil {
					t.Fatal(err)
				}
				if forkAt > 0 {
					if err := s.RunTo(forkAt); err != nil {
						t.Fatal(err)
					}
					st, err := s.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if s, err = Fork(spec(src, probe.Restore(st.Probe, ndjson)), st); err != nil {
						t.Fatal(err)
					}
				}
				c, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return *c
			}
			where := func(what string) string {
				return fmt.Sprintf("%s on %v (aggressive %v): %s", name, c.cfg.Design, c.aggressive, what)
			}
			memo := run(&workloads.Source{K: k}, nil, 0)
			if memo.WarpInsts == 0 {
				t.Errorf("%s", where("empty run"))
			}
			if plain := run(traceOnly{&workloads.Source{K: k}}, nil, 0); plain != memo {
				t.Errorf("%s\n %+v\nmemoized source\n %+v", where("trace-only source"), plain, memo)
			}
			var memoNDJSON bytes.Buffer
			if probed := run(&workloads.Source{K: k}, &memoNDJSON, 0); probed != memo {
				t.Errorf("%s\n %+v\nunprobed\n %+v", where("probed memoized source"), probed, memo)
			}
			for _, forkAt := range []int64{0, memo.Cycles / 2} {
				var ndjson bytes.Buffer
				if probed := run(traceOnly{&workloads.Source{K: k}}, &ndjson, forkAt); probed != memo {
					t.Errorf("%s\n %+v\nmemoized source\n %+v", where("probed trace-only source"), probed, memo)
				}
				if !bytes.Equal(ndjson.Bytes(), memoNDJSON.Bytes()) {
					t.Errorf("%s", where(fmt.Sprintf("probed trace-only source (fork at cycle %d) streams different NDJSON", forkAt)))
				}
			}
		}
	}
}
