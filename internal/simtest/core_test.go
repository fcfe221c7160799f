package simtest

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sm"
	"repro/internal/workloads"
)

// TestWarmResumeEqualsResumeExact pins the sweep-facing API one layer
// up: core.Warm + Resume (the fork path a sweep takes) must produce the
// same Result — counters, occupancy, energy breakdown — as ResumeExact
// (a fresh run that switches parameters in place at the warm cycle),
// and a result table rendered from each must be byte-identical, so
// sweeps can adopt forking without any golden churn.
func TestWarmResumeEqualsResumeExact(t *testing.T) {
	t.Parallel()
	k, err := workloads.ByName("mummer")
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner()
	warm, err := runner.Warm(context.Background(), core.RunSpec{Kernel: k, Config: config.Baseline()}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	params := warm.Params
	params.MaxMSHRs = 8
	params.DRAM.LatencyCycles = 600

	forked, err := warm.Resume(context.Background(), runner, params)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := warm.ResumeExact(context.Background(), runner, params)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffCounters(exact.Counters, forked.Counters); d != "" {
		t.Errorf("Resume diverged from ResumeExact: %s", d)
	}
	if forked.Energy != exact.Energy {
		t.Errorf("energy breakdowns differ: fork %+v, exact %+v", forked.Energy, exact.Energy)
	}
	if forked.Occupancy != exact.Occupancy {
		t.Errorf("occupancy differs: fork %+v, exact %+v", forked.Occupancy, exact.Occupancy)
	}

	render := func(r *core.Result) string {
		tb := report.NewTable("sweep point", "kernel", "cycles", "IPC", "energy")
		tb.AddRow(r.Spec.Kernel.Name, fmt.Sprint(r.Counters.Cycles),
			fmt.Sprintf("%.2f", r.IPC()), fmt.Sprintf("%.2f", r.Energy.Total()))
		return tb.String()
	}
	if got, want := render(forked), render(exact); got != want {
		t.Errorf("rendered tables differ:\nfork:\n%s\nexact:\n%s", got, want)
	}
}

// TestWarmResumeConcurrent sweeps one warm prefix into several divergent
// points concurrently — the intended sweep shape — and checks each
// against its own ResumeExact comparator.
func TestWarmResumeConcurrent(t *testing.T) {
	t.Parallel()
	k, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner()
	warm, err := runner.Warm(context.Background(), core.RunSpec{Kernel: k, Config: config.Baseline()}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	points := []func(*sm.Params){
		func(p *sm.Params) { p.MaxMSHRs = 2 },
		func(p *sm.Params) { p.MaxMSHRs = 16 },
		func(p *sm.Params) { p.DRAM.BytesPerCycle = 2 },
		func(p *sm.Params) { p.WriteBackCache = true },
	}
	type out struct {
		forked, exact *core.Result
		err           error
	}
	results := make([]out, len(points))
	done := make(chan int, len(points))
	for i, mut := range points {
		go func(i int, mut func(*sm.Params)) {
			defer func() { done <- i }()
			p := warm.Params
			mut(&p)
			var o out
			if o.forked, o.err = warm.Resume(context.Background(), runner, p); o.err == nil {
				o.exact, o.err = warm.ResumeExact(context.Background(), runner, p)
			}
			results[i] = o
		}(i, mut)
	}
	for range points {
		<-done
	}
	for i, o := range results {
		if o.err != nil {
			t.Fatalf("point %d: %v", i, o.err)
		}
		if d := DiffCounters(o.exact.Counters, o.forked.Counters); d != "" {
			t.Errorf("point %d: fork diverged from exact: %s", i, d)
		}
	}
}

// TestWarmInfeasible pins Warm's error contract: a configuration the
// kernel cannot fit fails with the same *FitError a direct Run reports.
func TestWarmInfeasible(t *testing.T) {
	t.Parallel()
	k, err := workloads.ByName("dgemm")
	if err != nil {
		t.Fatal(err)
	}
	tiny := config.MemConfig{Design: config.Partitioned, RFBytes: 1 << 10, SharedBytes: 1 << 10, CacheBytes: 1 << 10}
	_, err = core.NewRunner().Warm(context.Background(), core.RunSpec{Kernel: k, Config: tiny}, 100)
	if !core.IsInfeasible(err) {
		t.Fatalf("Warm under an infeasible config returned %v, want *FitError", err)
	}
}
