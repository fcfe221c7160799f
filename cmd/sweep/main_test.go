package main

import (
	"net/http/httptest"
	"testing"

	"repro/api"
	"repro/internal/runplan"
	"repro/internal/serve"
)

// TestSweepLocalMatchesJob renders sweeps twice — executed locally
// through runplan, and decoded from an in-process smserve sweep job —
// and requires byte-identical tables. The mshr sweep covers the warm
// fork's energy calibration, the thread-capped rf sweep the sweep
// baseline's KB rounding, and the cache sweep a non-default scheduler.
func TestSweepLocalMatchesJob(t *testing.T) {
	srv, err := serve.New(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mummer := api.SweepRequest{Kernel: "mummer", Resource: "mshr", From: 4, To: 16, Step: "2x", WarmCycles: 20000}
	dgemm := api.SweepRequest{Kernel: "dgemm", Resource: "rf", From: 64, To: 256, Step: "64"}
	dgemm.Machine.MaxThreads = 1024
	bfsGTO := api.SweepRequest{Kernel: "bfs", Resource: "cache", From: 32, To: 256, Step: "2x"}
	bfsGTO.Machine.Timing.Scheduler = "gto"

	for _, req := range []api.SweepRequest{mummer, dgemm, bfsGTO} {
		batch, _, err := runplan.Sweep(req)
		if err != nil {
			t.Fatal(err)
		}
		items, err := localSweep(batch)
		if err != nil {
			t.Fatal(err)
		}
		local, err := render(req, items)
		if err != nil {
			t.Fatal(err)
		}
		if items, err = submitSweep(ts.URL, req); err != nil {
			t.Fatal(err)
		}
		remote, err := render(req, items)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := local.String(), remote.String(); a != b {
			t.Errorf("%s %s sweep: local and job tables differ:\n--- local ---\n%s--- job ---\n%s",
				req.Kernel, req.Resource, a, b)
		}
	}
}
