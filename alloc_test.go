// The cycle loop's allocation contract: once a simulation's traces are
// memoized and its scratch structures sized, stepping the SM performs no
// heap allocation at all. CI gates on this test, so a regression that
// puts an allocation back on the hot path (a closure that escapes, a map
// on the issue path, a buffer rebuilt per access) fails loudly instead
// of showing up as a slow drift in BENCH_results.json.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/occupancy"
	"repro/internal/sm"
	"repro/internal/workloads"
)

// steadySpec builds a baseline-configuration spec with the MSHR table
// bounded, so every memsys structure is pre-sized (the unbounded model
// may legitimately double its pending-fill table mid-run).
func steadySpec(t *testing.T, name string) sm.Spec {
	t.Helper()
	k, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Baseline()
	occ := occupancy.Compute(k.Requirements(), cfg, 0)
	if occ.CTAs < 1 {
		t.Fatalf("%s does not fit the baseline configuration", name)
	}
	params := sm.DefaultParams()
	params.MaxMSHRs = 64
	return sm.Spec{
		Config:       cfg,
		Params:       params,
		Source:       &workloads.Source{K: k},
		ResidentCTAs: occ.CTAs,
	}
}

// mallocs returns the heap allocations f makes. MemStats.Mallocs is
// process-wide, so the window runs with a single P: ReadMemStats stops
// and restarts the world, and with a second, idle P the restart may
// start a new OS thread (when no parked one is free, as under CPU
// contention), whose runtime structures — m, g0, gsignal, and two
// profiling stacks — are five heap allocations no simulation code made.
// With one P the restart wakes nothing. The test goroutine is the only
// one simulating, so the window measures exactly its cycle loop.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// newSteadySM builds a fresh SM from steadySpec.
func newSteadySM(t *testing.T, name string) *sm.SM {
	t.Helper()
	machine, err := sm.NewSM(steadySpec(t, name))
	if err != nil {
		t.Fatal(err)
	}
	return machine
}

// TestForkedCycleLoopAllocFree extends the contract across the
// snapshot boundary: capturing a snapshot may allocate (it builds the
// copy-on-write state), but a forked SM resumes with every scratch
// structure already at its high-water mark, so the post-restore cycle
// loop must heap-allocate exactly zero times.
func TestForkedCycleLoopAllocFree(t *testing.T) {
	for _, name := range []string{"needle", "bfs"} {
		warm := newSteadySM(t, name)
		if _, err := warm.Run(); err != nil {
			t.Fatal(err)
		}

		spec := steadySpec(t, name)
		parent, err := sm.NewSM(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := parent.RunTo(2000); err != nil {
			t.Fatal(err)
		}
		snap, err := parent.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fork, err := sm.Fork(spec, snap)
		if err != nil {
			t.Fatal(err)
		}
		var stepErr error
		d := mallocs(func() {
			for !fork.Done() && stepErr == nil {
				stepErr = fork.Step()
			}
		})
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if d != 0 {
			t.Errorf("%s: %d heap allocations during a forked cycle loop, want 0", name, d)
		}
	}
}

// TestCycleLoopSteadyStateAllocFree runs one full simulation to warm the
// trace cache and scratch high-water marks, then re-runs the same
// kernel and requires zero heap allocations across the entire second
// run's cycle loop.
func TestCycleLoopSteadyStateAllocFree(t *testing.T) {
	for _, name := range []string{"needle", "bfs"} {
		warm := newSteadySM(t, name)
		if _, err := warm.Run(); err != nil {
			t.Fatal(err)
		}

		machine := newSteadySM(t, name)
		machine.Start()
		var stepErr error
		d := mallocs(func() {
			for !machine.Done() && stepErr == nil {
				stepErr = machine.Step()
			}
		})
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		if d != 0 {
			t.Errorf("%s: %d heap allocations during a warmed cycle loop, want 0", name, d)
		}
	}
}
