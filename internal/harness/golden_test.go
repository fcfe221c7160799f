package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// update rewrites the golden files and EXPERIMENTS.md's generated claim
// tables instead of comparing against them (the claims themselves are
// never rewritten):
//
//	go test ./internal/harness -update
var update = flag.Bool("update", false, "rewrite testdata/golden and EXPERIMENTS.md's claim tables from current output")

// schedFlag selects the warp-scheduling policy the experiments run under.
// The golden files are pinned for the default (two-level) policy; with a
// non-default policy TestGoldenTables still renders every experiment —
// asserting the full result surface stays runnable under the alternative
// scheduler — but skips the byte comparison.
//
//	go test ./internal/harness -run TestGoldenTables -sched gto
var schedFlag = flag.String("sched", "", "warp scheduler to run the experiments under")

// regenerated is one experiment's output from the shared pass: its
// driver's typed rows and their rendered table.
type regenerated struct {
	rows any
	text string
}

// renderAll regenerates every experiment exactly once per test binary,
// sharing one Runner so baselines are cached across experiments the same
// way cmd/paper runs them. The golden comparison, the render sanity
// checks, the claims, and the EXPERIMENTS.md gate all consume this.
var renderAll = sync.OnceValues(func() (map[string]regenerated, error) {
	policy, err := sched.ParsePolicy(*schedFlag)
	if err != nil {
		return nil, err
	}
	r := core.NewRunner()
	r.Params.Scheduler = policy
	out := make(map[string]regenerated, len(Experiments))
	for _, name := range Experiments {
		rows, tab, err := regenerate(r, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[name] = regenerated{rows, tab.String()}
	}
	return out, nil
})

// defaultScheduler reports whether the experiments run under the policy
// the goldens, the claims, and EXPERIMENTS.md are pinned for.
func defaultScheduler() bool {
	return *schedFlag == "" || *schedFlag == string(sched.TwoLevel)
}

// sharedRender returns the shared pass, skipping t under -short.
func sharedRender(t *testing.T) map[string]regenerated {
	t.Helper()
	if testing.Short() {
		t.Skip("full experiment regeneration skipped in -short mode")
	}
	rendered, err := renderAll()
	if err != nil {
		t.Fatal(err)
	}
	return rendered
}

// pinnedRender is sharedRender for a check pinned to the default
// scheduler: it also skips t under a non-default -sched.
func pinnedRender(t *testing.T) map[string]regenerated {
	t.Helper()
	if !defaultScheduler() {
		t.Skipf("pinned to the default scheduler; skipped under -sched %s", *schedFlag)
	}
	return sharedRender(t)
}

// goldenPath returns the committed rendering of one experiment.
func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".txt")
}

// TestGoldenTables pins the paper's entire result surface: the rendered
// output of all 15 experiments must match the committed golden files
// byte for byte. Run with -update after an intentional model change and
// review the diff like any other code change.
func TestGoldenTables(t *testing.T) {
	rendered := sharedRender(t)
	if !defaultScheduler() {
		// Non-default policy: every experiment rendered without error is
		// the assertion; the goldens only pin the default scheduler.
		t.Logf("ran all %d experiments under -sched %s; golden comparison skipped", len(Experiments), *schedFlag)
		return
	}
	if *update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range Experiments {
		t.Run(name, func(t *testing.T) {
			got := rendered[name].text
			path := goldenPath(name)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output diverged from %s (regenerate with -update if intentional)\n--- got ---\n%s--- want ---\n%s",
					name, path, got, want)
			}
		})
	}
}
