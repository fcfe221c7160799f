package trace

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// update rewrites testdata/analyze.txt from the current Analyze output.
var update = flag.Bool("update", false, "rewrite testdata/analyze.txt from current output")

// TestAnalyzeProfilesPinned pins every Profile field of full registry
// grids — a shared-memory kernel (needle), a divergent global-memory
// kernel (bfs), a register-bound kernel (dgemm), and dgemm at half its
// register budget, whose spill code exercises the spill count and the
// MRF write-through — so the tally and line rules Analyze shares with
// the timing core cannot drift. Regenerate with
//
//	go test ./internal/trace -run TestAnalyzeProfilesPinned -update
func TestAnalyzeProfilesPinned(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		name string
		half bool
	}{{"needle", false}, {"bfs", false}, {"dgemm", false}, {"dgemm", true}} {
		k := mustKernel(c.name)
		src := &workloads.Source{K: k, Seed: 1}
		if c.half {
			src.RegsAvail = k.RegsNeeded / 2
		}
		p := Analyze(Record(src))
		if c.half && p.SpillInstructions == 0 {
			t.Fatalf("%s at %d registers has no spill code", c.name, src.RegsAvail)
		}
		fmt.Fprintf(&b, "%s regs=%d: %+v\n", c.name, src.RegsAvail, *p)
	}
	path := filepath.Join("testdata", "analyze.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("Analyze output diverged from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
