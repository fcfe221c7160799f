package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run(core.NewRunner(), "figure99"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestTable4RendersPublishedValues(t *testing.T) {
	out := table4(core.Table4()).String()
	for _, want := range []string{"9.8", "11.8", "3.9", "5.1", "12.1", "14.9", "384KB unified"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 output missing %q:\n%s", want, out)
		}
	}
}

// TestEveryExperimentRenders checks each experiment's output is a
// non-trivial table. It shares the once-per-binary rendering with
// TestGoldenTables, so the full pipeline regenerates only once per test
// run; it still takes tens of seconds.
func TestEveryExperimentRenders(t *testing.T) {
	rendered := sharedRender(t)
	for _, name := range Experiments {
		out := rendered[name].text
		if lines := strings.Count(out, "\n"); lines < 4 {
			t.Errorf("%s: suspiciously small table (%d lines)", name, lines)
		}
		if strings.Contains(out, "NaN") {
			t.Errorf("%s: NaN leaked into output:\n%s", name, out)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab, err := Run(core.NewRunner(), "table4")
	if err != nil {
		t.Fatal(err)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "structure,") {
		t.Errorf("CSV header wrong: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if strings.Count(csv, "\n") != 5 { // header + 4 structures
		t.Errorf("CSV has %d lines, want 5:\n%s", strings.Count(csv, "\n"), csv)
	}
}

// TestChartRendersFigure11 charts the shared pass's sweeps, so it
// simulates nothing of its own.
func TestChartRendersFigure11(t *testing.T) {
	out := chart("figure11", sharedRender(t)["figure11"].rows.([]core.FigureSweep))
	for _, want := range []string{"needle BF=16", "needle BF=32", "needle BF=64", "shared memory (KB)"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q", want)
		}
	}
}

func TestChartRejectsNonSweeps(t *testing.T) {
	if _, err := Chart(core.NewRunner(), "table4"); err == nil {
		t.Error("table4 is not chartable")
	}
}

func TestChartRendersFigure2Lines(t *testing.T) {
	out := chart("figure2", sharedRender(t)["figure2"].rows.([]core.FigureSweep))
	for _, want := range []string{"figure2: dgemm", "figure2: needle", "18 regs", "64 regs", "RF capacity (KB)"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure2 charts missing %q", want)
		}
	}
}
