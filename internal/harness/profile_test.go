package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/workloads"
)

// profileConfig is the baseline partitioned machine used by these tests.
var profileConfig = config.MemConfig{
	Design:      config.Partitioned,
	RFBytes:     config.BaselineRFBytes,
	SharedBytes: config.BaselineSharedBytes,
	CacheBytes:  config.BaselineCacheBytes,
}

// TestProbeDoesNotPerturbRun pins the observability contract: attaching
// a probe must leave every simulation counter identical to an unprobed
// run. (The golden-table suite pins the no-probe output byte-for-byte;
// this closes the other half.)
func TestProbeDoesNotPerturbRun(t *testing.T) {
	for _, name := range []string{"needle", "bfs"} {
		r := core.NewRunner()
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := core.RunSpec{Kernel: k, Config: profileConfig}
		plain, err := r.Run(spec)
		if err != nil {
			t.Fatalf("%s unprobed: %v", name, err)
		}
		probed, err := r.Run(spec, core.WithProbe(probe.New(0, nil)))
		if err != nil {
			t.Fatalf("%s probed: %v", name, err)
		}
		if !reflect.DeepEqual(plain.Counters, probed.Counters) {
			t.Errorf("%s: probe changed the run's counters:\nunprobed %+v\nprobed   %+v",
				name, plain.Counters, probed.Counters)
		}
		if plain.Energy != probed.Energy {
			t.Errorf("%s: probe changed the energy breakdown", name)
		}
	}
}

// TestProbeSlotsAccountForEveryCycle checks the attribution invariant on
// real runs: issued plus every stall category sums to the run's issue
// slots, and the interval series re-sums to the same totals.
func TestProbeSlotsAccountForEveryCycle(t *testing.T) {
	for _, name := range []string{"needle", "dgemm", "bfs"} {
		pr, err := Profile(core.NewRunner(), ProfileSpec{Kernel: name, Config: profileConfig})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, c := pr.Probe, pr.Result.Counters
		covered := c.Cycles - p.StartCycle()
		// The final slot is inclusive when the run's last event is an
		// issue at the reported cycle, so allow covered or covered+1.
		if got := p.TotalSlots(); got != covered && got != covered+1 {
			t.Errorf("%s: TotalSlots = %d, want %d or %d (cycles=%d)",
				name, got, covered, covered+1, c.Cycles)
		}
		var issued int64
		var stalls [probe.NumStallReasons]int64
		for _, iv := range p.Intervals() {
			issued += iv.Issued
			for r, n := range iv.Stalls {
				stalls[r] += n
			}
		}
		if issued != p.Issued() || stalls != p.StallSlots() {
			t.Errorf("%s: interval series does not re-sum to the totals", name)
		}
		if issued != c.WarpInsts {
			t.Errorf("%s: probe issued %d, counters retired %d warp insts",
				name, issued, c.WarpInsts)
		}
	}
}

// TestProfileNDJSONRoundTrip streams a real run's profile and decodes it
// back with probe.Decode, checking the decoded stream agrees with the
// live probe.
func TestProfileNDJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pr, err := Profile(core.NewRunner(), ProfileSpec{
		Kernel: "needle", Config: profileConfig, IntervalCycles: 2048, NDJSON: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pr.Probe
	prof, err := probe.Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if prof.IntervalCycles != 2048 {
		t.Errorf("decoded interval = %d, want 2048", prof.IntervalCycles)
	}
	if prof.Annotations["kernel"] != "needle" {
		t.Errorf("kernel annotation = %q, want needle", prof.Annotations["kernel"])
	}
	if len(prof.Intervals) != len(p.Intervals()) {
		t.Fatalf("decoded %d intervals, want %d", len(prof.Intervals), len(p.Intervals()))
	}
	for i, iv := range p.Intervals() {
		if prof.Intervals[i] != iv {
			t.Fatalf("interval %d: decoded %+v, want %+v", i, prof.Intervals[i], iv)
		}
	}
	if prof.Summary == nil {
		t.Fatal("no summary record")
	}
	if prof.Summary.Slots != p.TotalSlots() || prof.Summary.Issued != p.Issued() ||
		prof.Summary.Stalls != p.StallSlots() {
		t.Errorf("decoded summary does not match the live probe")
	}
	acc, conf := p.BankHeat()
	if prof.Summary.BankAccess != acc || prof.Summary.BankConflict != conf {
		t.Errorf("decoded bank heat does not match the live probe")
	}
	if prof.Summary.CacheProbes != pr.Result.Counters.CacheProbes {
		t.Errorf("summary cache probes = %d, want %d",
			prof.Summary.CacheProbes, pr.Result.Counters.CacheProbes)
	}
}

// TestProbeParallelFanOut attaches a fresh probe to every run of an
// 8-worker fan-out — the pattern experiment drivers use — and checks
// each run's profile is self-consistent. Run under -race this also
// verifies probes introduce no shared mutable state across runs.
func TestProbeParallelFanOut(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(8)
	defer parallel.SetWorkers(old)

	r := core.NewRunner()
	kernels := []string{"needle", "bfs", "dgemm", "needle", "bfs", "dgemm", "needle", "bfs"}
	profs, err := parallel.Map(len(kernels), func(i int) (*ProfileResult, error) {
		return Profile(r, ProfileSpec{Kernel: kernels[i], Config: profileConfig, NDJSON: &bytes.Buffer{}})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range profs {
		if pr.Probe.TotalSlots() == 0 || pr.Probe.Issued() == 0 {
			t.Errorf("run %d (%s): empty profile", i, kernels[i])
		}
		if pr.Probe.Issued() != pr.Result.Counters.WarpInsts {
			t.Errorf("run %d (%s): issued %d != warp insts %d",
				i, kernels[i], pr.Probe.Issued(), pr.Result.Counters.WarpInsts)
		}
	}
	// Identical kernels must produce identical profiles regardless of
	// which worker ran them.
	if profs[0].Probe.StallSlots() != profs[3].Probe.StallSlots() {
		t.Error("identical runs produced different stall breakdowns across workers")
	}
}

// TestFormatProfile sanity-checks the rendered report.
func TestFormatProfile(t *testing.T) {
	pr, err := Profile(core.NewRunner(), ProfileSpec{Kernel: "needle", Config: profileConfig})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatProfile(pr)
	for _, want := range []string{
		"Stall attribution", "issued", "no ready warp", "total",
		"Bank heatmap", "Phases",
		fmt.Sprint(pr.Probe.TotalSlots()),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// profileGoldens are the probe outputs pinned byte for byte: the NDJSON
// stream of a single-kernel run and of a two-stream mix, and the
// rendered smprof report of the mix (aggregate and per-stream stall
// tables). Regenerate with
//
//	go test ./internal/harness -run TestProfileGoldens -update
var profileGoldens = []struct {
	file   string
	spec   ProfileSpec
	ndjson bool // pin the NDJSON stream, else the rendered report
}{
	{"needle.ndjson", ProfileSpec{Kernel: "needle", Config: profileConfig}, true},
	{"needle+matrixmul.ndjson", ProfileSpec{Streams: []string{"needle", "matrixmul"}, Config: profileConfig}, true},
	{"needle+matrixmul.txt", ProfileSpec{Streams: []string{"needle", "matrixmul"}, Config: profileConfig}, false},
}

// TestProfileGoldens pins the probe's NDJSON bytes and the smprof
// stall-table text against testdata/profile, so a change to the probe
// hooks or the stall classifier that alters any attributed slot fails
// here rather than passing a round-trip check.
func TestProfileGoldens(t *testing.T) {
	dir := filepath.Join("testdata", "profile")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range profileGoldens {
		t.Run(g.file, func(t *testing.T) {
			var buf bytes.Buffer
			spec := g.spec
			if g.ndjson {
				spec.NDJSON = &buf
			}
			pr, err := Profile(core.NewRunner(), spec)
			if err != nil {
				t.Fatal(err)
			}
			got := buf.String()
			if !g.ndjson {
				got = FormatProfile(pr)
			}
			path := filepath.Join(dir, g.file)
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
				t.Errorf("%s diverged from %s (regenerate with -update if intentional)\n--- got ---\n%s--- want ---\n%s",
					g.file, path, got, want)
			}
		})
	}
}
