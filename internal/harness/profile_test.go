package harness

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/runplan"
	"repro/internal/workloads"
)

// profileConfig is the baseline partitioned machine used by these tests.
var profileConfig = config.MemConfig{
	Design:      config.Partitioned,
	RFBytes:     config.BaselineRFBytes,
	SharedBytes: config.BaselineSharedBytes,
	CacheBytes:  config.BaselineCacheBytes,
}

// probedRun runs kernel name under profileConfig with a fresh probe
// attached, sampling every interval cycles and streaming NDJSON to
// ndjson when it is non-nil.
func probedRun(t *testing.T, name string, interval int64, ndjson io.Writer) (*core.Result, *probe.Probe) {
	t.Helper()
	k, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := probe.New(interval, ndjson)
	res, err := core.NewRunner().Run(core.RunSpec{Kernel: k, Config: profileConfig}, core.WithProbe(p))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, p
}

// profileRun makes a probed run of req the way cmd/smprof does —
// resolved and simulated through runplan — and decodes the response's
// NDJSON profile.
func profileRun(t *testing.T, req api.RunRequest) (*runplan.Run, *api.RunResponse, *probe.Profile) {
	t.Helper()
	req.Probe = true
	run, err := runplan.Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := runplan.Simulate(context.Background(), run, &runplan.Runners{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := probe.Decode(strings.NewReader(resp.ProbeNDJSON))
	if err != nil {
		t.Fatal(err)
	}
	if prof.Summary == nil {
		t.Fatal("profile has no summary record")
	}
	return run, resp, prof
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
		res, p := probedRun(t, name, 0, nil)
		c := res.Counters
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
	res, p := probedRun(t, "needle", 2048, &buf)
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
	if prof.Summary.CacheProbes != res.Counters.CacheProbes {
		t.Errorf("summary cache probes = %d, want %d",
			prof.Summary.CacheProbes, res.Counters.CacheProbes)
	}
}

// TestProbeParallelFanOut executes probed runs on an 8-worker fan-out —
// runplan.Execute, the path batches and jobs take — and checks each
// run's decoded profile is self-consistent. Every run attaches a fresh
// probe, so under -race this also verifies probes introduce no shared
// mutable state across runs.
func TestProbeParallelFanOut(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(8)
	defer parallel.SetWorkers(old)

	kernels := []string{"needle", "bfs", "dgemm", "needle", "bfs", "dgemm", "needle", "bfs"}
	runs := make([]*runplan.Run, len(kernels))
	for i, name := range kernels {
		var err error
		if runs[i], err = runplan.Resolve(api.RunRequest{Kernel: name, Probe: true}); err != nil {
			t.Fatal(err)
		}
	}
	items, err := runplan.Execute(runs)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Result == nil {
			t.Fatalf("run %d (%s): %+v", i, kernels[i], it.Error)
		}
		prof, err := probe.Decode(strings.NewReader(it.Result.ProbeNDJSON))
		if err != nil {
			t.Fatalf("run %d (%s): %v", i, kernels[i], err)
		}
		sum := prof.Summary
		if sum == nil || sum.Slots == 0 || sum.Issued == 0 {
			t.Errorf("run %d (%s): empty profile", i, kernels[i])
			continue
		}
		if sum.Issued != it.Result.Counters.WarpInsts {
			t.Errorf("run %d (%s): issued %d != warp insts %d",
				i, kernels[i], sum.Issued, it.Result.Counters.WarpInsts)
		}
	}
	// Identical kernels must produce identical profiles regardless of
	// which worker ran them.
	if items[0].Result.ProbeNDJSON != items[3].Result.ProbeNDJSON {
		t.Error("identical runs produced different profiles across workers")
	}
}

// TestFormatProfile sanity-checks the rendered report.
func TestFormatProfile(t *testing.T) {
	run, resp, prof := profileRun(t, api.RunRequest{Kernel: "needle"})
	out := FormatProfile(run, resp, prof)
	for _, want := range []string{
		"Stall attribution", "issued", "no ready warp", "total",
		"Bank heatmap", "Phases",
		fmt.Sprint(prof.Summary.Slots),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// profileGoldens are the probe outputs of smprof's path (a probed
// runplan run on the baseline machine) pinned byte for byte: the NDJSON
// stream and the rendered smprof report of a single-kernel run and of a
// two-stream mix (whose report adds the per-stream stall table).
// Regenerate with
//
//	go test ./internal/harness -run TestProfileGoldens -update
var profileGoldens = []struct {
	file   string
	req    api.RunRequest
	ndjson bool // pin the NDJSON stream, else the rendered report
}{
	{"needle.ndjson", api.RunRequest{Kernel: "needle"}, true},
	{"needle.txt", api.RunRequest{Kernel: "needle"}, false},
	{"needle+matrixmul.ndjson", mixRequest, true},
	{"needle+matrixmul.txt", mixRequest, false},
}

// mixRequest is the two-stream mix of the profile goldens.
var mixRequest = api.RunRequest{Streams: []api.StreamRequest{{Kernel: "needle"}, {Kernel: "matrixmul"}}}

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
			run, resp, prof := profileRun(t, g.req)
			got := resp.ProbeNDJSON
			if !g.ndjson {
				got = FormatProfile(run, resp, prof)
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
