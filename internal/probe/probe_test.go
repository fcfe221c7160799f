package probe

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/config"
)

// TestStallSplitsAcrossIntervals drives a synthetic event sequence and
// checks that spans crossing interval boundaries are split correctly and
// that the breakdown sums to the covered cycle span.
func TestStallSplitsAcrossIntervals(t *testing.T) {
	p := New(10, nil)
	p.Begin(0)

	p.Issue(0, 0)                        // interval 0
	p.Stall(1, 25, StallScoreboard, 0)   // spans intervals 0, 1, 2
	p.Issue(25, 0)                       // interval 2
	p.Stall(26, 30, StallNoReadyWarp, 0) // rest of interval 2
	p.Issue(30, 0)                       // interval 3
	p.End(34)                            // 3 trailing drain slots

	if got := p.Issued(); got != 3 {
		t.Fatalf("Issued = %d, want 3", got)
	}
	stalls := p.StallSlots()
	if stalls[StallScoreboard] != 24 {
		t.Errorf("scoreboard slots = %d, want 24", stalls[StallScoreboard])
	}
	if stalls[StallNoReadyWarp] != 4 {
		t.Errorf("no-ready-warp slots = %d, want 4", stalls[StallNoReadyWarp])
	}
	if stalls[StallDrain] != 3 {
		t.Errorf("drain slots = %d, want 3", stalls[StallDrain])
	}
	// Every cycle [0, 34) accounted for exactly once.
	if got := p.TotalSlots(); got != 34 {
		t.Fatalf("TotalSlots = %d, want 34", got)
	}

	ivs := p.Intervals()
	if len(ivs) != 4 {
		t.Fatalf("got %d intervals, want 4", len(ivs))
	}
	// Interval 0: one issue + 9 scoreboard slots.
	if ivs[0].Issued != 1 || ivs[0].Stalls[StallScoreboard] != 9 {
		t.Errorf("interval 0 = %+v, want issued=1 scoreboard=9", ivs[0])
	}
	// Interval 1: fully inside the scoreboard span.
	if ivs[1].Stalls[StallScoreboard] != 10 {
		t.Errorf("interval 1 scoreboard = %d, want 10", ivs[1].Stalls[StallScoreboard])
	}
	// Interval 2: 5 scoreboard tail + issue at 25 + 4 no-ready-warp.
	if ivs[2].Issued != 1 || ivs[2].Stalls[StallScoreboard] != 5 || ivs[2].Stalls[StallNoReadyWarp] != 4 {
		t.Errorf("interval 2 = %+v, want issued=1 scoreboard=5 noready=4", ivs[2])
	}
	// Each interval's slots sum to its window span (last one is partial).
	for i, iv := range ivs {
		slots := iv.Issued
		for _, n := range iv.Stalls {
			slots += n
		}
		span := iv.End - iv.Start
		if slots != span {
			t.Errorf("interval %d: %d slots over a %d-cycle window", i, slots, span)
		}
	}
	if last := ivs[3]; last.End != 34 {
		t.Errorf("last interval ends at %d, want 34 (trimmed to the run)", last.End)
	}
}

// TestStaggeredStart checks attribution when observation begins at a
// nonzero cycle, as in the multi-SM chip simulator.
func TestStaggeredStart(t *testing.T) {
	p := New(0, nil)
	p.Begin(1000)
	p.Issue(1000, 0)
	p.Stall(1001, 1500, StallBarrier, 0)
	p.End(1500)
	if p.StartCycle() != 1000 {
		t.Errorf("StartCycle = %d, want 1000", p.StartCycle())
	}
	if got := p.TotalSlots(); got != 500 {
		t.Errorf("TotalSlots = %d, want 500", got)
	}
	if p.IntervalCycles() != DefaultInterval {
		t.Errorf("IntervalCycles = %d, want DefaultInterval", p.IntervalCycles())
	}
}

// TestNDJSONRoundTrip streams a synthetic profile and decodes it back.
func TestNDJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	p := New(16, &buf)
	p.Annotate("kernel", "synthetic")
	p.Annotate("config", `quoted "name" \ and ünïcode`)
	p.Begin(0)
	p.Issue(0, 0)
	p.Stall(1, 40, StallBankConflict, 0)
	acc, conf := p.Heat()
	acc[0] = 7
	acc[31] = 3
	conf[31] = 2
	p.End(45)
	if err := p.WriteErr(); err != nil {
		t.Fatalf("WriteErr: %v", err)
	}

	prof, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if prof.Version != ndjsonVersion {
		t.Errorf("Version = %d, want %d", prof.Version, ndjsonVersion)
	}
	if prof.IntervalCycles != 16 {
		t.Errorf("IntervalCycles = %d, want 16", prof.IntervalCycles)
	}
	if prof.Annotations["kernel"] != "synthetic" {
		t.Errorf("kernel annotation = %q", prof.Annotations["kernel"])
	}
	if got := prof.Annotations["config"]; got != `quoted "name" \ and ünïcode` {
		t.Errorf("escaped annotation round-trip = %q", got)
	}
	if len(prof.Intervals) != len(p.Intervals()) {
		t.Fatalf("decoded %d intervals, want %d", len(prof.Intervals), len(p.Intervals()))
	}
	for i, iv := range p.Intervals() {
		if prof.Intervals[i] != iv {
			t.Errorf("interval %d: decoded %+v, want %+v", i, prof.Intervals[i], iv)
		}
	}
	s := prof.Summary
	if s == nil {
		t.Fatal("no summary record decoded")
	}
	if s.Slots != p.TotalSlots() || s.Issued != p.Issued() || s.Stalls != p.StallSlots() {
		t.Errorf("summary totals %+v do not match probe", s)
	}
	wantAcc, wantConf := p.BankHeat()
	if s.BankAccess != wantAcc || s.BankConflict != wantConf {
		t.Errorf("summary bank heat does not match probe")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct{ name, stream, wantErr string }{
		{"unknown type", `{"type":"wat"}`, `unknown record type`},
		{"unknown reason", `{"type":"interval","stalls":{"cosmic_rays":1}}`, `unknown stall reason`},
		{"bank mismatch", `{"type":"summary","bank_access":[1,2,3]}`, `3 banks`},
		{"bad json", `{"type":`, `line 1`},
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c.stream)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

// TestDecodeTruncated: a stream cut off before the summary decodes
// cleanly with Summary == nil.
func TestDecodeTruncated(t *testing.T) {
	prof, err := Decode(strings.NewReader(
		`{"type":"meta","version":1,"interval":4096,"annotations":{}}` + "\n" +
			`{"type":"interval","start":0,"end":4096,"issued":5,"stalls":{},"cache_probes":0,"cache_hits":0,"dram_bytes":0}` + "\n"))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if prof.Summary != nil {
		t.Error("truncated stream decoded a summary")
	}
	if len(prof.Intervals) != 1 {
		t.Errorf("decoded %d intervals, want 1", len(prof.Intervals))
	}
}

// TestHotHooksDoNotAllocate pins the zero-allocation contract of the
// hooks on the SM's issue loop: Issue, Stall, and Heat must not allocate
// in steady state (no NDJSON writer attached).
func TestHotHooksDoNotAllocate(t *testing.T) {
	p := New(1<<40, nil) // one huge interval: steady state, no flushes
	p.Begin(0)
	cycle := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		p.Issue(cycle, 0)
		p.Stall(cycle+1, cycle+3, StallScoreboard, 0)
		acc, conf := p.Heat()
		acc[cycle%config.NumBanks]++
		conf[cycle%config.NumBanks]++
		cycle += 3
	}); n != 0 {
		t.Fatalf("hot hooks allocate %v times per issue", n)
	}
}

func BenchmarkProbeIssue(b *testing.B) {
	p := New(1<<40, nil)
	p.Begin(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Issue(int64(i), 0)
	}
}

func BenchmarkProbeStall(b *testing.B) {
	p := New(1<<40, nil)
	p.Begin(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := int64(i) * 2
		p.Stall(c, c+2, StallNoReadyWarp, 0)
	}
}
