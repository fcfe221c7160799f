package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/workloads"
)

// ProfileSpec describes one observed run for Profile.
type ProfileSpec struct {
	// Kernel is the benchmark name (workloads registry).
	Kernel string
	// Streams, when non-empty, profiles a multi-tenant mix instead: the
	// named kernels run co-resident on one SM and the probe attributes
	// issue and stall slots per stream. Mutually exclusive with Kernel;
	// RegsPerThread applies only to a one-kernel list (the streams of a
	// mix each use their spill-free demand).
	Streams []string
	// Config is the local-memory configuration to run under.
	Config config.MemConfig
	// RegsPerThread overrides the register allocation (0 = spill-free).
	RegsPerThread int
	// IntervalCycles is the probe sampling interval (0 = default).
	IntervalCycles int64
	// NDJSON, when non-nil, receives the streamed NDJSON profile.
	NDJSON io.Writer
}

// ProfileResult pairs a run's outcome with its probe.
type ProfileResult struct {
	Result *core.Result
	Probe  *probe.Probe
}

// Profile runs one kernel with a cycle-level probe attached. It is the
// engine behind cmd/smprof and usable directly from tests.
func Profile(r *core.Runner, ps ProfileSpec) (*ProfileResult, error) {
	p := probe.New(ps.IntervalCycles, ps.NDJSON)
	names := ps.Streams
	if len(names) == 0 {
		names = []string{ps.Kernel}
	} else if ps.Kernel != "" {
		return nil, fmt.Errorf("harness: ProfileSpec.Kernel and ProfileSpec.Streams are mutually exclusive")
	}
	spec := core.RunSpec{Config: ps.Config}
	for _, name := range names {
		k, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		spec.Streams = append(spec.Streams, core.StreamSpec{Kernel: k})
	}
	if len(spec.Streams) == 1 {
		spec.Streams[0].RegsPerThread = ps.RegsPerThread
	}
	res, err := r.Run(spec, core.WithProbe(p))
	if err != nil {
		return nil, err
	}
	if werr := p.WriteErr(); werr != nil {
		return nil, fmt.Errorf("harness: writing NDJSON profile: %w", werr)
	}
	return &ProfileResult{Result: res, Probe: p}, nil
}

// stallLabels are the human-readable stall category names, in
// probe.StallReason order.
var stallLabels = [probe.NumStallReasons]string{
	"barrier", "MSHR full", "scoreboard", "arbitration", "bank conflict",
	"no ready warp", "drain",
}

// sparkWidth caps the rendered width of profile sparklines; longer
// series are bucket-averaged down to it.
const sparkWidth = 72

// StallTable renders the issue-slot attribution breakdown. Every slot
// of the run is either an issued instruction or charged to exactly one
// stall category, so the rows sum to the total row exactly.
func StallTable(p *probe.Probe) *report.Table {
	total := p.TotalSlots()
	t := report.NewTable(
		fmt.Sprintf("Stall attribution (%d issue slots from cycle %d)", total, p.StartCycle()),
		"category", "slots", "share")
	share := func(n int64) string {
		if total == 0 {
			return "-"
		}
		return report.Percent(float64(n) / float64(total))
	}
	t.AddRow("issued", fmt.Sprint(p.Issued()), share(p.Issued()))
	stalls := p.StallSlots()
	for i, n := range stalls {
		t.AddRow(stallLabels[i], fmt.Sprint(n), share(n))
	}
	t.AddRow("total", fmt.Sprint(total), share(total))
	return t
}

// StreamStallTable renders the per-stream issue-slot attribution of a
// multi-tenant profile: one row per stream, the same categories as
// StallTable. Each row's slots are the stream's share; the rows sum to
// the aggregate table's slots (minus none — the probe's conservation
// invariant).
func StreamStallTable(p *probe.Probe) *report.Table {
	cols := append([]string{"stream", "issued"}, stallLabels[:]...)
	t := report.NewTable("Per-stream stall attribution", cols...)
	for i := 0; i < p.NumStreams(); i++ {
		stalls := p.StreamStalls(i)
		row := []string{p.StreamName(i), fmt.Sprint(p.StreamIssued(i))}
		for _, n := range stalls {
			row = append(row, fmt.Sprint(n))
		}
		t.AddRow(row...)
	}
	return t
}

// FormatBankHeat renders the per-bank access/conflict heatmap: one
// sparkline column per physical bank, plus the hot-bank summary.
func FormatBankHeat(p *probe.Probe) string {
	access, conflict := p.BankHeat()
	acc := make([]float64, len(access))
	conf := make([]float64, len(conflict))
	totalAcc, totalConf, hot := int64(0), int64(0), 0
	for b := range access {
		acc[b] = float64(access[b])
		conf[b] = float64(conflict[b])
		totalAcc += access[b]
		totalConf += conflict[b]
		if access[b] > access[hot] {
			hot = b
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Bank heatmap (%d banks, one column per bank)\n", len(access))
	fmt.Fprintf(&sb, "  accesses   %s\n", report.Sparkline(acc))
	fmt.Fprintf(&sb, "  conflicts  %s\n", report.Sparkline(conf))
	if totalAcc > 0 {
		mean := float64(totalAcc) / float64(len(access))
		fmt.Fprintf(&sb, "  hottest bank %d: %d accesses (%.2fx the per-bank mean); %d conflict cycles total\n",
			hot, access[hot], float64(access[hot])/mean, totalConf)
	}
	return sb.String()
}

// FormatIntervals renders the sampled time series as sparklines: issue
// rate, stall fraction, cache hit rate, and DRAM traffic per window.
func FormatIntervals(p *probe.Probe) string {
	ivs := p.Intervals()
	if len(ivs) == 0 {
		return ""
	}
	issue := make([]float64, len(ivs))
	stall := make([]float64, len(ivs))
	hit := make([]float64, len(ivs))
	dram := make([]float64, len(ivs))
	for i, iv := range ivs {
		slots := iv.Issued
		for _, n := range iv.Stalls {
			slots += n
		}
		if slots > 0 {
			issue[i] = float64(iv.Issued) / float64(slots)
			stall[i] = 1 - issue[i]
		}
		if iv.CacheProbes > 0 {
			hit[i] = float64(iv.CacheHits) / float64(iv.CacheProbes)
		}
		dram[i] = float64(iv.DRAMBytes)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Phases (%d intervals of %d cycles)\n", len(ivs), p.IntervalCycles())
	fmt.Fprintf(&sb, "  issue rate  %s\n", report.Sparkline(report.Downsample(issue, sparkWidth)))
	fmt.Fprintf(&sb, "  stall rate  %s\n", report.Sparkline(report.Downsample(stall, sparkWidth)))
	fmt.Fprintf(&sb, "  cache hits  %s\n", report.Sparkline(report.Downsample(hit, sparkWidth)))
	fmt.Fprintf(&sb, "  dram bytes  %s\n", report.Sparkline(report.Downsample(dram, sparkWidth)))
	return sb.String()
}

// FormatProfile renders the full cmd/smprof report for one profiled run.
func FormatProfile(pr *ProfileResult) string {
	res, p := pr.Result, pr.Probe
	c := res.Counters
	var sb strings.Builder
	residency := fmt.Sprintf("%d CTAs, limited by %v", res.Occupancy.CTAs, res.Occupancy.Limiter)
	if len(res.Streams) > 1 {
		residency = fmt.Sprintf("%d CTAs jointly resident", res.Occupancy.CTAs)
	}
	fmt.Fprintf(&sb, "%s under %v: threads=%d (%s)\n",
		core.StreamNames(res.Spec.Streams), res.Spec.Config, res.Occupancy.Threads, residency)
	fmt.Fprintf(&sb, "cycles=%d  warp IPC=%.3f  thread IPC=%.2f  cache hit=%s  dram=%dB\n\n",
		c.Cycles, c.IPC(), res.IPC(), report.Percent(c.CacheHitRate()), c.DRAMBytes())
	sb.WriteString(StallTable(p).String())
	sb.WriteByte('\n')
	if p.NumStreams() > 1 {
		sb.WriteString(StreamStallTable(p).String())
		sb.WriteByte('\n')
	}
	sb.WriteString(FormatBankHeat(p))
	sb.WriteByte('\n')
	sb.WriteString(FormatIntervals(p))
	return sb.String()
}
