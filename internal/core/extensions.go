package core

import (
	"fmt"

	"repro/internal/banks"
	"repro/internal/chip"
	"repro/internal/config"
	"repro/internal/dispatch"
	"repro/internal/isa"
	"repro/internal/occupancy"
	"repro/internal/parallel"
	"repro/internal/sm"
	"repro/internal/workloads"
)

// This file implements the paper's documented design alternatives and
// extensions beyond the headline evaluation:
//
//   - Section 4.4: per-kernel repartitioning of the unified memory across
//     a multi-kernel application (RunSequence). The write-through cache
//     means repartitioning moves no data — only tags are invalidated.
//   - Section 4.2: the "more aggressive" scatter/gather design that lets
//     multiple banks in a cluster be accessed per cycle (AblateScatter);
//     the paper measured +0.5% average and kept the simple design.
//   - Section 8 (future work): power-gating unneeded capacity after
//     allocation (PowerGating) — "future systems could exploit this fact
//     by disabling unneeded memory".

// SequenceStep is one kernel's outcome within a multi-kernel run.
type SequenceStep struct {
	Kernel string
	Config config.MemConfig
	Result *Result
}

// SequenceResult aggregates a Section 4.4 multi-kernel run.
type SequenceResult struct {
	Steps []SequenceStep
	// Cycles and Energy are summed across the kernels.
	Cycles int64
	Energy float64
}

// RunSequence runs kernels back to back, repartitioning the unified memory
// of totalBytes before each launch with the Section 4.5 algorithm. Because
// the cache is write-through, repartitioning between kernels has no dirty
// data to move; the cache starts cold for each kernel either way (kernels
// do not share data here), so no extra reconfiguration penalty is charged.
func (r *Runner) RunSequence(kernels []*workloads.Kernel, totalBytes int) (*SequenceResult, error) {
	out := &SequenceResult{}
	for _, k := range kernels {
		cfg, err := config.Allocate(totalBytes, 0, k.Requirements())
		if err != nil {
			return nil, fmt.Errorf("sequence: %s: %w", k.Name, err)
		}
		res, err := r.Run(RunSpec{Kernel: k, Config: cfg})
		if err != nil {
			return nil, err
		}
		out.Steps = append(out.Steps, SequenceStep{Kernel: k.Name, Config: cfg, Result: res})
		out.Cycles += res.Counters.Cycles
		out.Energy += res.Energy.Total()
	}
	return out, nil
}

// RunSequenceFixed runs the same kernels under one fixed configuration
// (the comparison point for RunSequence: a hard-partitioned machine must
// serve every kernel with the same split).
func (r *Runner) RunSequenceFixed(kernels []*workloads.Kernel, cfg config.MemConfig) (*SequenceResult, error) {
	out := &SequenceResult{}
	for _, k := range kernels {
		res, err := r.Run(RunSpec{Kernel: k, Config: cfg})
		if err != nil {
			return nil, fmt.Errorf("sequence: %s under %v: %w", k.Name, cfg, err)
		}
		out.Steps = append(out.Steps, SequenceStep{Kernel: k.Name, Config: cfg, Result: res})
		out.Cycles += res.Counters.Cycles
		out.Energy += res.Energy.Total()
	}
	return out, nil
}

// ScatterAblation is one benchmark's simple-vs-aggressive outcome.
type ScatterAblation struct {
	Benchmark string
	// Speedup is aggressive performance / simple performance.
	Speedup float64
	// ConflictCyclesSimple and ConflictCyclesAggressive are the
	// serialization cycles under each variant.
	ConflictCyclesSimple     int64
	ConflictCyclesAggressive int64
}

// AblateScatter compares the simple single-bank-per-cluster unified design
// against the Section 4.2 aggressive variant for the given kernels, each
// under its Section 4.5 allocation.
func (r *Runner) AblateScatter(kernels []*workloads.Kernel) ([]ScatterAblation, error) {
	return parallel.Map(len(kernels), func(i int) (ScatterAblation, error) {
		k := kernels[i]
		cfg, err := config.Allocate(config.BaselineTotalBytes, 0, k.Requirements())
		if err != nil {
			return ScatterAblation{}, err
		}
		simple, err := r.Run(RunSpec{Kernel: k, Config: cfg})
		if err != nil {
			return ScatterAblation{}, err
		}
		agg := NewRunner()
		agg.Params.AggressiveScatter = true
		aggRes, err := agg.Run(RunSpec{Kernel: k, Config: cfg})
		if err != nil {
			return ScatterAblation{}, err
		}
		return ScatterAblation{
			Benchmark:                k.Name,
			Speedup:                  float64(simple.Counters.Cycles) / float64(aggRes.Counters.Cycles),
			ConflictCyclesSimple:     simple.Counters.ConflictCycles,
			ConflictCyclesAggressive: aggRes.Counters.ConflictCycles,
		}, nil
	})
}

// PowerGatingRow reports the Section 8 extension: after the §4.5
// allocation, any capacity not assigned to registers or shared memory and
// not needed by the cache could be power gated instead of spent on cache.
type PowerGatingRow struct {
	Benchmark string
	// FullPerf/FullEnergy: all remaining capacity used as cache (the
	// paper's default), normalized to the baseline partitioned design.
	FullPerf, FullEnergy float64
	// GatedPerf/GatedEnergy: cache capped at the baseline 64 KB and the
	// remainder power gated (no leakage).
	GatedPerf, GatedEnergy float64
}

// PowerGating evaluates gating the unused unified capacity for the given
// kernels. Gating trades the larger cache's performance for lower SRAM
// leakage — profitable exactly for the workloads whose working set the
// baseline cache already captures.
func (r *Runner) PowerGating(kernels []*workloads.Kernel) ([]PowerGatingRow, error) {
	return parallel.Map(len(kernels), func(i int) (PowerGatingRow, error) {
		k := kernels[i]
		base, err := r.Baseline(k)
		if err != nil {
			return PowerGatingRow{}, err
		}
		full, err := r.CompareUnified(k, config.BaselineTotalBytes)
		if err != nil {
			return PowerGatingRow{}, err
		}
		cfg, err := config.Allocate(config.BaselineTotalBytes, 0, k.Requirements())
		if err != nil {
			return PowerGatingRow{}, err
		}
		if cfg.CacheBytes > config.BaselineCacheBytes {
			// Gate everything beyond a baseline-sized cache: the
			// configuration simply shrinks, and with it the leakage.
			cfg.CacheBytes = config.BaselineCacheBytes
		}
		gated, err := r.Run(RunSpec{Kernel: k, Config: cfg})
		if err != nil {
			return PowerGatingRow{}, err
		}
		return PowerGatingRow{
			Benchmark:   k.Name,
			FullPerf:    full.PerfRatio,
			FullEnergy:  full.EnergyRatio,
			GatedPerf:   float64(base.Counters.Cycles) / float64(gated.Counters.Cycles),
			GatedEnergy: gated.Energy.Total() / base.Energy.Total(),
		}, nil
	})
}

// MethodologyRow compares the paper's single-SM methodology against a
// full multi-SM chip simulation for one benchmark (Section 5.1: "modeling
// a single SM, rather than the full chip, simplifies simulation without
// sacrificing accuracy").
type MethodologyRow struct {
	Benchmark string
	// SingleSMCycles is the standard single-SM simulation.
	SingleSMCycles int64
	// ChipMeanCycles is the mean per-SM runtime on an N-SM chip running
	// N copies of the grid against a shared, channel-interleaved DRAM
	// system with the same per-SM bandwidth share.
	ChipMeanCycles float64
	// Deviation is |chip/single - 1|.
	Deviation float64
}

// replicatedSource runs factor copies of a kernel grid (one per SM).
type replicatedSource struct {
	src    sm.TraceSource
	ctas   int
	warps  int
	factor int
}

func (r *replicatedSource) Grid() (int, int) { return r.ctas * r.factor, r.warps }
func (r *replicatedSource) WarpTrace(cta, warp int) []isa.WarpInst {
	return r.src.WarpTrace(cta, warp)
}

// WarpOutcomes forwards to the wrapped source when it memoizes bank
// outcomes (see dispatch.OutcomeSource), so replicated chip runs replay
// them too.
func (r *replicatedSource) WarpOutcomes(cta, warp int, design config.Design, aggressive bool) []banks.Outcome {
	if src, ok := r.src.(dispatch.OutcomeSource); ok {
		return src.WarpOutcomes(cta, warp, design, aggressive)
	}
	return nil
}

// ValidateMethodology runs each kernel both ways and reports the per-SM
// runtime deviation of the full-chip simulation from the single-SM one.
// Each kernel's chip simulation is an independent parallel work item.
func (r *Runner) ValidateMethodology(kernels []*workloads.Kernel, nSMs int) ([]MethodologyRow, error) {
	return parallel.Map(len(kernels), func(i int) (MethodologyRow, error) {
		k := kernels[i]
		single, err := r.Baseline(k)
		if err != nil {
			return MethodologyRow{}, err
		}
		occ := occupancy.Compute(k.Requirements(), config.Baseline(), 0)
		src := &workloads.Source{K: k, Seed: r.Seed}
		_, warps := src.Grid()
		rep := &replicatedSource{src: src, ctas: k.GridCTAs, warps: warps, factor: nSMs}
		machine, err := chip.New(chip.Config{NumSMs: nSMs}, config.Baseline(), r.Params, rep, occ.CTAs)
		if err != nil {
			return MethodologyRow{}, fmt.Errorf("validate %s: %w", k.Name, err)
		}
		res, err := machine.Run()
		if err != nil {
			return MethodologyRow{}, fmt.Errorf("validate %s: %w", k.Name, err)
		}
		mean := 0.0
		for _, c := range res.PerSM {
			mean += float64(c.Cycles)
		}
		mean /= float64(len(res.PerSM))
		row := MethodologyRow{
			Benchmark:      k.Name,
			SingleSMCycles: single.Counters.Cycles,
			ChipMeanCycles: mean,
		}
		row.Deviation = mean/float64(single.Counters.Cycles) - 1
		if row.Deviation < 0 {
			row.Deviation = -row.Deviation
		}
		return row, nil
	})
}

// WritePolicyRow compares the paper's write-through no-write-allocate
// cache against a write-back write-allocate variant for one benchmark
// under the baseline configuration (the Section 4.3/4.4 design-choice
// ablation).
type WritePolicyRow struct {
	Benchmark string
	// PerfRatio is write-back performance / write-through performance.
	PerfRatio float64
	// DRAMRatio is write-back DRAM traffic / write-through traffic.
	DRAMRatio float64
	// DirtyFlushLines is the modified-line count a write-back design
	// would have to flush when the unified memory is repartitioned
	// (write-through always owes zero).
	DirtyFlushLines int
}

// AblateWritePolicy runs each kernel under both write policies. The
// write-back Runner is shared across the parallel items; its baseline
// cache serializes internally.
func (r *Runner) AblateWritePolicy(kernels []*workloads.Kernel) ([]WritePolicyRow, error) {
	wb := NewRunner()
	wb.Params.WriteBackCache = true
	return parallel.Map(len(kernels), func(i int) (WritePolicyRow, error) {
		k := kernels[i]
		wt, err := r.Baseline(k)
		if err != nil {
			return WritePolicyRow{}, err
		}
		wbRes, err := wb.Baseline(k)
		if err != nil {
			return WritePolicyRow{}, err
		}
		return WritePolicyRow{
			Benchmark:       k.Name,
			PerfRatio:       float64(wt.Counters.Cycles) / float64(wbRes.Counters.Cycles),
			DRAMRatio:       float64(wbRes.Counters.DRAMBytes()) / float64(wt.Counters.DRAMBytes()),
			DirtyFlushLines: wbRes.Counters.DirtyLinesEnd,
		}, nil
	})
}

// SchedulerAblation reports performance across active-set sizes of the
// two-level warp scheduler (Gebhart et al. MICRO 2011 use 8 active warps;
// a size of 32 degenerates to a flat single-level scheduler). The paper's
// unified design inherits the two-level scheduler, so this quantifies how
// much the active-set choice matters on these workloads.
type SchedulerAblation struct {
	Benchmark string
	// CyclesByActive maps active-set size to runtime.
	CyclesByActive map[int]int64
}

// SchedulerActiveSizes are the swept active-set sizes.
var SchedulerActiveSizes = []int{4, 8, 16, 32}

// AblateScheduler sweeps the active-set size under the baseline design,
// running every (kernel, active-set size) cell as one parallel work item.
func (r *Runner) AblateScheduler(kernels []*workloads.Kernel) ([]SchedulerAblation, error) {
	cells, err := parallel.Map(len(kernels)*len(SchedulerActiveSizes), func(i int) (int64, error) {
		k := kernels[i/len(SchedulerActiveSizes)]
		rr := NewRunner()
		rr.Params.ActiveWarps = SchedulerActiveSizes[i%len(SchedulerActiveSizes)]
		res, err := rr.Run(RunSpec{Kernel: k, Config: config.Baseline()})
		if err != nil {
			return 0, err
		}
		return res.Counters.Cycles, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]SchedulerAblation, 0, len(kernels))
	for i, k := range kernels {
		row := SchedulerAblation{Benchmark: k.Name, CyclesByActive: make(map[int]int64)}
		for j, n := range SchedulerActiveSizes {
			row.CyclesByActive[n] = cells[i*len(SchedulerActiveSizes)+j]
		}
		out = append(out, row)
	}
	return out, nil
}
