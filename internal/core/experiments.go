package core

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/occupancy"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// SpillBudgets are the register allocations of Table 1 columns 3-7.
var SpillBudgets = []int{18, 24, 32, 40, 64}

// Table1CacheSizes are the cache capacities of Table 1 columns 10-12.
var Table1CacheSizes = []int{0, 64 << 10, 256 << 10}

// Table1Row is one benchmark's characterization (Table 1).
type Table1Row struct {
	Name     string
	Category workloads.Category
	// RegsPerThread is the spill-free register demand (column 2).
	RegsPerThread int
	// DynInstRatio[i] is dynamic instructions with SpillBudgets[i]
	// registers, normalized to the spill-free count (columns 3-7).
	DynInstRatio [5]float64
	// RFFullOccupancyKB is column 8.
	RFFullOccupancyKB int
	// SharedBytesPerThread is column 9.
	SharedBytesPerThread float64
	// DRAMNorm[i] is DRAM traffic with Table1CacheSizes[i] of cache,
	// normalized to the 256 KB point (columns 10-12).
	DRAMNorm [3]float64
}

// Table1 regenerates the workload characterization for the given kernels,
// one kernel per parallel work item.
func (r *Runner) Table1(kernels []*workloads.Kernel) ([]Table1Row, error) {
	return parallel.Map(len(kernels), func(i int) (Table1Row, error) {
		k := kernels[i]
		row := Table1Row{
			Name:                 k.Name,
			Category:             k.Category,
			RegsPerThread:        k.RegsNeeded,
			RFFullOccupancyKB:    occupancy.FullOccupancyRFBytes(k.RegsNeeded) >> 10,
			SharedBytesPerThread: k.SharedBytesPerThread(),
		}
		// Dynamic-instruction ratios come from trace generation alone:
		// spills are inserted by the register allocator, not the timing
		// model. Sample a few CTAs; the ratio is CTA-invariant.
		base := r.dynInsts(k, 0)
		for j, budget := range SpillBudgets {
			row.DynInstRatio[j] = float64(r.dynInsts(k, budget)) / float64(base)
		}
		// DRAM traffic under the Section 3.3 isolation config (spill-free
		// registers, unbounded shared memory) at each cache size.
		var dram [3]int64
		for j, cb := range Table1CacheSizes {
			cfg := IsolationConfig(k, occupancy.FullOccupancyRFBytes(k.RegsNeeded), cb, 0)
			res, err := r.Run(RunSpec{Kernel: k, Config: cfg})
			if err != nil {
				return row, fmt.Errorf("table1 %s cache=%d: %w", k.Name, cb, err)
			}
			dram[j] = res.Counters.DRAMBytes()
		}
		for j := range dram {
			row.DRAMNorm[j] = float64(dram[j]) / float64(dram[2])
		}
		return row, nil
	})
}

// dynInsts counts warp instructions in a sample of the kernel's trace
// under a register budget (0 = spill free).
func (r *Runner) dynInsts(k *workloads.Kernel, budget int) int64 {
	if budget >= k.RegsNeeded {
		budget = 0
	}
	src := &workloads.Source{K: k, RegsAvail: budget, Seed: r.Seed}
	ctas := k.GridCTAs
	if ctas > 4 {
		ctas = 4
	}
	var n int64
	for cta := 0; cta < ctas; cta++ {
		for w := 0; w < k.WarpsPerCTA(); w++ {
			n += int64(len(src.WarpTrace(cta, w)))
		}
	}
	return n
}

// SweepPoint is one point of a Section 3.3 capacity sweep.
type SweepPoint struct {
	// Regs is the per-thread register allocation of this line.
	Regs int
	// Threads is the resident-thread cap of this point.
	Threads int
	// CapacityKB is the swept capacity (RF, shared, or cache).
	CapacityKB int
	// Perf is performance normalized to the sweep's reference point.
	Perf float64
	// Infeasible marks configurations that cannot run (e.g. one CTA does
	// not fit); Perf is 0 for these.
	Infeasible bool
}

// FigureSweep is one benchmark's set of sweep lines.
type FigureSweep struct {
	Benchmark string
	Points    []SweepPoint
}

// Figure2Benchmarks are the register-capacity case studies.
var Figure2Benchmarks = []string{"dgemm", "pcr", "needle", "bfs"}

// ThreadSweep is the 256..1024 resident-thread axis of Figures 2-4.
var ThreadSweep = []int{256, 512, 768, 1024}

// Figure2 reproduces the performance-versus-register-file-capacity study:
// lines are registers/thread from SpillBudgets, points are thread counts,
// cache is fixed at 64 KB and shared memory is unbounded. Performance is
// normalized to (64 regs, 1024 threads). All (benchmark, regs, threads)
// points run as one flat parallel batch.
func (r *Runner) Figure2() ([]FigureSweep, error) {
	kernels, err := kernelsByName(Figure2Benchmarks)
	if err != nil {
		return nil, err
	}
	perBench := len(SpillBudgets) * len(ThreadSweep)
	points, err := parallel.Map(len(kernels)*perBench, func(i int) (SweepPoint, error) {
		k := kernels[i/perBench]
		regs := SpillBudgets[i%perBench/len(ThreadSweep)]
		threads := ThreadSweep[i%len(ThreadSweep)]
		eff := regs
		if eff > k.RegsNeeded {
			eff = k.RegsNeeded
		}
		rf := eff * 4 * threads
		cfg := IsolationConfig(k, rf, 64<<10, threads)
		res, err := r.Run(RunSpec{Kernel: k, Config: cfg, RegsPerThread: eff})
		pt := SweepPoint{Regs: regs, Threads: threads, CapacityKB: rf >> 10}
		switch {
		case IsInfeasible(err):
			pt.Infeasible = true
		case err != nil:
			return pt, err
		default:
			pt.Perf = res.Performance()
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return groupSweeps(kernels, points, perBench, func(p SweepPoint) bool {
		return p.Regs == 64 && p.Threads == 1024
	}), nil
}

// kernelsByName resolves a benchmark name list, failing on the first
// unknown name as the serial loops did.
func kernelsByName(names []string) ([]*workloads.Kernel, error) {
	out := make([]*workloads.Kernel, len(names))
	for i, name := range names {
		k, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}

// groupSweeps slices a flat per-benchmark-major point batch back into one
// FigureSweep per kernel, normalizing each to its reference point (the
// feasible point isRef selects).
func groupSweeps(kernels []*workloads.Kernel, points []SweepPoint, perBench int,
	isRef func(SweepPoint) bool) []FigureSweep {
	out := make([]FigureSweep, 0, len(kernels))
	for b, k := range kernels {
		sweep := FigureSweep{Benchmark: k.Name, Points: points[b*perBench : (b+1)*perBench]}
		ref := 0.0
		for _, p := range sweep.Points {
			if !p.Infeasible && isRef(p) {
				ref = p.Perf
			}
		}
		normalize(sweep.Points, ref)
		out = append(out, sweep)
	}
	return out
}

// Figure3Benchmarks are the shared-memory-capacity case studies.
var Figure3Benchmarks = []string{"needle", "pcr", "lu", "sto"}

// Figure3 reproduces performance versus shared-memory capacity: spill-free
// registers, 64 KB cache, shared memory sized exactly for each resident
// thread count. Normalized to 1024 threads.
func (r *Runner) Figure3() ([]FigureSweep, error) {
	kernels, err := kernelsByName(Figure3Benchmarks)
	if err != nil {
		return nil, err
	}
	perBench := len(ThreadSweep)
	points, err := parallel.Map(len(kernels)*perBench, func(i int) (SweepPoint, error) {
		k := kernels[i/perBench]
		threads := ThreadSweep[i%perBench]
		ctas := threads / k.ThreadsPerCTA
		if ctas < 1 {
			ctas = 1
		}
		shm := ctas * k.SharedBytesPerCTA
		cfg := config.MemConfig{
			Design:      config.Partitioned,
			RFBytes:     occupancy.FullOccupancyRFBytes(k.RegsNeeded),
			SharedBytes: shm,
			CacheBytes:  64 << 10,
			MaxThreads:  threads,
		}
		res, err := r.Run(RunSpec{Kernel: k, Config: cfg})
		pt := SweepPoint{Threads: threads, CapacityKB: shm >> 10}
		switch {
		case IsInfeasible(err):
			pt.Infeasible = true
		case err != nil:
			return pt, err
		default:
			pt.Perf = res.Performance()
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return groupSweeps(kernels, points, perBench, func(p SweepPoint) bool {
		return p.Threads == 1024
	}), nil
}

// Figure4Benchmarks are the cache-capacity case studies.
var Figure4Benchmarks = []string{"bfs", "pcr", "mummer", "needle"}

// Figure4CacheSizes is the swept cache capacity axis.
var Figure4CacheSizes = []int{32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}

// Figure4 reproduces performance versus cache capacity: spill-free
// registers, unbounded shared memory, lines are thread counts. Normalized
// to (512 KB cache, 1024 threads).
func (r *Runner) Figure4() ([]FigureSweep, error) {
	kernels, err := kernelsByName(Figure4Benchmarks)
	if err != nil {
		return nil, err
	}
	perBench := len(ThreadSweep) * len(Figure4CacheSizes)
	points, err := parallel.Map(len(kernels)*perBench, func(i int) (SweepPoint, error) {
		k := kernels[i/perBench]
		threads := ThreadSweep[i%perBench/len(Figure4CacheSizes)]
		cb := Figure4CacheSizes[i%len(Figure4CacheSizes)]
		cfg := IsolationConfig(k, occupancy.FullOccupancyRFBytes(k.RegsNeeded), cb, threads)
		res, err := r.Run(RunSpec{Kernel: k, Config: cfg})
		pt := SweepPoint{Threads: threads, CapacityKB: cb >> 10}
		switch {
		case IsInfeasible(err):
			pt.Infeasible = true
		case err != nil:
			return pt, err
		default:
			pt.Perf = res.Performance()
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return groupSweeps(kernels, points, perBench, func(p SweepPoint) bool {
		return p.Threads == 1024 && p.CapacityKB == 512
	}), nil
}

// normalize rescales sweep points by the reference performance.
func normalize(pts []SweepPoint, ref float64) {
	if ref == 0 {
		return
	}
	for i := range pts {
		pts[i].Perf /= ref
	}
}

// Comparison is one benchmark's unified-versus-partitioned outcome
// (Figures 7, 9, 10 and Table 6).
type Comparison struct {
	Benchmark string
	// Config is the flexible design's resolved configuration.
	Config config.MemConfig
	// Threads is the resident thread count under the flexible design.
	Threads int
	// PerfRatio is flexible performance / baseline performance
	// (higher is better).
	PerfRatio float64
	// EnergyRatio is flexible energy / baseline energy (lower is better).
	EnergyRatio float64
	// DRAMRatio is flexible DRAM traffic / baseline (lower is better).
	DRAMRatio float64
}

// NamedMachine pairs a display name with the rule deriving a kernel's
// memory configuration under that machine. The rule is per-kernel
// because the paper's flexible designs are: the §4.5 allocator and the
// Fermi-like preset chooser size RF/shared/cache from each kernel's
// requirements, while fixed machines ignore the kernel entirely.
type NamedMachine struct {
	Name      string
	Configure func(k *workloads.Kernel) (config.MemConfig, error)
}

// MachineSet is an ordered list of named machines — the generalization
// of the hardcoded partitioned/unified/fermi-like tuple that the
// experiment drivers and the campaign layer iterate over.
type MachineSet []NamedMachine

// FixedMachine is a machine with one configuration for every kernel.
func FixedMachine(name string, cfg config.MemConfig) NamedMachine {
	return NamedMachine{Name: name, Configure: func(*workloads.Kernel) (config.MemConfig, error) {
		return cfg, nil
	}}
}

// BaselineMachine is the paper's partitioned baseline (Table 2).
func BaselineMachine() NamedMachine {
	return FixedMachine(config.Partitioned.String(), config.Baseline())
}

// UnifiedMachine applies the §4.5 allocation of a unified memory of
// totalBytes per kernel.
func UnifiedMachine(name string, totalBytes int) NamedMachine {
	return NamedMachine{Name: name, Configure: func(k *workloads.Kernel) (config.MemConfig, error) {
		cfg, err := config.Allocate(totalBytes, 0, k.Requirements())
		if err != nil {
			return config.MemConfig{}, fmt.Errorf("allocate %s: %w", k.Name, err)
		}
		return cfg, nil
	}}
}

// FermiMachine applies the Fermi-like limited design of totalBytes per
// kernel: a fixed 256 KB register file plus the better of the two
// preset shared/cache splits.
func FermiMachine(name string, totalBytes int) NamedMachine {
	return NamedMachine{Name: name, Configure: func(k *workloads.Kernel) (config.MemConfig, error) {
		return config.ChooseFermi(totalBytes-config.BaselineRFBytes, 0, k.Requirements()), nil
	}}
}

// CompareUnified runs a kernel under the Section 4.5 allocation of a
// unified memory of totalBytes and compares it with the kernel's baseline
// partitioned run.
func (r *Runner) CompareUnified(k *workloads.Kernel, totalBytes int) (Comparison, error) {
	cfg, err := UnifiedMachine(config.Unified.String(), totalBytes).Configure(k)
	if err != nil {
		return Comparison{}, err
	}
	return r.compare(k, cfg)
}

// CompareFermi runs a kernel under the Fermi-like limited design (fixed
// 256 KB register file, shared/cache split chosen per kernel from two
// presets) and compares with baseline.
func (r *Runner) CompareFermi(k *workloads.Kernel, totalBytes int) (Comparison, error) {
	cfg, err := FermiMachine(config.FermiLike.String(), totalBytes).Configure(k)
	if err != nil {
		return Comparison{}, err
	}
	return r.compare(k, cfg)
}

func (r *Runner) compare(k *workloads.Kernel, cfg config.MemConfig) (Comparison, error) {
	base, err := r.Baseline(k)
	if err != nil {
		return Comparison{}, err
	}
	res, err := r.Run(RunSpec{Kernel: k, Config: cfg})
	if err != nil {
		return Comparison{}, fmt.Errorf("%s under %v: %w", k.Name, cfg, err)
	}
	return Comparison{
		Benchmark:   k.Name,
		Config:      cfg,
		Threads:     res.Occupancy.Threads,
		PerfRatio:   float64(base.Counters.Cycles) / float64(res.Counters.Cycles),
		EnergyRatio: res.Energy.Total() / base.Energy.Total(),
		DRAMRatio:   float64(res.Counters.DRAMBytes()) / float64(base.Counters.DRAMBytes()),
	}, nil
}

// Figure7 compares the 384 KB unified design against the equal-capacity
// partitioned baseline for the no-benefit set; the paper's result is that
// every change stays within about 1%.
func (r *Runner) Figure7() ([]Comparison, error) {
	return r.CompareMachine(workloads.NoBenefitSet(),
		UnifiedMachine(config.Unified.String(), config.BaselineTotalBytes))
}

// Figure9 is the same comparison for the benefit set (gains of 4-71%).
func (r *Runner) Figure9() ([]Comparison, error) {
	return r.CompareMachine(workloads.BenefitSet(),
		UnifiedMachine(config.Unified.String(), config.BaselineTotalBytes))
}

// Figure10 compares the Fermi-like limited-flexibility design for the
// benefit set.
func (r *Runner) Figure10() ([]Comparison, error) {
	return r.CompareMachine(workloads.BenefitSet(),
		FermiMachine(config.FermiLike.String(), config.BaselineTotalBytes))
}

// CompareMachine compares every kernel against its partitioned baseline
// run under one named machine, fanned out across the parallel engine in
// kernel order.
func (r *Runner) CompareMachine(ks []*workloads.Kernel, m NamedMachine) ([]Comparison, error) {
	return parallel.Map(len(ks), func(i int) (Comparison, error) {
		cfg, err := m.Configure(ks[i])
		if err != nil {
			return Comparison{}, err
		}
		return r.compare(ks[i], cfg)
	})
}

// Figure8Row is one benchmark's chosen partitioning of the 384 KB unified
// memory (Figure 8).
type Figure8Row struct {
	Benchmark               string
	RFKB, SharedKB, CacheKB int
	Threads                 int
}

// Figure8 reports how the Section 4.5 algorithm divides 384 KB for the
// benefit set.
func (r *Runner) Figure8() ([]Figure8Row, error) {
	var out []Figure8Row
	for _, k := range workloads.BenefitSet() {
		cfg, err := config.Allocate(config.BaselineTotalBytes, 0, k.Requirements())
		if err != nil {
			return nil, err
		}
		out = append(out, Figure8Row{
			Benchmark: k.Name,
			RFKB:      cfg.RFBytes >> 10,
			SharedKB:  cfg.SharedBytes >> 10,
			CacheKB:   cfg.CacheBytes >> 10,
			Threads:   cfg.MaxThreads,
		})
	}
	return out, nil
}

// ConflictRow is the bank-conflict breakdown of one named machine
// (Table 5).
type ConflictRow struct {
	Machine   string
	Fractions [stats.ConflictBuckets]float64
}

// Table5 aggregates the per-instruction maximum-bank-accesses histogram
// across the Figure 7 benchmarks for the partitioned and unified
// designs.
func (r *Runner) Table5() ([]ConflictRow, error) {
	set := MachineSet{
		BaselineMachine(),
		UnifiedMachine(config.Unified.String(), config.BaselineTotalBytes),
	}
	return r.ConflictBreakdown(set, workloads.NoBenefitSet())
}

// ConflictBreakdown aggregates the per-instruction maximum-bank-accesses
// histogram across the kernels for every machine of the set, weighting
// benchmarks equally as the paper averages. The (machine, kernel) runs
// form one flat parallel batch; aggregation stays in kernel order.
func (r *Runner) ConflictBreakdown(set MachineSet, kernels []*workloads.Kernel) ([]ConflictRow, error) {
	fracs, err := parallel.Map(len(set)*len(kernels),
		func(i int) ([stats.ConflictBuckets]float64, error) {
			m := set[i/len(kernels)]
			k := kernels[i%len(kernels)]
			cfg, err := m.Configure(k)
			if err != nil {
				return [stats.ConflictBuckets]float64{}, err
			}
			var res *Result
			if cfg == config.Baseline() {
				// The baseline run doubles as the energy calibration and
				// is cached on the Runner.
				res, err = r.Baseline(k)
			} else {
				res, err = r.Run(RunSpec{Kernel: k, Config: cfg})
			}
			if err != nil {
				return [stats.ConflictBuckets]float64{}, err
			}
			return res.Counters.ConflictFractions(), nil
		})
	if err != nil {
		return nil, err
	}
	out := make([]ConflictRow, len(set))
	for i, m := range set {
		var agg stats.Counters
		for _, frac := range fracs[i*len(kernels) : (i+1)*len(kernels)] {
			for b := range frac {
				// Weight benchmarks equally, as the paper averages.
				agg.ConflictHist[b] += int64(frac[b] * 1e6)
			}
		}
		row := ConflictRow{Machine: m.Name}
		total := int64(0)
		for _, v := range agg.ConflictHist {
			total += v
		}
		for b, v := range agg.ConflictHist {
			row.Fractions[b] = float64(v) / float64(total)
		}
		out[i] = row
	}
	return out, nil
}

// Table6Capacities are the unified-memory capacities of Table 6.
var Table6Capacities = []int{128 << 10, 256 << 10, 384 << 10}

// Table6Row is one benchmark's capacity-sensitivity row.
type Table6Row struct {
	Benchmark string
	// Perf[i] and Energy[i] are normalized to the baseline partitioned
	// design, for Table6Capacities[i].
	Perf   [3]float64
	Energy [3]float64
	// Infeasible[i] marks capacities the kernel cannot fit.
	Infeasible [3]bool
}

// Table6 evaluates unified-memory capacity sensitivity for the benefit
// set plus an average row for the Figure 7 set. Rows are independent and
// run in parallel; within a row the geomean products keep kernel order so
// the floating-point result is identical to the serial loop's.
func (r *Runner) Table6() ([]Table6Row, error) {
	type rowSpec struct {
		label   string
		kernels []*workloads.Kernel
	}
	var specs []rowSpec
	for _, k := range workloads.BenefitSet() {
		specs = append(specs, rowSpec{k.Name, []*workloads.Kernel{k}})
	}
	specs = append(specs,
		rowSpec{"average (benefit)", workloads.BenefitSet()},
		rowSpec{"figure-7 set (average)", workloads.NoBenefitSet()})
	return parallel.Map(len(specs), func(s int) (Table6Row, error) {
		row := Table6Row{Benchmark: specs[s].label}
		for i, total := range Table6Capacities {
			perfProd, energyProd, n := 1.0, 1.0, 0
			for _, k := range specs[s].kernels {
				c, err := r.CompareUnified(k, total)
				if IsInfeasible(err) {
					row.Infeasible[i] = true
					continue
				}
				if err != nil {
					return row, err
				}
				perfProd *= c.PerfRatio
				energyProd *= c.EnergyRatio
				n++
			}
			if n > 0 {
				row.Perf[i] = geomean(perfProd, n)
				row.Energy[i] = geomean(energyProd, n)
			}
		}
		return row, nil
	})
}

func geomean(prod float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// Figure11Point is one (blocking factor, thread count) needle measurement.
type Figure11Point struct {
	BF         int
	Threads    int
	SharedKB   int
	Perf       float64
	Infeasible bool
}

// Figure11BlockingFactors are the needle variants of the tuning study.
var Figure11BlockingFactors = []int{16, 32, 64}

// Figure11 reproduces the needle blocking-factor study: for each BF, sweep
// resident threads and report performance against the shared-memory
// capacity each point requires. Performance is normalized to the best
// point observed (the paper normalizes to its largest configuration).
func (r *Runner) Figure11() ([]FigureSweep, error) {
	// The thread axis depends on each variant's CTA size, so enumerate the
	// (kernel, threads) jobs first, then run them as one parallel batch.
	type job struct {
		k       *workloads.Kernel
		sweep   int
		threads int
	}
	var jobs []job
	sweeps := make([]FigureSweep, len(Figure11BlockingFactors))
	for i, bf := range Figure11BlockingFactors {
		k := workloads.NeedleKernel(bf)
		sweeps[i].Benchmark = fmt.Sprintf("needle BF=%d", bf)
		for threads := k.ThreadsPerCTA; threads <= config.MaxThreadsPerSM; threads += 2 * k.ThreadsPerCTA {
			jobs = append(jobs, job{k: k, sweep: i, threads: threads})
		}
	}
	points, err := parallel.Map(len(jobs), func(i int) (SweepPoint, error) {
		j := jobs[i]
		ctas := j.threads / j.k.ThreadsPerCTA
		shm := ctas * j.k.SharedBytesPerCTA
		cfg := config.MemConfig{
			Design:      config.Partitioned,
			RFBytes:     occupancy.FullOccupancyRFBytes(j.k.RegsNeeded),
			SharedBytes: shm,
			CacheBytes:  64 << 10,
			MaxThreads:  j.threads,
		}
		res, err := r.Run(RunSpec{Kernel: j.k, Config: cfg})
		pt := SweepPoint{Regs: j.k.BF, Threads: j.threads, CapacityKB: shm >> 10}
		switch {
		case IsInfeasible(err):
			pt.Infeasible = true
		case err != nil:
			return pt, err
		default:
			pt.Perf = res.Performance()
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	best := 0.0
	for _, pt := range points {
		if !pt.Infeasible && pt.Perf > best {
			best = pt.Perf
		}
	}
	for i, pt := range points {
		sweeps[jobs[i].sweep].Points = append(sweeps[jobs[i].sweep].Points, pt)
	}
	for i := range sweeps {
		normalize(sweeps[i].Points, best)
	}
	return sweeps, nil
}

// Table4Row is one bank energy entry (Table 4).
type Table4Row struct {
	Structure string
	BankKB    int
	ReadPJ    float64
	WritePJ   float64
}

// Table4 reports the SRAM bank access energies of both designs.
func Table4() []Table4Row {
	entries := []struct {
		structure string
		bankBytes int
	}{
		{"256KB RF (partitioned)", 8 << 10},
		{"64KB shared (partitioned)", 2 << 10},
		{"64KB cache (partitioned)", 2 << 10},
		{"384KB unified", 12 << 10},
	}
	out := make([]Table4Row, 0, len(entries))
	for _, e := range entries {
		rd, wr := energy.BankEnergy(e.bankBytes)
		out = append(out, Table4Row{
			Structure: e.structure,
			BankKB:    e.bankBytes >> 10,
			ReadPJ:    rd,
			WritePJ:   wr,
		})
	}
	return out
}

// MRFFraction returns the fraction of register-operand accesses served by
// the MRF in a kernel's baseline run — the two-level hierarchy headline
// (~40%, i.e. a 60% reduction).
func (r *Runner) MRFFraction(k *workloads.Kernel) (float64, error) {
	res, err := r.Baseline(k)
	if err != nil {
		return 0, err
	}
	return res.Counters.MRFAccessFraction(), nil
}
