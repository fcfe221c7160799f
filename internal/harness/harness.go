// Package harness regenerates every table and figure of the paper as a
// rendered text table. It is the shared engine behind cmd/paper and the
// root-level benchmarks (bench_test.go): each registered experiment runs
// its internal/core driver and formats the driver's rows with the same
// rows and series the paper reports. The typed rows stay next to the
// rendered table, so the package's tests check the paper's claims on the
// same pass that renders the golden tables.
package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workloads"
)

// experiment pairs one internal/core driver with the table that renders
// its rows.
type experiment struct {
	name string
	run  func(*core.Runner) (rows any, t *report.Table, err error)
}

// rendered adapts a typed driver and its renderer to the registry's
// signature, keeping the driver's rows next to their rendering.
func rendered[R any](drive func(*core.Runner) (R, error), render func(R) *report.Table) func(*core.Runner) (any, *report.Table, error) {
	return func(r *core.Runner) (any, *report.Table, error) {
		rows, err := drive(r)
		if err != nil {
			return nil, nil, err
		}
		return rows, render(rows), nil
	}
}

// registry lists every experiment in presentation order.
var registry = []experiment{
	{"table1", rendered(func(r *core.Runner) ([]core.Table1Row, error) { return r.Table1(workloads.All()) }, table1)},
	{"figure2", rendered((*core.Runner).Figure2, sweeps("Figure 2: performance vs register file capacity (normalized to 64 regs, 1024 threads)", "regs/thread"))},
	{"figure3", rendered((*core.Runner).Figure3, sweeps("Figure 3: performance vs shared memory capacity (normalized to 1024 threads)", "-"))},
	{"figure4", rendered((*core.Runner).Figure4, sweeps("Figure 4: performance vs cache capacity (normalized to 512KB cache, 1024 threads)", "-"))},
	{"table4", rendered(func(*core.Runner) ([]core.Table4Row, error) { return core.Table4(), nil }, table4)},
	{"table5", rendered((*core.Runner).Table5, table5)},
	{"figure7", rendered((*core.Runner).Figure7, comparisons("Figure 7: unified (384KB) vs partitioned, applications with no benefit"))},
	{"figure8", rendered((*core.Runner).Figure8, figure8)},
	{"figure9", rendered((*core.Runner).Figure9, comparisons("Figure 9: unified (384KB) vs partitioned, applications that benefit"))},
	{"figure10", rendered((*core.Runner).Figure10, comparisons("Figure 10: Fermi-like limited design (384KB) vs partitioned"))},
	{"table6", rendered((*core.Runner).Table6, table6)},
	{"figure11", rendered((*core.Runner).Figure11, figure11)},
	{"validation", rendered(validate, validation)},
	{"ablation", rendered(func(r *core.Runner) ([]core.ScatterAblation, error) { return r.AblateScatter(workloads.All()) }, ablation)},
	{"multitenant", rendered(func(r *core.Runner) ([]core.MultitenantRow, error) {
		return r.Multitenant(core.MultitenantMixes(workloads.All()))
	}, multitenant)},
}

// Experiment names accepted by Run.
var Experiments = func() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}()

// Run regenerates one experiment by name.
func Run(r *core.Runner, name string) (*report.Table, error) {
	_, t, err := regenerate(r, name)
	return t, err
}

// regenerate runs one experiment's driver and returns its typed rows
// together with their rendering.
func regenerate(r *core.Runner, name string) (any, *report.Table, error) {
	for _, e := range registry {
		if e.name == name {
			return e.run(r)
		}
	}
	return nil, nil, fmt.Errorf("harness: unknown experiment %q (have %s)",
		name, strings.Join(Experiments, ", "))
}

// table1 renders the workload characterization.
func table1(rows []core.Table1Row) *report.Table {
	t := report.NewTable(
		"Table 1: workload characterization (dyn insts normalized to spill-free; DRAM normalized to 256KB cache)",
		"workload", "category", "regs", "dyn@18", "dyn@24", "dyn@32", "dyn@40", "dyn@64",
		"RF-full-occ", "shm B/thr", "dram@0", "dram@64K", "dram@256K")
	for _, row := range rows {
		t.AddRow(
			row.Name, row.Category.String(), fmt.Sprint(row.RegsPerThread),
			report.Ratio(row.DynInstRatio[0]), report.Ratio(row.DynInstRatio[1]),
			report.Ratio(row.DynInstRatio[2]), report.Ratio(row.DynInstRatio[3]),
			report.Ratio(row.DynInstRatio[4]),
			fmt.Sprintf("%dK", row.RFFullOccupancyKB),
			fmt.Sprintf("%.1f", row.SharedBytesPerThread),
			report.Ratio(row.DRAMNorm[0]), report.Ratio(row.DRAMNorm[1]),
			report.Ratio(row.DRAMNorm[2]))
	}
	return t
}

// sweeps renders a capacity-sweep figure: one row per (benchmark,
// point), with infeasible points marked.
func sweeps(title, lineLabel string) func([]core.FigureSweep) *report.Table {
	return func(sweeps []core.FigureSweep) *report.Table {
		t := report.NewTable(title, "benchmark", lineLabel, "threads", "capacity", "norm perf")
		for _, sw := range sweeps {
			for _, p := range sw.Points {
				t.AddRow(sw.Benchmark, fmt.Sprint(p.Regs), fmt.Sprint(p.Threads),
					fmt.Sprintf("%dK", p.CapacityKB), sweepPerf(p))
			}
		}
		return t
	}
}

// sweepPerf formats one sweep point's normalized performance.
func sweepPerf(p core.SweepPoint) string {
	if p.Infeasible {
		return "infeasible"
	}
	return report.Ratio(p.Perf)
}

// table4 renders SRAM bank access energies.
func table4(rows []core.Table4Row) *report.Table {
	t := report.NewTable("Table 4: energy per 16-byte SRAM bank access (32nm)",
		"structure", "bank size", "read (pJ)", "write (pJ)")
	for _, row := range rows {
		t.AddRow(row.Structure, fmt.Sprintf("%dK", row.BankKB),
			fmt.Sprintf("%.1f", row.ReadPJ), fmt.Sprintf("%.1f", row.WritePJ))
	}
	return t
}

// table5 renders the bank-conflict breakdown.
func table5(rows []core.ConflictRow) *report.Table {
	t := report.NewTable("Table 5: warp instructions by max accesses to a single bank (Figure 7 benchmarks)",
		"design", "<=1", "2", "3", "4", ">4")
	for _, row := range rows {
		t.AddRow(row.Machine,
			report.Percent(row.Fractions[0]), report.Percent(row.Fractions[1]),
			report.Percent(row.Fractions[2]), report.Percent(row.Fractions[3]),
			report.Percent(row.Fractions[4]))
	}
	return t
}

// NewComparisonTable returns an empty baseline-comparison table with
// the canonical Figure 7/9/10 columns. Callers that need per-row
// control (e.g. infeasible markers in campaign tables) pair it with
// ComparisonRow.
func NewComparisonTable(title string) *report.Table {
	return report.NewTable(title,
		"benchmark", "perf (x)", "energy (x)", "dram (x)", "threads", "rf", "shared", "cache")
}

// ComparisonRow formats one comparison for NewComparisonTable.
func ComparisonRow(c core.Comparison) []string {
	return []string{c.Benchmark, report.Ratio(c.PerfRatio), report.Ratio(c.EnergyRatio),
		report.Ratio(c.DRAMRatio), fmt.Sprint(c.Threads),
		report.KB(c.Config.RFBytes), report.KB(c.Config.SharedBytes),
		report.KB(c.Config.CacheBytes)}
}

// comparisons renders machine-versus-baseline comparisons under title:
// the Figure 7/9/10 rendering.
func comparisons(title string) func([]core.Comparison) *report.Table {
	return func(comps []core.Comparison) *report.Table {
		t := NewComparisonTable(title)
		for _, c := range comps {
			t.AddRow(ComparisonRow(c)...)
		}
		return t
	}
}

// figure8 renders the chosen unified partitionings.
func figure8(rows []core.Figure8Row) *report.Table {
	t := report.NewTable("Figure 8: unified memory allocation chosen per benchmark (384KB)",
		"benchmark", "rf", "shared", "cache", "threads")
	for _, row := range rows {
		t.AddRow(row.Benchmark, fmt.Sprintf("%dK", row.RFKB), fmt.Sprintf("%dK", row.SharedKB),
			fmt.Sprintf("%dK", row.CacheKB), fmt.Sprint(row.Threads))
	}
	return t
}

// table6 renders capacity sensitivity.
func table6(rows []core.Table6Row) *report.Table {
	t := report.NewTable("Table 6: unified capacity sensitivity (normalized to baseline partitioned)",
		"benchmark", "perf@128K", "perf@256K", "perf@384K", "energy@128K", "energy@256K", "energy@384K")
	for _, row := range rows {
		cell := func(v float64, infeasible bool) string {
			if infeasible {
				return "n/a"
			}
			return report.Ratio(v)
		}
		t.AddRow(row.Benchmark,
			cell(row.Perf[0], row.Infeasible[0]), cell(row.Perf[1], row.Infeasible[1]),
			cell(row.Perf[2], row.Infeasible[2]),
			cell(row.Energy[0], row.Infeasible[0]), cell(row.Energy[1], row.Infeasible[1]),
			cell(row.Energy[2], row.Infeasible[2]))
	}
	return t
}

// figure11 renders the needle blocking-factor study.
func figure11(sweeps []core.FigureSweep) *report.Table {
	t := report.NewTable("Figure 11: needle performance vs shared memory capacity by blocking factor",
		"variant", "threads", "shared", "norm perf")
	for _, sw := range sweeps {
		for _, p := range sw.Points {
			t.AddRow(sw.Benchmark, fmt.Sprint(p.Threads), fmt.Sprintf("%dK", p.CapacityKB), sweepPerf(p))
		}
	}
	return t
}

// ValidationBenchmarks are the kernels used for the Section 5.1
// methodology check (a spread of memory behaviours; the full registry
// would take minutes on a multi-SM chip).
var ValidationBenchmarks = []string{"vectoradd", "needle", "pcr", "sto", "hotspot"}

// ValidationSMs is the chip size used for the methodology check.
const ValidationSMs = 4

// validate runs the single-SM-vs-chip methodology comparison.
func validate(r *core.Runner) ([]core.MethodologyRow, error) {
	var kernels []*workloads.Kernel
	for _, name := range ValidationBenchmarks {
		k, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		kernels = append(kernels, k)
	}
	return r.ValidateMethodology(kernels, ValidationSMs)
}

// validation renders the single-SM-vs-chip methodology comparison.
func validation(rows []core.MethodologyRow) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Methodology validation (§5.1): single-SM simulation vs %d-SM chip with shared DRAM", ValidationSMs),
		"benchmark", "single-SM cycles", "chip mean cycles", "deviation")
	for _, row := range rows {
		t.AddRow(row.Benchmark, fmt.Sprint(row.SingleSMCycles),
			fmt.Sprintf("%.0f", row.ChipMeanCycles), report.Percent(row.Deviation))
	}
	return t
}

// ablation renders the Section 4.2 simple-vs-aggressive scatter design
// comparison over the full registry.
func ablation(rows []core.ScatterAblation) *report.Table {
	t := report.NewTable(
		"Ablation (§4.2): aggressive multi-bank scatter/gather vs simple unified design",
		"benchmark", "speedup", "conflict cycles (simple)", "conflict cycles (aggressive)")
	for _, row := range rows {
		t.AddRow(row.Benchmark, fmt.Sprintf("%.4f", row.Speedup),
			fmt.Sprint(row.ConflictCyclesSimple), fmt.Sprint(row.ConflictCyclesAggressive))
	}
	return t
}

// multitenant renders the concurrent-kernel co-tenancy study: every
// adjacent registry pair and quad runs as one multi-tenant mix under
// the three designs, with the partitioned baseline as the 1.00
// reference. Unified and Fermi capacities partition the baseline's
// 384 KB jointly for the whole mix.
func multitenant(rows []core.MultitenantRow) *report.Table {
	t := report.NewTable(
		"Multi-tenant co-tenancy: partitioned vs unified (384KB) vs Fermi-like (384KB), joint runs",
		"mix", "ways", "part cycles", "uni perf (x)", "uni energy (x)", "fermi perf (x)", "fermi energy (x)")
	cell := func(v float64, infeasible bool) string {
		if infeasible {
			return "infeasible"
		}
		return report.Ratio(v)
	}
	for _, row := range rows {
		part := fmt.Sprint(row.PartCycles)
		if row.PartInfeasible {
			part = "infeasible"
		}
		inf := row.PartInfeasible
		t.AddRow(row.Mix, fmt.Sprint(row.Ways), part,
			cell(row.UnifiedPerf, inf || row.UnifiedInfeasible),
			cell(row.UnifiedEnergy, inf || row.UnifiedInfeasible),
			cell(row.FermiPerf, inf || row.FermiInfeasible),
			cell(row.FermiEnergy, inf || row.FermiInfeasible))
	}
	return t
}

// ChartableExperiments lists experiments Chart can render as plots.
var ChartableExperiments = []string{"figure2", "figure3", "figure4", "figure11"}

// chartAxes labels each chartable experiment's x axis and says whether
// it plots one series per benchmark on a single chart.
var chartAxes = map[string]struct {
	xLabel             string
	perBenchmarkSeries bool
}{
	"figure2":  {"RF capacity (KB)", false},
	"figure3":  {"shared memory (KB)", true},
	"figure4":  {"cache capacity (KB)", false},
	"figure11": {"shared memory (KB)", true},
}

// Chart renders a capacity-sweep experiment as ASCII charts (one per
// benchmark for the multi-benchmark figures).
func Chart(r *core.Runner, name string) (string, error) {
	if _, ok := chartAxes[name]; !ok {
		return "", fmt.Errorf("harness: experiment %q is not chartable (have %s)",
			name, strings.Join(ChartableExperiments, ", "))
	}
	rows, _, err := regenerate(r, name)
	if err != nil {
		return "", err
	}
	return chart(name, rows.([]core.FigureSweep)), nil
}

// chart plots one chartable experiment's sweeps.
func chart(name string, sweeps []core.FigureSweep) string {
	axes := chartAxes[name]
	if axes.perBenchmarkSeries {
		// One chart, one series per benchmark/variant.
		ch := report.NewChart(name+": normalized performance", axes.xLabel, "perf")
		for _, sw := range sweeps {
			var xs, ys []float64
			for _, p := range sw.Points {
				if p.Infeasible {
					continue
				}
				xs = append(xs, float64(p.CapacityKB))
				ys = append(ys, p.Perf)
			}
			ch.AddSeries(sw.Benchmark, xs, ys)
		}
		return ch.String()
	}
	// One chart per benchmark, one series per line (regs or threads).
	var b strings.Builder
	for _, sw := range sweeps {
		ch := report.NewChart(fmt.Sprintf("%s: %s", name, sw.Benchmark), axes.xLabel, "perf")
		series := map[int]struct{ xs, ys []float64 }{}
		var keys []int
		lineOf := func(p core.SweepPoint) int {
			if name == "figure2" {
				return p.Regs
			}
			return p.Threads
		}
		for _, p := range sw.Points {
			if p.Infeasible {
				continue
			}
			k := lineOf(p)
			s := series[k]
			s.xs = append(s.xs, float64(p.CapacityKB))
			s.ys = append(s.ys, p.Perf)
			if len(s.xs) == 1 {
				keys = append(keys, k)
			}
			series[k] = s
		}
		for _, k := range keys {
			label := fmt.Sprintf("%d regs", k)
			if name != "figure2" {
				label = fmt.Sprintf("%d threads", k)
			}
			ch.AddSeries(label, series[k].xs, series[k].ys)
		}
		b.WriteString(ch.String())
		b.WriteByte('\n')
	}
	return b.String()
}
