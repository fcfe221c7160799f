// Benchmarks regenerating every table and figure of the paper's evaluation
// (Gebhart et al., MICRO 2012). Each benchmark runs the corresponding
// experiment end-to-end on the simulator and reports the headline numbers
// as custom metrics; run with -v to see the full table.
//
//	go test -bench=. -benchmem
//	go test -bench=Figure9 -v
package repro_test

import (
	"flag"
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/perfbench"
	"repro/internal/workloads"
)

// benchTables opts into logging each experiment's rendered table once
// per benchmark; by default -v output stays a clean metrics stream.
var benchTables = flag.Bool("benchtables", false, "log each benchmarked experiment's rendered table")

// benchExperiment runs a named experiment b.N times and reports the
// wall time of one end-to-end regeneration as a metric. The rendered
// table is logged once, and only under -benchtables.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := core.NewRunner()
		t, err := harness.Run(r, name)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && *benchTables {
			b.Log("\n" + t.String())
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "sec/experiment")
}

// BenchmarkCycleLoop measures the steady-state cost of one SM
// scheduling action (sm.Step) with a hot trace cache — the simulator's
// innermost loop. CI gates on allocs/op staying zero; see
// internal/perfbench for the shared measurement body.
func BenchmarkCycleLoop(b *testing.B) { perfbench.RunCycleLoop(b) }

// BenchmarkTable1 regenerates the 26-workload characterization: per-thread
// register demand, dynamic-instruction spill ratios at 18-64 registers,
// full-occupancy RF size, shared bytes/thread, and DRAM traffic at
// 0/64/256 KB of cache.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFigure2 regenerates performance versus register-file capacity
// for dgemm, pcr, needle, and bfs (lines: registers/thread; points:
// 256-1024 threads).
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "figure2") }

// BenchmarkFigure3 regenerates performance versus shared-memory capacity
// for needle, pcr, lu, and sto.
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "figure3") }

// BenchmarkFigure4 regenerates performance versus cache capacity
// (32-512 KB) for bfs, pcr, mummer, and needle.
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "figure4") }

// BenchmarkTable4 regenerates the SRAM bank access energies of both
// designs (the CACTI-derived Table 4 points).
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5 regenerates the bank-conflict breakdown (fraction of
// warp instructions by maximum accesses to one bank) for the partitioned
// and unified designs over the Figure 7 benchmarks.
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkFigure7 regenerates the no-benefit comparison: 18 benchmarks
// under the 384 KB unified design versus the equal-capacity partitioned
// baseline (the paper reports every change within about 1%).
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "figure7") }

// BenchmarkFigure8 regenerates the Section 4.5 allocation decisions: how
// 384 KB of unified memory is split for each benefit-set benchmark.
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "figure8") }

// BenchmarkFigure9 regenerates the benefit comparison (the paper's
// headline: 4-71% speedups, up to 33% energy reduction, up to 32% less
// DRAM traffic) and reports the needle speedup and geometric-mean speedup
// as metrics.
func BenchmarkFigure9(b *testing.B) {
	var needle, geomean float64
	for i := 0; i < b.N; i++ {
		r := core.NewRunner()
		comps, err := r.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		prod := 1.0
		for _, c := range comps {
			if c.Benchmark == "needle" {
				needle = c.PerfRatio
			}
			prod *= c.PerfRatio
		}
		geomean = math.Pow(prod, 1/float64(len(comps)))
		if i == 0 && *benchTables {
			t, err := harness.Run(r, "figure9")
			if err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + t.String())
		}
	}
	b.ReportMetric(needle, "needle-speedup")
	b.ReportMetric(geomean, "geomean-speedup")
}

// BenchmarkFigure10 regenerates the Fermi-like limited-flexibility
// comparison for the benefit set.
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "figure10") }

// BenchmarkTable6 regenerates capacity sensitivity: unified designs of
// 128/256/384 KB versus the baseline partitioned design.
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkFigure11 regenerates the needle blocking-factor tuning study.
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "figure11") }

// BenchmarkBaselineSM measures raw simulator throughput on the baseline
// configuration across the full benchmark registry (cycles simulated per
// wall-clock second).
func BenchmarkBaselineSM(b *testing.B) {
	kernels := workloads.All()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		r := core.NewRunner()
		for _, k := range kernels {
			res, err := r.Baseline(k)
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Counters.Cycles
		}
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkAblationScatter compares the simple single-bank-per-cluster
// unified design against the Section 4.2 aggressive scatter/gather
// variant (the paper measured +0.5% average and shipped the simple one).
func BenchmarkAblationScatter(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		r := core.NewRunner()
		rows, err := r.AblateScatter(workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		prod := 1.0
		for _, row := range rows {
			prod *= row.Speedup
		}
		avg = math.Pow(prod, 1/float64(len(rows)))
	}
	b.ReportMetric(avg, "aggressive-speedup")
}

// BenchmarkRepartitioning measures the Section 4.4 extension: a
// three-kernel application (register-, shared-, and cache-hungry) with
// per-kernel repartitioning versus a fixed baseline split.
func BenchmarkRepartitioning(b *testing.B) {
	var gain float64
	names := []string{"dgemm", "needle", "bfs"}
	for i := 0; i < b.N; i++ {
		r := core.NewRunner()
		var ks []*workloads.Kernel
		for _, n := range names {
			k, err := workloads.ByName(n)
			if err != nil {
				b.Fatal(err)
			}
			ks = append(ks, k)
		}
		flex, err := r.RunSequence(ks, config.BaselineTotalBytes)
		if err != nil {
			b.Fatal(err)
		}
		fixed, err := r.RunSequenceFixed(ks, config.Baseline())
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(fixed.Cycles) / float64(flex.Cycles)
	}
	b.ReportMetric(gain, "repartitioning-speedup")
}

// BenchmarkValidation runs the Section 5.1 methodology check: single-SM
// simulation versus a 4-SM chip sharing a channel-interleaved DRAM system.
func BenchmarkValidation(b *testing.B) { benchExperiment(b, "validation") }
