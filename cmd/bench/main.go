// Command bench measures the simulator's tracked performance numbers —
// the cycle-loop microbenchmark (ns and allocs per sm.Step) and the
// end-to-end wall time of every paper experiment — and writes them to a
// JSON artifact (BENCH_results.json by convention). The numbers are only
// comparable between runs on the same host, so the tool records them and
// never divides by a number measured elsewhere.
//
// Examples:
//
//	bench                               # full measurement, write BENCH_results.json
//	bench -o /tmp/now.json -j 4         # custom output path and worker count
//	bench -skip-suite                   # microbenchmark only (fast)
//	bench figure2 figure9               # selected experiments only
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/parallel"
	"repro/internal/perfbench"
)

func main() {
	var (
		out  = flag.String("o", "BENCH_results.json", "output JSON path (empty: stdout summary only)")
		jobs = flag.Int("j", runtime.NumCPU(), "parallel simulation workers for the suite")
		skip = flag.Bool("skip-suite", false, "measure only the cycle-loop microbenchmark")
	)
	flag.Parse()
	parallel.SetWorkers(*jobs)

	var (
		res *perfbench.Results
		err error
	)
	if *skip {
		res = &perfbench.Results{CycleLoop: perfbench.MeasureCycleLoop()}
	} else {
		res, err = perfbench.Collect(flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("cycle loop: %.1f ns/op, %d allocs/op, %d B/op\n",
		res.CycleLoop.NsPerOp, res.CycleLoop.AllocsPerOp, res.CycleLoop.BytesPerOp)
	for _, e := range res.Experiments {
		fmt.Printf("%-12s %8.3fs\n", e.Name, e.Seconds)
	}
	if res.SuiteSeconds > 0 {
		fmt.Printf("suite total: %.3fs\n", res.SuiteSeconds)
	}
	if fs := res.ForkSweep; fs != nil {
		fmt.Printf("fork sweep (%s, %d points, warm@%d/%d): fork %.3fs vs exact %.3fs = %.2fx\n",
			fs.Kernel, fs.Points, fs.WarmCycle, fs.TotalCycles, fs.ForkSeconds, fs.ExactSeconds, fs.Speedup)
	}

	if *out != "" {
		if err := res.Write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}
}
