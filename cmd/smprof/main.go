// Command smprof runs one benchmark kernel with the cycle-level probe
// attached and renders its execution profile: a stall-attribution table
// (where every lost issue slot went), a per-bank access/conflict
// heatmap, and interval sparklines showing how issue rate, cache hit
// rate, and DRAM traffic evolve over the run. It can also stream the
// raw NDJSON profile for external tooling.
//
// Examples:
//
//	smprof -kernel needle                        # baseline partitioned run
//	smprof -kernel bfs -design unified -total 384
//	smprof -streams needle+matrixmul             # multi-tenant mix with per-stream stalls
//	smprof -kernel dgemm -interval 2048          # finer phase sampling
//	smprof -kernel needle -ndjson needle.ndjson  # raw profile to a file
//	smprof -kernel needle -ndjson -              # raw profile to stdout
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/workloads"
)

func main() {
	var (
		kernelName = flag.String("kernel", "", "benchmark name (see -list)")
		design     = flag.String("design", "partitioned", "partitioned | unified | fermi")
		rfKB       = flag.Int("rf", 256, "register file capacity in KB (partitioned design)")
		shmKB      = flag.Int("shm", 64, "shared memory capacity in KB (partitioned design)")
		cacheKB    = flag.Int("cache", 64, "cache capacity in KB (partitioned design)")
		totalKB    = flag.Int("total", 384, "total unified capacity in KB (unified/fermi designs)")
		threads    = flag.Int("threads", 0, "resident thread cap (0 = architectural limit)")
		regs       = flag.Int("regs", 0, "registers allocated per thread (0 = spill-free demand)")
		interval   = flag.Int64("interval", 0, "sampling interval in cycles (0 = default)")
		ndjson     = flag.String("ndjson", "", "stream the raw NDJSON profile to this file (\"-\" = stdout)")
		schedName  = flag.String("sched", "", "warp scheduler: twolevel (default) | gto")
		streamSpec = flag.String("streams", "", "profile several kernels co-resident on one SM, \"+\"-joined (e.g. needle+matrixmul)")
		list       = flag.Bool("list", false, "list benchmarks and exit")
	)
	flag.Parse()

	policy, err := sched.ParsePolicy(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smprof:", err)
		os.Exit(2)
	}

	if *list {
		t := report.NewTable("Benchmarks", "name", "suite", "category")
		for _, k := range workloads.All() {
			t.AddRow(k.Name, k.Suite, k.Category.String())
		}
		fmt.Print(t)
		return
	}
	var streamNames []string
	if *streamSpec != "" {
		if *kernelName != "" {
			fmt.Fprintln(os.Stderr, "smprof: -kernel and -streams are mutually exclusive")
			os.Exit(2)
		}
		streamNames = strings.Split(*streamSpec, "+")
		if len(streamNames) < 2 {
			fmt.Fprintf(os.Stderr, "smprof: -streams wants at least two \"+\"-joined kernels, got %q\n", *streamSpec)
			os.Exit(2)
		}
	} else if *kernelName == "" {
		fmt.Fprintln(os.Stderr, "smprof: -kernel is required (try -list)")
		os.Exit(2)
	}
	// One requirements slice covers both forms: a plain kernel is a
	// one-entry mix.
	names := streamNames
	if len(names) == 0 {
		names = []string{*kernelName}
	}
	reqs := make([]config.KernelRequirements, len(names))
	for i, name := range names {
		k, err := workloads.ByName(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "smprof:", err)
			os.Exit(2)
		}
		names[i] = k.Name
		reqs[i] = k.Requirements()
	}

	var cfg config.MemConfig
	switch *design {
	case "partitioned":
		cfg = config.MemConfig{
			Design:      config.Partitioned,
			RFBytes:     *rfKB << 10,
			SharedBytes: *shmKB << 10,
			CacheBytes:  *cacheKB << 10,
			MaxThreads:  *threads,
		}
	case "unified":
		cfg, err = config.Allocate(*totalKB<<10, *threads, reqs...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smprof:", err)
			os.Exit(1)
		}
	case "fermi":
		cfg = config.ChooseFermi(*totalKB<<10-config.BaselineRFBytes, *threads, reqs...)
	default:
		fmt.Fprintf(os.Stderr, "smprof: unknown design %q\n", *design)
		os.Exit(2)
	}

	var out io.Writer
	switch *ndjson {
	case "":
	case "-":
		out = os.Stdout
	default:
		f, err := os.Create(*ndjson)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smprof:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	runner := core.NewRunner()
	runner.Params.Scheduler = policy
	pr, err := harness.Profile(runner, harness.ProfileSpec{
		Kernel:         *kernelName,
		Streams:        streamNames,
		Config:         cfg,
		RegsPerThread:  *regs,
		IntervalCycles: *interval,
		NDJSON:         out,
	})
	var fit *core.FitError
	if errors.As(err, &fit) {
		fmt.Fprintf(os.Stderr, "smprof: %s cannot achieve residency of one CTA under %v: the binding resource is %v\n",
			fit.Kernel, fit.Config, fit.Limiter)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smprof:", err)
		os.Exit(1)
	}

	// When NDJSON goes to stdout, keep the human report off it.
	if out == os.Stdout {
		return
	}
	fmt.Print(harness.FormatProfile(pr))
}
