// Command smprof runs one benchmark kernel with the cycle-level probe
// attached and renders its execution profile: a stall-attribution table
// (where every lost issue slot went), a per-bank access/conflict
// heatmap, and interval sparklines showing how issue rate, cache hit
// rate, and DRAM traffic evolve over the run. It can also stream the
// raw NDJSON profile for external tooling.
//
// The run is the probed /v1/run request its flags mean (runplan.Flags
// with "probe": true), resolved and simulated through internal/runplan
// as the service does; the report renders from the response's NDJSON.
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
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/runplan"
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

	if *list {
		t := report.NewTable("Benchmarks", "name", "suite", "category")
		for _, k := range workloads.All() {
			t.AddRow(k.Name, k.Suite, k.Category.String())
		}
		fmt.Print(t)
		return
	}
	req, err := runplan.Flags{
		Kernel: *kernelName, Streams: *streamSpec, Design: *design,
		RFKB: *rfKB, SharedKB: *shmKB, CacheKB: *cacheKB, TotalKB: *totalKB,
		Threads: *threads, Regs: *regs, Sched: *schedName,
	}.Request()
	var run *runplan.Run
	if err == nil {
		req.Probe, req.ProbeIntervalCycles = true, *interval
		run, err = runplan.Resolve(req)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smprof:", err)
		os.Exit(2)
	}

	var out io.WriteCloser
	switch *ndjson {
	case "":
	case "-":
		out = os.Stdout
	default:
		if out, err = os.Create(*ndjson); err != nil {
			fmt.Fprintln(os.Stderr, "smprof:", err)
			os.Exit(1)
		}
	}

	resp, err := runplan.Simulate(context.Background(), run, &runplan.Runners{}, 0)
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
	if out != nil {
		_, err := io.WriteString(out, resp.ProbeNDJSON)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "smprof: writing NDJSON profile:", err)
			os.Exit(1)
		}
		// When NDJSON goes to stdout, keep the human report off it.
		if out == os.Stdout {
			return
		}
	}
	prof, err := probe.Decode(strings.NewReader(resp.ProbeNDJSON))
	if err == nil && prof.Summary == nil {
		err = errors.New("profile has no summary record")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smprof:", err)
		os.Exit(1)
	}
	fmt.Print(harness.FormatProfile(run, resp, prof))
}
