// Command smsim runs one benchmark kernel on the SM simulator under a
// chosen local-memory configuration and prints a full report: timing,
// occupancy, cache and DRAM behaviour, bank conflicts, and the energy
// breakdown.
//
// A run is the /v1/run request its flags mean (runplan.Flags), resolved
// and simulated through internal/runplan exactly as the service does:
// -design unified -total N is "alloc_total_kb": N, and -design fermi
// -total N is "fermi_total_kb": N.
//
// Examples:
//
//	smsim -kernel needle                         # baseline partitioned run
//	smsim -kernel needle -design unified         # §4.5-allocated unified run
//	smsim -kernel dgemm -rf 128 -shm 64 -cache 64 -regs 24
//	smsim -kernel bfs -sched gto                 # greedy-then-oldest scheduler
//	smsim -streams needle+matrixmul              # two kernels co-resident (multi-tenant)
//	smsim -streams bfs+nn -design unified        # jointly allocated unified mix
//	smsim -list                                  # show all benchmarks
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/api"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/runplan"
	"repro/internal/sm"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// replayTrace runs a recorded trace file directly on the SM simulator.
func replayTrace(path string, cfg config.MemConfig, params sm.Params, residentCTAs int) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	simulator, err := sm.NewSM(sm.Spec{Config: cfg, Params: params, Source: tr, ResidentCTAs: residentCTAs})
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	c, err := simulator.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	fmt.Printf("replayed %s: %d CTAs x %d warps under %v\n", path, tr.CTAs, tr.WarpsPerCTA, cfg)
	fmt.Printf("cycles=%d insts=%d IPC=%.3f cacheHit=%s dram=%dB\n",
		c.Cycles, c.WarpInsts, c.IPC(), report.Percent(c.CacheHitRate()), c.DRAMBytes())
}

func main() {
	var (
		kernelName  = flag.String("kernel", "", "benchmark name (see -list)")
		design      = flag.String("design", "partitioned", "partitioned | unified | fermi")
		rfKB        = flag.Int("rf", 256, "register file capacity in KB (partitioned design)")
		shmKB       = flag.Int("shm", 64, "shared memory capacity in KB (partitioned design)")
		cacheKB     = flag.Int("cache", 64, "cache capacity in KB (partitioned design)")
		totalKB     = flag.Int("total", 384, "total unified capacity in KB (unified/fermi designs)")
		threads     = flag.Int("threads", 0, "resident thread cap (0 = architectural limit)")
		regs        = flag.Int("regs", 0, "registers allocated per thread (0 = spill-free demand)")
		machineFile = flag.String("machine", "", "load a JSON machine description (overrides -rf/-shm/-cache and timing)")
		emitMachine = flag.String("emit-machine", "", "write the default machine description to a JSON file and exit")
		traceFile   = flag.String("trace", "", "replay a recorded trace file instead of a registry kernel")
		resident    = flag.Int("resident", 4, "resident CTAs when replaying a trace (-trace)")
		schedName   = flag.String("sched", "", "warp scheduler: twolevel (default) | gto")
		streams     = flag.String("streams", "", "run several kernels co-resident on one SM, \"+\"-joined (e.g. needle+matrixmul)")
		list        = flag.Bool("list", false, "list benchmarks and exit")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	defer stopProf()

	if *emitMachine != "" {
		if err := machine.Save(*emitMachine, machine.Default()); err != nil {
			fmt.Fprintln(os.Stderr, "smsim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote the paper's default machine to %s\n", *emitMachine)
		return
	}
	if *list {
		t := report.NewTable("Benchmarks", "name", "suite", "category", "regs", "shm B/thr", "CTA", "grid")
		for _, k := range workloads.All() {
			t.AddRow(k.Name, k.Suite, k.Category.String(), fmt.Sprint(k.RegsNeeded),
				fmt.Sprintf("%.1f", k.SharedBytesPerThread()), fmt.Sprint(k.ThreadsPerCTA),
				fmt.Sprint(k.GridCTAs))
		}
		fmt.Print(t)
		return
	}
	flags := runplan.Flags{
		Kernel: *kernelName, Streams: *streams, Design: *design,
		RFKB: *rfKB, SharedKB: *shmKB, CacheKB: *cacheKB, TotalKB: *totalKB,
		Threads: *threads, Regs: *regs, Sched: *schedName, Machine: *machineFile,
	}
	if *traceFile != "" {
		d, err := flags.Description()
		if err != nil {
			fmt.Fprintln(os.Stderr, "smsim:", err)
			os.Exit(2)
		}
		cfg, params, _, err := d.Resolve()
		if err != nil {
			fmt.Fprintln(os.Stderr, "smsim:", err)
			os.Exit(2)
		}
		replayTrace(*traceFile, cfg, params, *resident)
		return
	}
	req, err := flags.Request()
	var run *runplan.Run
	if err == nil {
		run, err = runplan.Resolve(req)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(2)
	}
	resp, err := runplan.Simulate(context.Background(), run, &runplan.Runners{}, 0)
	var fit *core.FitError
	if errors.As(err, &fit) {
		what, hint := "residency", " or lower -regs/-threads"
		if len(run.Streams) > 1 {
			what, hint = "co-residency", ", raise -threads, or drop a stream"
		}
		fmt.Fprintf(os.Stderr, "smsim: %s cannot achieve %s of one CTA under %v: the binding resource is %v\n",
			fit.Kernel, what, fit.Config, fit.Limiter)
		fmt.Fprintf(os.Stderr, "smsim: raise that capacity (-rf/-shm/-cache/-total)%s\n", hint)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsim:", err)
		os.Exit(1)
	}
	if len(run.Streams) > 1 {
		reportStreams(run, resp)
	} else {
		reportKernel(run, resp)
	}
}

// reportStreams prints a multi-tenant mix's joint report plus the
// per-stream attribution table.
func reportStreams(run *runplan.Run, resp *api.RunResponse) {
	c := resp.Counters
	fmt.Printf("%s (%d streams co-resident)\n", resp.Kernel, len(run.Streams))
	fmt.Printf("configuration: %v  threads=%d (%d CTAs jointly resident)\n",
		run.Config, resp.Occupancy.Threads, resp.Occupancy.CTAs)
	fmt.Println()

	joint := report.NewTable("Joint execution",
		"cycles", "warp insts", "IPC", "cache hit", "dram read", "dram write")
	joint.AddRow(fmt.Sprint(c.Cycles), fmt.Sprint(c.WarpInsts),
		fmt.Sprintf("%.3f", c.IPC()), report.Percent(c.CacheHitRate()),
		fmt.Sprintf("%d B", c.DRAMReadBytes), fmt.Sprintf("%d B", c.DRAMWriteBytes))
	fmt.Print(joint)
	fmt.Println()

	per := report.NewTable("Per-stream attribution (counters sum exactly to the joint run)",
		"stream", "CTAs", "threads", "limiter", "cycles", "warp insts", "IPC", "cache hit", "dram bytes")
	for _, st := range resp.Streams {
		sc := st.Counters
		per.AddRow(st.Kernel, fmt.Sprint(st.Occupancy.CTAs), fmt.Sprint(st.Occupancy.Threads),
			st.Occupancy.Limiter, fmt.Sprint(sc.Cycles), fmt.Sprint(sc.WarpInsts),
			fmt.Sprintf("%.3f", sc.IPC()), report.Percent(sc.CacheHitRate()),
			fmt.Sprint(sc.DRAMBytes()))
	}
	fmt.Print(per)
	fmt.Println()
	fmt.Print(energyTable("Energy (J, joint run)", resp.Energy))
}

// reportKernel prints a plain kernel's full report.
func reportKernel(run *runplan.Run, resp *api.RunResponse) {
	k, c := run.Streams[0].Kernel, resp.Counters
	fmt.Printf("%s (%s, %s)\n", k.Name, k.Suite, k.Description)
	fmt.Printf("configuration: %v  threads=%d (limited by %v, %d CTAs)\n",
		run.Config, resp.Occupancy.Threads, resp.Occupancy.Limiter, resp.Occupancy.CTAs)
	fmt.Println()

	perf := report.NewTable("Execution",
		"cycles", "warp insts", "IPC", "spill insts", "CTAs", "threads run")
	perf.AddRow(fmt.Sprint(c.Cycles), fmt.Sprint(c.WarpInsts),
		fmt.Sprintf("%.3f", c.IPC()), fmt.Sprint(c.SpillInsts),
		fmt.Sprint(c.CTAsRetired), fmt.Sprint(c.ThreadsRun))
	fmt.Print(perf)
	fmt.Println()

	mem := report.NewTable("Memory system",
		"cache probes", "hit rate", "dram read", "dram write", "dram accesses")
	mem.AddRow(fmt.Sprint(c.CacheProbes), report.Percent(c.CacheHitRate()),
		fmt.Sprintf("%d B", c.DRAMReadBytes), fmt.Sprintf("%d B", c.DRAMWriteBytes),
		fmt.Sprint(c.DRAMAccesses()))
	fmt.Print(mem)
	fmt.Println()

	fr := c.ConflictFractions()
	confl := report.NewTable("Bank conflicts (max accesses to one bank per instruction)",
		"<=1", "2", "3", "4", ">4", "arbitration")
	confl.AddRow(report.Percent(fr[0]), report.Percent(fr[1]), report.Percent(fr[2]),
		report.Percent(fr[3]), report.Percent(fr[4]), fmt.Sprint(c.ArbitrationConflicts))
	fmt.Print(confl)
	fmt.Println()

	regtab := report.NewTable("Register hierarchy accesses",
		"MRF reads", "MRF writes", "ORF", "LRF", "MRF fraction")
	regtab.AddRow(fmt.Sprint(c.MRFReads), fmt.Sprint(c.MRFWrites),
		fmt.Sprint(c.ORFReads+c.ORFWrites), fmt.Sprint(c.LRFReads+c.LRFWrites),
		report.Percent(c.MRFAccessFraction()))
	fmt.Print(regtab)
	fmt.Println()
	fmt.Print(energyTable("Energy (J)", resp.Energy))
}

// energyTable renders a run's energy breakdown.
func energyTable(title string, e api.EnergyInfo) *report.Table {
	t := report.NewTable(title,
		"MRF", "ORF+LRF", "shared", "cache+tags", "other dyn", "leakage", "DRAM", "total")
	t.AddRow(fmt.Sprintf("%.2e", e.MRF), fmt.Sprintf("%.2e", e.ORF+e.LRF),
		fmt.Sprintf("%.2e", e.Shared), fmt.Sprintf("%.2e", e.Cache+e.Tags),
		fmt.Sprintf("%.2e", e.Other), fmt.Sprintf("%.2e", e.Leak),
		fmt.Sprintf("%.2e", e.DRAM), fmt.Sprintf("%.2e", e.Total))
	return t
}
