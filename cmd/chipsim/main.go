// Command chipsim runs a benchmark across a multi-SM chip with a shared,
// channel-interleaved DRAM system — the full machine of the paper's
// Figure 1a — and compares per-SM behaviour against the single-SM
// methodology the paper uses (Section 5.1).
//
// Examples:
//
//	chipsim -kernel needle -sms 4
//	chipsim -kernel pcr -sms 8 -l2 768        # with a 768 KB chip L2
//	chipsim -streams needle+matrixmul -sms 4  # concurrent kernels, SMs partitioned
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/chip"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/occupancy"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/runplan"
	"repro/internal/workloads"
)

func main() {
	var (
		kernelName = flag.String("kernel", "", "benchmark name (see smsim -list)")
		streamSpec = flag.String("streams", "", "run several kernels concurrently, \"+\"-joined; the SMs are partitioned among them")
		sms        = flag.Int("sms", 4, "number of streaming multiprocessors")
		l2KB       = flag.Int("l2", 0, "optional shared chip L2 capacity in KB (0 = none, as in the paper)")
		stagger    = flag.Int64("stagger", 0, "per-SM launch stagger in cycles")
		jobs       = flag.Int("j", runtime.NumCPU(), "parallel simulation workers (1 = serial)")
	)
	flag.Parse()
	parallel.SetWorkers(*jobs)

	// A plain kernel is a one-kernel list: it owns every SM.
	names, err := runplan.KernelNames(*kernelName, *streamSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chipsim:", err)
		os.Exit(2)
	}
	if *sms < len(names) {
		fmt.Fprintf(os.Stderr, "chipsim: %d SMs cannot host %d concurrent kernels (raise -sms)\n", *sms, len(names))
		os.Exit(2)
	}
	kernels := make([]*workloads.Kernel, len(names))
	for i, name := range names {
		if kernels[i], err = workloads.ByName(name); err != nil {
			fmt.Fprintln(os.Stderr, "chipsim:", err)
			os.Exit(2)
		}
	}
	mem := dram.DefaultSystemConfig(*sms)
	mem.L2Bytes = *l2KB << 10

	runner := core.NewRunner()
	multi := make([]chip.MultiKernel, len(kernels))
	for j, k := range kernels {
		// Kernel j owns ceil-or-floor(sms/K) SMs; deal it one grid per
		// owned SM.
		n := *sms / len(kernels)
		if j < *sms%len(kernels) {
			n++
		}
		multi[j] = chip.MultiKernel{
			Name:         k.Name,
			Source:       chip.Replicated(&workloads.Source{K: k, Seed: 1}, n),
			ResidentCTAs: occupancy.Compute(k.Requirements(), config.Baseline(), 0).CTAs,
		}
	}

	// The per-kernel single-SM references (the paper's methodology) and
	// the chip run are independent; run them concurrently.
	singles := make([]*core.Result, len(kernels))
	var work []func() error
	for j, k := range kernels {
		work = append(work, func() error {
			var err error
			singles[j], err = runner.Baseline(k)
			return err
		})
	}
	var res *chip.Result
	work = append(work, func() error {
		machine, err := chip.NewMulti(chip.Config{NumSMs: *sms, Mem: mem, LaunchStagger: *stagger},
			config.Baseline(), runner.Params, multi)
		if err != nil {
			return err
		}
		res, err = machine.Run()
		return err
	})
	if err := parallel.Do(work...); err != nil {
		fmt.Fprintln(os.Stderr, "chipsim:", err)
		os.Exit(1)
	}

	label, title := kernels[0].Name+" on", "Per-SM runtimes vs the single-SM methodology"
	cols := []string{"sm", "cycles", "vs single-SM"}
	if len(kernels) > 1 {
		label, title = *streamSpec+" concurrent on", "Per-SM runtimes vs each kernel's single-SM methodology"
		cols = []string{"sm", "kernel", "cycles", "vs single-SM"}
	}
	fmt.Printf("%s a %d-SM chip (%d DRAM channels", label, *sms, mem.Channels)
	if *l2KB > 0 {
		fmt.Printf(", %dKB L2", *l2KB)
	}
	fmt.Print(")\n\n")

	// row drops the kernel column of a one-kernel chip.
	t := report.NewTable(title, cols...)
	row := func(sm, kernel string, cells ...string) {
		if len(kernels) > 1 {
			cells = append([]string{kernel}, cells...)
		}
		t.AddRow(append([]string{sm}, cells...)...)
	}
	singleOf := map[string]*core.Result{}
	for j, k := range kernels {
		singleOf[k.Name] = singles[j]
		row("single-SM model", k.Name, fmt.Sprint(singles[j].Counters.Cycles), "1.00")
	}
	for i, c := range res.PerSM {
		name := res.PerSMKernel[i]
		row(fmt.Sprintf("sm%d", i), name, fmt.Sprint(c.Cycles),
			report.Ratio(float64(c.Cycles)/float64(singleOf[name].Counters.Cycles)))
	}
	fmt.Print(t)
	fmt.Printf("\nchip runtime %d cycles; DRAM r=%dB w=%dB; out-of-order requests %d\n",
		res.Cycles, res.DRAMReadBytes, res.DRAMWriteBytes, res.OutOfOrder)
}
