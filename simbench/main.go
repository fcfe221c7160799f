// Command simbench is the repository's end-to-end benchmark. It measures
// the simulator and the simulation service from outside, by timing calls
// into their public functions, on one of three workloads:
//
//	sweep-scratch  closed-loop capacity sweep of scratch/register-bound kernels
//	sweep-cache    closed-loop cache-capacity sweep plus a DRAM-latency fork sweep
//	serve-mixed    open-loop Poisson traffic against an in-process service
//
// Every run checks that the outputs are correct (counter hashes, committed
// digests, byte-identical response bodies) and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// run is a separate traced invocation that reports the per-layer metrics.
// See README.md for the workloads, the metric-to-layer table, and how to
// run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// workload is one benchmark workload.
type workload interface {
	// setup prepares the workload and returns the set-up time in seconds
	// (the median of several repetitions).
	setup() (float64, error)
	// run measures the workload for d and returns its end-to-end metrics.
	run(d time.Duration) (metrics, error)
	// trace runs the separate traced invocation and returns the
	// per-layer metrics.
	trace(d time.Duration) (metrics, error)
	// tally returns the operations attempted and failed so far.
	tally() *tally
	// work describes the work size of one pass, for the context line.
	work() map[string]any
}

// newWorkload builds the named workload for a seed; rate is serve-mixed's
// offered load.
func newWorkload(name string, seed uint64, rate float64) (workload, error) {
	switch name {
	case "sweep-scratch":
		return newSweep(scratchSweep, seed), nil
	case "sweep-cache":
		return newSweep(cacheSweep, seed), nil
	case "serve-mixed":
		return newServeMixed(seed, rate)
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep-scratch, sweep-cache or serve-mixed)", name)
}

func main() {
	name := flag.String("workload", "", "workload: sweep-scratch, sweep-cache or serve-mixed")
	seed := flag.Uint64("seed", defaultSeed, "input seed (run-matrix order, RunSpec.Seed, arrival schedule)")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced invocation and reports per-layer metrics")
	rate := flag.Float64("rate", serveRate, "serve-mixed offered requests per second (change it only to find the service's saturation)")
	flag.Parse()
	if err := run(*name, *seed, *rate, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, rate float64, d time.Duration, traced bool) error {
	if d <= 0 || rate <= 0 {
		return fmt.Errorf("-seconds and -rate must be positive")
	}
	w, err := newWorkload(name, seed, rate)
	if err != nil {
		return err
	}
	setupS, err := w.setup()
	if err != nil {
		return err
	}
	var m metrics
	if traced {
		m, err = w.trace(d)
	} else {
		m, err = w.run(d)
		if err == nil {
			m.set("setup_s", setupS, "s")
		}
	}
	if err != nil {
		return err
	}
	ctx := map[string]any{"workload": name, "seed": seed, "trace": traced, "host": fingerprint(), "work": w.work()}
	if err := printJSON(ctx); err != nil {
		return err
	}
	t := w.tally()
	return printJSON(result{
		Correct:   t.failed.Load() == 0,
		Attempted: max(t.attempted.Load(), 1),
		Failed:    t.failed.Load(),
		Metrics:   m,
	})
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", b)
	return err
}
