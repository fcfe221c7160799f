// Command sweep runs custom sweeps for one benchmark and reports
// performance, DRAM traffic, and energy at each point.
//
// Capacity sweeps (-resource rf | shared | cache) vary one local-memory
// resource across a range — the generalization of the paper's Figures
// 2-4 to arbitrary benchmarks and ranges. Parameter sweeps (-resource
// mshr | dramlat | drambw) vary a timing parameter instead; because
// timing parameters do not alter the warm-up history, -warm N warms one
// simulation prefix to cycle N and forks it copy-on-write into every
// sweep point, paying the warm-up cost once (see internal/snapshot).
//
// The sweep compiles to the same run matrix a sweep job does
// (internal/runplan) and executes it locally: points run in parallel
// across -j workers and rows print in order regardless of worker count.
//
// -submit URL runs the sweep remotely instead: it submits the sweep as
// a durable async job to an smserve instance (POST /v1/jobs), reports
// progress while polling, and renders the table from the job's result —
// byte-identical to the local table. A server started with -data-dir
// persists every completed point, so an interrupted sweep resumes where
// it left off — even across server restarts.
//
// Examples:
//
//	sweep -kernel bfs -resource cache -from 32 -to 512 -step 2x
//	sweep -kernel dgemm -resource rf -from 64 -to 256 -step 64 -threads 1024
//	sweep -kernel needle -resource shared -from 16 -to 384 -step 2x -csv
//	sweep -kernel mummer -resource mshr -from 2 -to 32 -step 2x -warm 50000
//	sweep -kernel bfs -resource dramlat -from 200 -to 800 -step 100 -warm 20000
//	sweep -kernel bfs -resource cache -from 32 -to 512 -step 2x -submit http://127.0.0.1:8344
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/api"
	"repro/internal/parallel"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/runplan"
	"repro/internal/sched"
)

func main() {
	var (
		kernelName = flag.String("kernel", "", "benchmark name")
		resource   = flag.String("resource", "cache", "rf | shared | cache (capacity, KB) or mshr | dramlat | drambw (timing parameter)")
		from       = flag.Int("from", 32, "first value (KB for capacity resources)")
		to         = flag.Int("to", 512, "last value")
		step       = flag.String("step", "2x", "additive step (e.g. 64) or \"2x\" for doubling")
		threads    = flag.Int("threads", 0, "resident thread cap (0 = architectural limit)")
		jobs       = flag.Int("j", runtime.NumCPU(), "parallel simulation workers (1 = serial)")
		schedName  = flag.String("sched", "", "warp scheduler: twolevel (default) | gto")
		warmCycles = flag.Int64("warm", 0, "warm-prefix cycle for parameter sweeps: fork every point from one run warmed to this cycle")
		submitURL  = flag.String("submit", "", "submit the sweep as an async job to this smserve base URL instead of simulating locally")
		csv        = flag.Bool("csv", false, "emit CSV")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	parallel.SetWorkers(*jobs)
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	defer stopProf()
	policy, err := sched.ParsePolicy(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	req := api.SweepRequest{
		Kernel:     *kernelName,
		Resource:   *resource,
		From:       *from,
		To:         *to,
		Step:       *step,
		WarmCycles: *warmCycles,
	}
	req.Machine.MaxThreads = *threads
	req.Machine.Timing.Scheduler = string(policy)
	// Compiling up front validates the request the way the job API
	// does, for both paths; its errors already read "sweep: ...".
	batch, _, err := runplan.Sweep(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	start := time.Now()
	var items []api.BatchItem
	where := fmt.Sprintf("with %d worker(s)", parallel.Workers())
	if *submitURL != "" {
		items, err = submitSweep(*submitURL, req)
		where = "via " + *submitURL
	} else {
		items, err = localSweep(batch)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	t, err := render(req, items)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d point(s) in %v %s\n",
		len(items), time.Since(start).Round(time.Millisecond), where)
}

// localSweep resolves and executes a compiled sweep in this process.
func localSweep(batch api.BatchRequest) ([]api.BatchItem, error) {
	runs, err := runplan.ResolveBatch(batch)
	if err != nil {
		return nil, err
	}
	return runplan.Execute(runs)
}

// submitSweep runs the sweep remotely as a durable async job on an
// smserve instance: submit, poll with progress lines on stderr, and
// decode the items of the job's final result.
func submitSweep(baseURL string, req api.SweepRequest) ([]api.BatchItem, error) {
	ctx := context.Background()
	c := api.NewClient(baseURL)
	job, err := c.SubmitJob(ctx, api.JobRequest{Sweep: &req})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "sweep: submitted job %s (%s) to %s\n", job.ID, job.Note, baseURL)
	lastDone := -1
	job, err = c.WaitJob(ctx, job.ID, 300*time.Millisecond, func(j *api.Job) {
		if j.Progress.Done != lastDone {
			lastDone = j.Progress.Done
			fmt.Fprintf(os.Stderr, "sweep: %s %d/%d point(s) (cache %d, store %d)\n",
				j.State, j.Progress.Done, j.Progress.Total, j.Progress.CacheHits, j.Progress.StoreHits)
		}
	})
	if err != nil {
		return nil, err
	}
	if job.State != api.JobDone {
		return nil, fmt.Errorf("job %s finished %s: %v", job.ID, job.State, job.Error)
	}
	raw, err := c.JobResult(ctx, job.ID)
	if err != nil {
		return nil, err
	}
	var br api.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		return nil, fmt.Errorf("decoding job result: %w", err)
	}
	items, err := br.Items()
	if err != nil {
		return nil, fmt.Errorf("decoding job result items: %w", err)
	}
	return items, nil
}

// render builds the sweep table from one batch item per point (warp
// IPC, as everywhere in the sweep tables). The local and -submit paths
// both render through here.
func render(req api.SweepRequest, items []api.BatchItem) (*report.Table, error) {
	values, err := req.Values()
	if err != nil {
		return nil, err
	}
	if len(items) != len(values) {
		return nil, fmt.Errorf("sweep returned %d point(s), want %d", len(items), len(values))
	}
	isParam := runplan.ParamAxes[req.Resource]
	title := fmt.Sprintf("%s: performance vs %s", req.Kernel, req.Resource)
	firstCol := "value"
	if isParam {
		title += fmt.Sprintf(" (forked at cycle %d)", req.WarmCycles)
	} else {
		title += " capacity"
		firstCol = "capacity"
	}
	t := report.NewRunTable(title, firstCol)
	for i, it := range items {
		label := fmt.Sprint(values[i])
		if !isParam {
			label = fmt.Sprintf("%dK", values[i])
		}
		switch {
		case it.Error != nil && it.Error.Code == api.CodeInfeasible:
			t.AddRow(report.InfeasibleRunRow(label)...)
		case it.Error != nil:
			return nil, fmt.Errorf("point %s failed: %v", label, it.Error)
		default:
			r := it.Result
			t.AddRow(report.RunRow(label, r.Occupancy.Threads, r.Counters.Cycles,
				r.Counters.IPC(), r.Counters.DRAMBytes(), r.Energy.Total)...)
		}
	}
	return t, nil
}
