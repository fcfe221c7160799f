package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/occupancy"
	"repro/internal/parallel"
	"repro/internal/workloads"
)

// sweepKind selects one of the two closed-loop sweep workloads.
type sweepKind int

const (
	// scratchSweep: kernels with at most 7% global-memory instructions,
	// under the partitioned baseline, unified-384 and fermi-384 at every
	// ThreadSweep cap. Host time goes to the issue path.
	scratchSweep sweepKind = iota
	// cacheSweep: kernels with 12-33% global-memory instructions at every
	// Figure4CacheSizes capacity with 1024 threads, plus a DRAM-latency
	// fork sweep. Host time goes to the memory pipeline and MinReady.
	cacheSweep
)

var (
	scratchKernels = []string{"lu", "sto", "needle", "dgemm", "aes"}
	cacheKernels   = []string{"bfs", "mummer", "vectoradd", "backprop", "nbody", "matrixmul"}
	// forkLatencies are the DRAM latencies (cycles) the fork sweep
	// resumes one warm bfs prefix at.
	forkLatencies = []int64{200, 300, 400, 500, 600, 700, 800, 900}
)

const (
	// forkKernel and forkCacheBytes pick the warmed run of the fork sweep.
	forkKernel     = "bfs"
	forkCacheBytes = 64 << 10
	// warmShare is where the fork sweep captures its prefix, as a share
	// of the full run's cycles.
	warmShare = 0.9
	// sweepSLO is the latency limit of one simulation call in the sweeps.
	sweepSLO = 500 * time.Millisecond
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps = 3
)

//go:embed digests.json
var digestsJSON []byte

// committedDigests returns the digest of every sweep workload's counters
// on the default seed.
func committedDigests() map[string]string {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(err)
	}
	return m
}

// point is one cell of a sweep matrix: a plain run, or (fork) the fork
// sweep unit — one Warm followed by a Resume per forkLatencies entry.
type point struct {
	label string
	spec  core.RunSpec
	fork  bool
}

// sweepMatrix returns a sweep's cells in canonical order. The seed picks
// the RunSpec.Seed of every run.
func sweepMatrix(kind sweepKind, seed uint64) []point {
	var pts []point
	add := func(k *workloads.Kernel, machine string, cfg config.MemConfig, fork bool) {
		label := fmt.Sprintf("%s/%s/%dt", k.Name, machine, cfg.MaxThreads)
		if fork {
			label += "/fork"
		}
		pts = append(pts, point{label: label, spec: core.RunSpec{Kernel: k, Config: cfg, Seed: simSeed(seed)}, fork: fork})
	}
	switch kind {
	case scratchSweep:
		machines := []core.NamedMachine{
			core.BaselineMachine(),
			core.UnifiedMachine("unified-384", config.BaselineTotalBytes),
			core.FermiMachine("fermi-384", config.BaselineTotalBytes),
		}
		for _, k := range kernelsNamed(scratchKernels) {
			for _, m := range machines {
				cfg, err := m.Configure(k)
				if err != nil {
					panic(err) // every kernel fits every machine
				}
				for _, threads := range core.ThreadSweep {
					c := cfg
					c.MaxThreads = threads
					add(k, m.Name, c, false)
				}
			}
		}
	case cacheSweep:
		for _, k := range kernelsNamed(cacheKernels) {
			for _, cb := range core.Figure4CacheSizes {
				cfg := core.IsolationConfig(k, occupancy.FullOccupancyRFBytes(k.RegsNeeded), cb, 1024)
				add(k, fmt.Sprintf("cache-%dk", cb>>10), cfg, false)
			}
		}
		k := kernelsNamed([]string{forkKernel})[0]
		add(k, fmt.Sprintf("cache-%dk", forkCacheBytes>>10),
			core.IsolationConfig(k, occupancy.FullOccupancyRFBytes(k.RegsNeeded), forkCacheBytes, 1024), true)
	}
	return pts
}

func kernelsNamed(names []string) []*workloads.Kernel {
	out := make([]*workloads.Kernel, len(names))
	for i, n := range names {
		k, err := workloads.ByName(n)
		if err != nil {
			panic(err)
		}
		out[i] = k
	}
	return out
}

// passOrder returns the cell order of one timed pass: a seeded shuffle,
// different for every pass and identical for every run with the seed.
func passOrder(seed uint64, pass, n int) []int {
	return rand.New(rand.NewPCG(seed, uint64(pass)+0x5eed)).Perm(n)
}

// sweep is a closed-loop sweep workload: one goroutine, one worker,
// repeated passes over a run matrix through core.Runner.
type sweep struct {
	name   string
	kind   sweepKind
	seed   uint64
	points []point

	runner *core.Runner
	// ref maps op labels to the counter hash the set-up pass produced.
	ref map[string]string
	// warmCycles is the fork sweep's capture cycle.
	warmCycles int64
	// passWinst is the simulated warp instructions of one pass.
	passWinst int64
	// stealShare is the steal share per vCPU of the timed passes.
	stealShare float64
	t          tally
}

func newSweep(kind sweepKind, seed uint64) *sweep {
	name := map[sweepKind]string{scratchSweep: "sweep-scratch", cacheSweep: "sweep-cache"}[kind]
	return &sweep{name: name, kind: kind, seed: seed, points: sweepMatrix(kind, seed)}
}

func (s *sweep) tally() *tally { return &s.t }

func (s *sweep) work() map[string]any {
	return map[string]any{
		"cells":          len(s.points),
		"winst_per_pass": s.passWinst,
		"warm_cycles":    s.warmCycles,
		"digest":         s.digest(),
		"sweep_slo_ms":   sweepSLO.Milliseconds(),
		"fork_latencies": forkLatencies,
		"workers":        parallel.Workers(),
		"steal_share":    s.stealShare,
	}
}

// opResult is one simulation call's outcome inside a pass.
type opResult struct {
	label string
	hash  string
	winst int64 // warp instructions this call simulated
	// cpu and wall are the call's process CPU time and wall time.
	cpu, wall time.Duration
	err       error
}

// span times one call on both clocks.
type span struct {
	wall time.Time
	cpu  time.Duration
}

func startSpan() span { return span{time.Now(), cpuTime()} }

// end fills in op's durations.
func (sp span) end(op *opResult) {
	op.cpu, op.wall = cpuTime()-sp.cpu, time.Since(sp.wall)
}

// runPoint executes one matrix cell, returning one opResult per
// simulation call (the fork unit makes 1 + len(forkLatencies) calls).
func (s *sweep) runPoint(r *core.Runner, p point) []opResult {
	if !p.fork {
		sp := startSpan()
		res, err := r.Run(p.spec)
		op := opResult{label: p.label, err: err}
		sp.end(&op)
		if err == nil {
			op.hash, op.winst = counterHash(res.Counters), res.Counters.WarpInsts
		}
		return []opResult{op}
	}
	ctx := context.Background()
	sp := startSpan()
	w, err := r.Warm(ctx, p.spec, s.warmCycles)
	warm := opResult{label: p.label + "/warm", err: err}
	sp.end(&warm)
	if err != nil {
		return []opResult{warm}
	}
	prefix := w.Snapshot().Counters
	warm.hash, warm.winst = counterHash(&prefix), prefix.WarpInsts
	ops := []opResult{warm}
	for _, lat := range forkLatencies {
		params := r.Params
		params.DRAM.LatencyCycles = lat
		sp := startSpan()
		res, err := w.Resume(ctx, r, params)
		op := opResult{label: fmt.Sprintf("%s/dram%d", p.label, lat), err: err}
		sp.end(&op)
		if err == nil {
			op.hash, op.winst = counterHash(res.Counters), res.Counters.WarpInsts-prefix.WarpInsts
		}
		ops = append(ops, op)
	}
	return ops
}

// pass runs every cell once in the given order under r.
func (s *sweep) pass(r *core.Runner, order []int) []opResult {
	var ops []opResult
	for _, i := range order {
		ops = append(ops, s.runPoint(r, s.points[i])...)
	}
	return ops
}

// verify checks a pass's ops against the set-up hashes.
func (s *sweep) verify(ops []opResult) {
	for _, op := range ops {
		err := op.err
		if err == nil && op.hash != s.ref[op.label] {
			err = fmt.Errorf("%s %s: counter hash %s differs from set-up %s", s.name, op.label, op.hash[:12], s.ref[op.label])
		}
		s.t.check(err)
	}
}

// coldPass runs one set-up pass from an empty trace cache and a fresh
// Runner (trace build, bank outcomes, baseline calibrations) in canonical
// order, returning the Runner and the ops.
func (s *sweep) coldPass() (*core.Runner, []opResult, error) {
	workloads.ResetTraceCache()
	r := core.NewRunner()
	for _, p := range s.points {
		if !p.fork {
			continue
		}
		// The fork sweep warms to a share of the full run.
		res, err := r.Run(p.spec)
		if err != nil {
			return nil, nil, err
		}
		s.warmCycles = int64(warmShare * float64(res.Counters.Cycles))
	}
	order := make([]int, len(s.points))
	for i := range order {
		order[i] = i
	}
	return r, s.pass(r, order), nil
}

// reference runs one cold pass and takes its hashes as the reference.
func (s *sweep) reference() error {
	r, ops, err := s.coldPass()
	if err != nil {
		return err
	}
	s.runner = r
	return s.takeReference(ops)
}

// takeReference records a set-up pass's hashes and work size.
func (s *sweep) takeReference(ops []opResult) error {
	s.ref = make(map[string]string)
	s.passWinst = 0
	for _, op := range ops {
		if op.err != nil {
			return fmt.Errorf("%s set-up %s: %w", s.name, op.label, op.err)
		}
		s.ref[op.label] = op.hash
		s.passWinst += op.winst
	}
	return nil
}

// setup checks the default seed's matrix against the committed digest,
// untimed, then runs the cold set-up pass setupReps times and returns
// the median of their CPU times. The first repetition's hashes become
// the reference of the timed passes.
func (s *sweep) setup() (float64, error) {
	parallel.SetWorkers(1)
	if err := s.checkCommitted(); err != nil {
		return 0, err
	}
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := cpuTime()
		r, ops, err := s.coldPass()
		if err != nil {
			return 0, err
		}
		times = append(times, (cpuTime() - t0).Seconds())
		if rep == 0 {
			if err := s.takeReference(ops); err != nil {
				return 0, err
			}
		} else {
			s.verify(ops)
		}
		s.runner = r
	}
	return median(times), nil
}

// digest folds the set-up hashes in canonical order.
func (s *sweep) digest() string {
	var hs []string
	for _, p := range s.points {
		for _, op := range s.opLabels(p) {
			hs = append(hs, s.ref[op])
		}
	}
	return digest(hs)
}

// opLabels lists the op labels one cell produces.
func (s *sweep) opLabels(p point) []string {
	if !p.fork {
		return []string{p.label}
	}
	out := []string{p.label + "/warm"}
	for _, lat := range forkLatencies {
		out = append(out, fmt.Sprintf("%s/dram%d", p.label, lat))
	}
	return out
}

// checkCommitted runs the default seed's matrix once from cold and
// checks its digest against the committed one, as one operation. It
// runs whatever the benchmark's seed, so that every run compares the
// simulator's output with a fixed record, not only with itself.
func (s *sweep) checkCommitted() error {
	ref := newSweep(s.kind, defaultSeed)
	if err := ref.reference(); err != nil {
		return err
	}
	s.t.check(ref.checkDigest())
	return nil
}

// checkDigest compares the set-up digest with the committed one for the
// default seed.
func (s *sweep) checkDigest() error {
	if want, got := committedDigests()[s.name], s.digest(); want != got {
		return fmt.Errorf("%s: counter digest %s on seed %d differs from committed %q", s.name, got, defaultSeed, want)
	}
	return nil
}

func (s *sweep) run(d time.Duration) (metrics, error) {
	st := startSteal()
	var rates, lats []float64
	for _, p := range s.timed(d) {
		rates = append(rates, p.rate)
		lats = append(lats, p.allMs...)
	}
	s.stealShare = st.share()
	fmt.Fprintf(os.Stderr, "simbench: %s per-pass winst per CPU second: %.4g\n", s.name, rates)
	noteSteal(s.name, s.stealShare)
	m := metrics{}
	m.set("sim_winst_per_s", median(rates), "winst/s")
	m.set("heap_live_mb", heapLiveMB(), "MiB")
	m.set("req_p50_ms", quantile(lats, 0.5), "ms")
	m.set("req_p99_ms", quantile(lats, 0.99), "ms")
	ok := 0
	for _, l := range lats {
		if l <= float64(sweepSLO.Milliseconds()) {
			ok++
		}
	}
	m.set("slo_ok_frac", float64(ok)/float64(len(lats)), "1")
	return m, nil
}
