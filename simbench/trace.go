package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/occupancy"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// The traced invocation. It never supplies end-to-end numbers: it
// measures each layer by building the sweep runs itself from the public
// pieces core.Runner.Run uses (occupancy.Compute, workloads.Source,
// sm.NewSM), with the trace source and the DRAM system wrapped, and by
// replaying each run's recorded streams through the inner components
// (replay.go). Spans and counts stay in memory until the end. Every span
// of the traced run is wall time, so that layer costs, step time and
// the untraced calls they are compared with read the same clock.

// maxDRAMCalls bounds the DRAM calls one tracer records for the replay.
const maxDRAMCalls = 1 << 20

// simTracer collects the spans and counts of the wrapped pieces.
type simTracer struct {
	// outSeen marks warps whose bank outcomes were already built, so
	// that only cold WarpOutcomes calls are timed.
	outSeen             map[outKey]bool
	build, outcomes     spanSum
	buildInst, outInsts int64
	dramCalls           []dramCall
	dramCount           int64
}

type outKey struct {
	kernel     string
	bf, regs   int
	seed       uint64
	cta, warp  int
	design     config.Design
	aggressive bool
}

func newSimTracer() *simTracer { return &simTracer{outSeen: make(map[outKey]bool)} }

// tracedSource wraps a workloads.Source, timing trace builds and cold
// bank-outcome builds. It forwards both WarpTrace and WarpOutcomes, so
// dispatch keeps the memoized-outcome path.
type tracedSource struct {
	*workloads.Source
	tr *simTracer
}

func (s *tracedSource) WarpTrace(cta, warp int) []isa.WarpInst {
	before := workloads.TraceCacheSnapshot().Builds
	t0 := time.Now()
	insts := s.Source.WarpTrace(cta, warp)
	d := time.Since(t0)
	if workloads.TraceCacheSnapshot().Builds > before {
		s.tr.build.add(d)
		s.tr.buildInst += int64(len(insts))
	}
	return insts
}

func (s *tracedSource) WarpOutcomes(cta, warp int, design config.Design, aggressive bool) []banks.Outcome {
	k := outKey{s.K.Name, s.K.BF, s.RegsAvail, s.Seed, cta, warp, design, aggressive}
	if s.tr.outSeen[k] {
		return s.Source.WarpOutcomes(cta, warp, design, aggressive)
	}
	s.tr.outSeen[k] = true
	t0 := time.Now()
	out := s.Source.WarpOutcomes(cta, warp, design, aggressive)
	s.tr.outcomes.add(time.Since(t0))
	s.tr.outInsts += int64(len(out))
	return out
}

// tracedMemory wraps the SM's DRAM channel, counting and recording every
// call for the DRAM replay.
type tracedMemory struct {
	*dram.DRAM
	tr *simTracer
}

func (m *tracedMemory) Read(now int64, addr uint32, bytes int) int64 {
	m.note(dramCall{now, addr, int32(bytes), false})
	return m.DRAM.Read(now, addr, bytes)
}

func (m *tracedMemory) Write(now int64, addr uint32, bytes int) {
	m.note(dramCall{now, addr, int32(bytes), true})
	m.DRAM.Write(now, addr, bytes)
}

func (m *tracedMemory) note(c dramCall) {
	m.tr.dramCount++
	if len(m.tr.dramCalls) < maxDRAMCalls {
		m.tr.dramCalls = append(m.tr.dramCalls, c)
	}
}

// resolve turns a RunSpec into the occupancy and trace source
// core.Runner.Run would simulate.
func resolve(r *core.Runner, spec core.RunSpec) (occupancy.Result, *workloads.Source, error) {
	k := spec.Kernel
	if spec.Seed == 0 {
		spec.Seed = r.Seed
	}
	regs := spec.RegsPerThread
	if regs <= 0 || regs > k.RegsNeeded {
		regs = k.RegsNeeded
	}
	occ := occupancy.Compute(k.Requirements(), spec.Config, regs)
	if occ.CTAs < 1 {
		return occ, nil, fmt.Errorf("%s does not fit %v", k.Name, spec.Config)
	}
	regsAvail := 0
	if regs < k.RegsNeeded {
		regsAvail = regs
	}
	return occ, &workloads.Source{K: k, RegsAvail: regsAvail, Seed: spec.Seed}, nil
}

// stepRun is one benchmark-driven NewSM/Start/Step/Finish run.
type stepRun struct {
	counters stats.Counters
	steps    int64
	el       time.Duration
	rs       replaySpec
}

// tracedRun simulates spec step by step with the wrapped source and
// memory; with tr nil it runs the same loop unwrapped.
func tracedRun(r *core.Runner, spec core.RunSpec, tr *simTracer) (*stepRun, error) {
	occ, src, err := resolve(r, spec)
	if err != nil {
		return nil, err
	}
	smSpec := sm.Spec{Config: spec.Config, Params: r.Params, Source: src, ResidentCTAs: occ.CTAs}
	if tr != nil {
		smSpec.Source = &tracedSource{src, tr}
		smSpec.Memory = &tracedMemory{dram.New(r.Params.DRAM), tr}
	}
	t0 := time.Now()
	m, err := sm.NewSM(smSpec)
	if err != nil {
		return nil, err
	}
	m.Start()
	var steps int64
	for !m.Done() {
		if err := m.Step(); err != nil {
			return nil, err
		}
		steps++
	}
	c := m.Finish()
	return &stepRun{counters: *c, steps: steps, el: time.Since(t0),
		rs: replaySpec{cfg: spec.Config, params: r.Params, src: src, ctas: occ.CTAs}}, nil
}

// layerTotals accumulates replayed layer costs over a set of runs.
type layerTotals struct {
	stepTime         time.Duration // traced step loops of the replayed runs
	steps, winst     int64
	refill, minReady spanSum
	walkTime         time.Duration // schedReplay loop time less Refill
	walks            int64
	loads            spanSum
	memsysTime       time.Duration
	loadLines        int64
	cacheTime        time.Duration
	cacheReads       int64
}

// replayLayers records one run and replays it through each component.
func (lt *layerTotals) replayLayers(run *stepRun, cacheBytes int) error {
	rec, err := record(run.rs)
	if err != nil {
		return err
	}
	if rec.winst != run.counters.WarpInsts {
		return fmt.Errorf("replay issued %d warp instructions, the SM %d", rec.winst, run.counters.WarpInsts)
	}
	lt.stepTime += run.el
	lt.steps += run.steps
	lt.winst += run.counters.WarpInsts
	loop, err := schedReplay(run.rs, rec, nil, nil)
	if err != nil {
		return err
	}
	var refill spanSum
	if _, err := schedReplay(run.rs, rec, &refill, nil); err != nil {
		return err
	}
	if _, err := schedReplay(run.rs, rec, nil, &lt.minReady); err != nil {
		return err
	}
	lt.refill.n += refill.n
	lt.refill.total += refill.total
	lt.walkTime += max(loop-refill.net(), 0)
	lt.walks += int64(len(rec.stepNow))
	lt.memsysTime += memsysReplay(run.rs, rec, &lt.loads)
	lt.loadLines += rec.loadLines
	if cacheBytes > 0 {
		lt.cacheTime += cacheReplay(cacheBytes, rec.lines)
		lt.cacheReads += int64(len(rec.lines))
	}
	return nil
}

// memsysShare is the share of step time the replayed loads explain.
func (lt *layerTotals) memsysShare() float64 {
	return float64(lt.loads.net()) / float64(lt.stepTime)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nsPer(d time.Duration, n int64) float64 { return ratio(float64(d), float64(n)) }

// simLayers measures the simulator layers over the sweep's cells: one
// cold traced pass (trace builds, bank outcomes), one warm traced pass
// (step loop, DRAM calls), and component replays until budget is spent
// (at least one cell per kernel). Traced counters must equal the
// set-up pass's. It returns the traced throughput.
func (s *sweep) simLayers(m metrics, budget time.Duration) (float64, error) {
	r := s.runner
	var points []point // the fork cell repeats a plain cell's spec
	for _, p := range s.points {
		if !p.fork {
			points = append(points, p)
		}
	}
	workloads.ResetTraceCache()
	cold := newSimTracer()
	snap0 := workloads.TraceCacheSnapshot()
	for _, p := range points {
		if _, err := tracedRun(r, p.spec, cold); err != nil {
			return 0, err
		}
	}
	warm := newSimTracer()
	runs := make([]*stepRun, len(points))
	var counters stats.Counters
	var tracedTime time.Duration
	for i, p := range points {
		run, err := tracedRun(r, p.spec, warm)
		if err != nil {
			return 0, err
		}
		runs[i] = run
		tracedTime += run.el
		counters.Add(&run.counters)
		var cerr error
		if h := counterHash(&run.counters); h != s.ref[p.label] {
			cerr = fmt.Errorf("%s %s: traced counters %s differ from Runner.Run's %s", s.name, p.label, h[:12], s.ref[p.label])
		}
		s.t.check(cerr)
	}
	snap1 := workloads.TraceCacheSnapshot()
	lookups, builds := snap1.Lookups-snap0.Lookups, snap1.Builds-snap0.Builds
	m.set("workloads.trace_build_ns_per_inst", nsPer(cold.build.net(), cold.buildInst), "ns")
	m.set("workloads.trace_cache_hit_ratio", ratio(float64(lookups-builds), float64(lookups)), "1")
	m.set("workloads.trace_cache_mb", float64(workloads.TraceCacheBytes())/(1<<20), "MiB")
	m.set("banks.outcomes_ns_per_inst", nsPer(cold.outcomes.net(), cold.outInsts), "ns")
	m.set("banks.conflict_cycles_per_kinst", ratio(1000*float64(counters.ConflictCycles), float64(counters.WarpInsts)), "cycles")
	m.set("cache.hit_ratio", ratio(float64(counters.CacheHits), float64(counters.CacheProbes)), "1")
	m.set("dram.calls_per_kinst", ratio(1000*float64(warm.dramCount), float64(counters.WarpInsts)), "count")
	m.set("dram.bytes_per_winst", ratio(float64(counters.DRAMBytes()), float64(counters.WarpInsts)), "B")
	m.set("dram.call_ns", nsPer(dramReplay(r.Params.DRAM, warm.dramCalls), int64(len(warm.dramCalls))), "ns")
	var steps int64
	for _, run := range runs {
		steps += run.steps
	}
	m.set("sm.step_ns", nsPer(tracedTime, steps), "ns")
	m.set("sm.steps_per_winst", ratio(float64(steps), float64(counters.WarpInsts)), "1")

	// Component replays, in a seeded order that interleaves kernels.
	var lt layerTotals
	kernels := map[string]bool{}
	start := time.Now()
	for _, i := range passOrder(s.seed, 0, len(points)) {
		p := points[i]
		if time.Since(start) > budget && kernels[p.spec.Kernel.Name] {
			continue
		}
		kernels[p.spec.Kernel.Name] = true
		if err := lt.replayLayers(runs[i], p.spec.Config.CacheBytes); err != nil {
			return 0, fmt.Errorf("%s %s: %w", s.name, p.label, err)
		}
	}
	m.set("sched.walk_ns", nsPer(lt.walkTime, lt.walks), "ns")
	m.set("sched.refill_ns", lt.refill.perCall(), "ns")
	m.set("dispatch.min_ready_ns", lt.minReady.perCall(), "ns")
	m.set("memsys.load_ns", lt.loads.perCall(), "ns")
	m.set("memsys.lines_per_load", ratio(float64(lt.loadLines), float64(lt.loads.n)), "lines")
	m.set("cache.read_ns", nsPer(lt.cacheTime, lt.cacheReads), "ns")
	// Refill contains MinReady; memsys contains its cache and DRAM.
	explained := lt.refill.net() + lt.walkTime + lt.memsysTime
	m.set("sm.unattributed_frac", 1-ratio(float64(explained), float64(lt.stepTime)), "1")
	return float64(counters.WarpInsts) / tracedTime.Seconds(), nil
}

// coreSpans times Runner.Baseline for every kernel of the matrix on a
// fresh Runner (warm traces, cold calibrations).
func (s *sweep) coreSpans(m metrics, runMs []float64) error {
	r := core.NewRunner()
	var base []float64
	seen := map[string]bool{}
	for _, p := range s.points {
		if seen[p.spec.Kernel.Name] {
			continue
		}
		seen[p.spec.Kernel.Name] = true
		t0 := time.Now()
		if _, err := r.Baseline(p.spec.Kernel); err != nil {
			return err
		}
		base = append(base, float64(time.Since(t0))/float64(time.Millisecond))
	}
	m.set("core.run_ms", median(runMs), "ms")
	m.set("core.baseline_ms", median(base), "ms")
	return nil
}

// forkSpans times Runner.Warm at warmShare of a run (the fork cell's, or
// else the first cell's) and Warm.Resume at every fork latency, checking
// that each resumed run equals a fresh run with the latency switched at
// the warm cycle.
func (s *sweep) forkSpans(m metrics) error {
	r := s.runner
	spec := s.points[0].spec
	for _, p := range s.points {
		if p.fork {
			spec = p.spec
		}
	}
	full, err := r.Run(spec)
	if err != nil {
		return err
	}
	ctx := context.Background()
	t0 := time.Now()
	w, err := r.Warm(ctx, spec, int64(warmShare*float64(full.Counters.Cycles)))
	if err != nil {
		return err
	}
	warmMs := float64(time.Since(t0)) / float64(time.Millisecond)
	var resume []float64
	for _, lat := range forkLatencies {
		params := r.Params
		params.DRAM.LatencyCycles = lat
		t0 := time.Now()
		res, err := w.Resume(ctx, r, params)
		resume = append(resume, float64(time.Since(t0))/float64(time.Millisecond))
		if err == nil {
			var exact *core.Result
			if exact, err = w.ResumeExact(ctx, r, params); err == nil && counterHash(exact.Counters) != counterHash(res.Counters) {
				err = fmt.Errorf("%s: resume at DRAM latency %d differs from the fresh run", s.name, lat)
			}
		}
		s.t.check(err)
	}
	m.set("snapshot.warm_ms", warmMs, "ms")
	m.set("snapshot.resume_ms", median(resume), "ms")
	return nil
}

// splitCheck measures the memsys share of step time on one cell per
// kernel of each sweep, and checks that it is larger on sweep-cache.
func splitCheck(m metrics, t *tally) error {
	shares := map[sweepKind]float64{}
	for _, kind := range []sweepKind{scratchSweep, cacheSweep} {
		r := core.NewRunner()
		var lt layerTotals
		seen := map[string]bool{}
		for _, p := range sweepMatrix(kind, defaultSeed) {
			if seen[p.spec.Kernel.Name] || p.fork {
				continue
			}
			seen[p.spec.Kernel.Name] = true
			if _, err := tracedRun(r, p.spec, nil); err != nil { // warm the trace cache
				return err
			}
			run, err := tracedRun(r, p.spec, nil)
			if err != nil {
				return err
			}
			rec, err := record(run.rs)
			if err != nil {
				return err
			}
			lt.stepTime += run.el
			memsysReplay(run.rs, rec, &lt.loads)
		}
		shares[kind] = lt.memsysShare()
	}
	m.set("memsys.step_share_scratch", shares[scratchSweep], "1")
	m.set("memsys.step_share_cache", shares[cacheSweep], "1")
	var err error
	if shares[cacheSweep] <= shares[scratchSweep] {
		err = fmt.Errorf("memsys share of step time is %.3f on sweep-cache, not above sweep-scratch's %.3f",
			shares[cacheSweep], shares[scratchSweep])
	}
	t.check(err)
	return nil
}

// passStats is one timed pass.
type passStats struct {
	rate  float64   // simulated warp instructions per CPU second
	allMs []float64 // CPU time of every simulation call
	// runWallMs and runWinst are the wall times and warp instructions of
	// the plain Runner.Run calls, for the traced run's comparison.
	runWallMs []float64
	runWinst  int64
}

// timed runs timed passes for at least d of wall time.
func (s *sweep) timed(d time.Duration) []passStats {
	var out []passStats
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		t0 := cpuTime()
		ops := s.pass(s.runner, passOrder(s.seed, pass, len(s.points)))
		cpu := cpuTime() - t0
		s.verify(ops)
		var ps passStats
		var winst int64
		for _, op := range ops {
			winst += op.winst
			ps.allMs = append(ps.allMs, float64(op.cpu)/float64(time.Millisecond))
			if !strings.Contains(op.label, "/fork") {
				ps.runWallMs = append(ps.runWallMs, float64(op.wall)/float64(time.Millisecond))
				ps.runWinst += op.winst
			}
		}
		ps.rate = float64(winst) / cpu.Seconds()
		out = append(out, ps)
	}
	return out
}

// runWall returns the wall times of the passes' plain Runner.Run calls
// and their throughput, the untraced counterpart of the traced step
// loop.
func runWall(ps []passStats) (ms []float64, rate float64) {
	var winst int64
	var sec float64
	for _, p := range ps {
		ms = append(ms, p.runWallMs...)
		winst += p.runWinst
		for _, x := range p.runWallMs {
			sec += x / 1000
		}
	}
	return ms, float64(winst) / sec
}

func (s *sweep) trace(d time.Duration) (metrics, error) {
	m := metrics{}
	runMs, runRate := runWall(s.timed(d / 4))
	if err := s.coreSpans(m, runMs); err != nil {
		return nil, err
	}
	traced, err := s.simLayers(m, d/4)
	if err != nil {
		return nil, err
	}
	m.set("trace.overhead_frac", 1-traced/runRate, "1")
	if err := s.forkSpans(m); err != nil {
		return nil, err
	}
	if err := splitCheck(m, &s.t); err != nil {
		return nil, err
	}
	if err := serviceLayers(m, &s.t, s.seed, d/3); err != nil {
		return nil, err
	}
	return m, nil
}
