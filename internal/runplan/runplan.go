// Package runplan turns API run requests into executable run matrices
// and executes them. It is the one place a request becomes a
// simulation:
//
//   - Resolve canonicalizes an api.RunRequest — kernels (needle@BF),
//     register and seed clamps, the machine description, and the
//     alloc_total_kb / fermi_total_kb overrides — into concrete core
//     inputs, the SHA-256 cache key they hash to, and the runner key of
//     their (timing, energy) half.
//   - ResolveBatch resolves a batch and wires warm-prefix groups; Sweep
//     compiles a sweep request into the batch of its points.
//   - Simulate executes one resolved run and builds its api.RunResponse;
//     Execute fans a resolved matrix out through parallel.Map into
//     api.BatchItems.
//
// The simulation service (internal/serve) adds HTTP, caching,
// persistence, coalescing, and admission around Simulate; cmd/sweep and
// compare campaigns (internal/campaign) call Execute directly. Because
// every path resolves, groups, and simulates through this package, a
// matrix run locally and the same matrix run as a service job produce
// identical responses by construction.
package runplan

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/occupancy"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/sm"
	"repro/internal/workloads"
)

// Run is an api.RunRequest after canonicalization: the concrete kernels,
// configuration, and parameters, plus the cache key they hash to and the
// runner key the (timing, energy) half hashes to.
type Run struct {
	// Streams holds the resolved co-resident kernels: one for a plain
	// request (or a one-entry streams list, the same run), several for
	// a multi-tenant mix.
	Streams []Stream
	Config  config.MemConfig
	Params  sm.Params
	Energy  energy.Params
	// Canon is the fully filled machine description (machine.Describe).
	Canon machine.Description
	// Probe attaches the observability probe at ProbeInterval cycles.
	Probe         bool
	ProbeInterval int64
	// Timeout is the request's own deadline (timeout_ms); zero leaves
	// the deadline to the caller.
	Timeout time.Duration
	// Key is the canonical result key; RunnerKey hashes the (timing,
	// energy) half that selects a Runner.
	Key       string
	RunnerKey string
	// WarmCycles, when positive, routes the run through its batch's
	// shared warm prefix (BatchRequest.WarmCycles): the group's prefix
	// is computed once and the run copy-on-write forks it under its own
	// divergable timing.
	WarmCycles int64
	warm       *warmEntry
	// ProbeSink, when non-nil, receives probe NDJSON bytes live while
	// the simulation runs, in addition to the response body.
	ProbeSink io.Writer
}

// Stream is one canonicalized stream of a request.
type Stream struct {
	Kernel *workloads.Kernel
	Regs   int
	Seed   uint64
}

// canonicalRun is the hashed form of a resolved run. Field order is the
// serialization order, so changing this struct changes every key. A
// one-stream run fills Kernel/BF/Regs/Seed; a mix leaves them zero and
// fills Streams, which trails with omitempty so every single-kernel
// request keeps its exact key.
type canonicalRun struct {
	Kernel   string              `json:"kernel"`
	BF       int                 `json:"bf"`
	Machine  machine.Description `json:"machine"`
	Regs     int                 `json:"regs"`
	Seed     uint64              `json:"seed"`
	Probe    bool                `json:"probe"`
	ProbeIvl int64               `json:"probe_interval,omitempty"`
	Streams  []canonicalStream   `json:"streams,omitempty"`
}

// canonicalStream is the hashed form of one resolved stream: the
// concrete kernel and the clamps the simulator applies, so stream
// spellings of the same run share a key.
type canonicalStream struct {
	Kernel string `json:"kernel"`
	BF     int    `json:"bf"`
	Regs   int    `json:"regs"`
	Seed   uint64 `json:"seed"`
}

// Hash turns canonical request bytes into the hex SHA-256 result key
// shared by the service's LRU and its persistent store.
func Hash(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// Kernel resolves a kernel name: needle honors an explicit blocking
// factor, every other name must be in the registry (and ignores bf).
func Kernel(name string, bf int) (*workloads.Kernel, error) {
	if name == "needle" && bf != 0 {
		return workloads.NeedleKernel(bf), nil
	}
	return workloads.ByName(name)
}

// resolveStream canonicalizes one stream, applying exactly the clamps
// the simulator applies, so requests that spell the same run
// differently share a key.
func resolveStream(sr api.StreamRequest) (Stream, error) {
	if sr.Kernel == "" {
		return Stream{}, fmt.Errorf("missing \"kernel\" (GET /v1/kernels lists the registry)")
	}
	k, err := Kernel(sr.Kernel, sr.BF)
	if err != nil {
		return Stream{}, err
	}
	st := Stream{Kernel: k, Regs: sr.RegsPerThread, Seed: sr.Seed}
	if st.Regs <= 0 || st.Regs > k.RegsNeeded {
		st.Regs = k.RegsNeeded
	}
	if st.Seed == 0 {
		st.Seed = 1 // core.Runner's default seed
	}
	return st, nil
}

// Resolve canonicalizes one request. A plain request is a one-stream
// list; with several streams, each stream's errors name its index, and
// alloc_total_kb/fermi_total_kb partition jointly for the whole mix.
// Errors are the client's (the service answers them with 400).
func Resolve(req api.RunRequest) (*Run, error) {
	if len(req.Streams) > 0 && (req.Kernel != "" || req.BF != 0 || req.RegsPerThread != 0 || req.Seed != 0) {
		return nil, fmt.Errorf("\"streams\" is mutually exclusive with kernel/bf/regs_per_thread/seed")
	}
	entries := req.StreamList()
	run := &Run{Streams: make([]Stream, len(entries))}
	reqs := make([]config.KernelRequirements, len(entries))
	for i, sr := range entries {
		st, err := resolveStream(sr)
		if err != nil {
			if len(entries) > 1 {
				err = fmt.Errorf("streams[%d]: %w", i, err)
			}
			return nil, err
		}
		run.Streams[i] = st
		reqs[i] = st.Kernel.Requirements()
	}
	cfg, params, eparams, err := req.Machine.Resolve()
	if err != nil {
		return nil, err
	}
	if req.AllocTotalKB > 0 && req.FermiTotalKB > 0 {
		return nil, fmt.Errorf("at most one of alloc_total_kb and fermi_total_kb")
	}
	if req.AllocTotalKB > 0 {
		cfg, err = config.Allocate(req.AllocTotalKB<<10, req.Machine.MaxThreads, reqs...)
		if err != nil {
			return nil, err
		}
	}
	if req.FermiTotalKB > 0 {
		if req.FermiTotalKB<<10 <= config.BaselineRFBytes {
			return nil, fmt.Errorf("fermi_total_kb must exceed the fixed %dKB register file",
				config.BaselineRFBytes>>10)
		}
		cfg = config.ChooseFermi(req.FermiTotalKB<<10-config.BaselineRFBytes, req.Machine.MaxThreads, reqs...)
	}
	run.Config, run.Params, run.Energy = cfg, params, eparams
	run.Canon = machine.Describe(cfg, params, eparams)
	if req.Probe {
		run.Probe = true
		run.ProbeInterval = req.ProbeIntervalCycles
		if run.ProbeInterval <= 0 {
			run.ProbeInterval = probe.DefaultInterval
		}
	}
	if req.TimeoutMS > 0 {
		run.Timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	canon := canonicalRun{Machine: run.Canon, Probe: run.Probe, ProbeIvl: run.ProbeInterval}
	if len(run.Streams) == 1 {
		st := run.Streams[0]
		canon.Kernel, canon.BF, canon.Regs, canon.Seed = st.Kernel.Name, st.Kernel.BF, st.Regs, st.Seed
	} else {
		for _, st := range run.Streams {
			canon.Streams = append(canon.Streams, canonicalStream{Kernel: st.Kernel.Name, BF: st.Kernel.BF, Regs: st.Regs, Seed: st.Seed})
		}
	}
	ck, err := json.Marshal(canon)
	if err != nil {
		return nil, err
	}
	run.Key = Hash(ck)
	// The runner depends only on the (timing, energy) half of the
	// machine; zero the configuration half so runs under different
	// capacities share one Runner and its baseline calibrations.
	rk := run.Canon
	rk.Design, rk.RFKB, rk.SharedKB, rk.CacheKB, rk.MaxThreads = "", 0, 0, 0, 0
	rkb, err := json.Marshal(rk)
	if err != nil {
		return nil, err
	}
	run.RunnerKey = string(rkb)
	return run, nil
}

// Label names the run for notes and error messages: the "+"-joined
// stream kernel names.
func (r *Run) Label() string {
	names := make([]string, len(r.Streams))
	for i, st := range r.Streams {
		names[i] = st.Kernel.Name
	}
	return strings.Join(names, "+")
}

// Spec is the core spec the resolved run simulates.
func (r *Run) Spec() core.RunSpec {
	streams := make([]core.StreamSpec, len(r.Streams))
	for i, st := range r.Streams {
		streams[i] = core.StreamSpec{Kernel: st.Kernel, RegsPerThread: st.Regs, Seed: st.Seed}
	}
	return core.RunSpec{Config: r.Config, Streams: streams}
}

// ResolveBatch canonicalizes a batch request's runs, wiring warm-prefix
// groups. Errors are the client's.
func ResolveBatch(req api.BatchRequest) ([]*Run, error) {
	if len(req.Runs) == 0 {
		return nil, fmt.Errorf("empty batch: \"runs\" must list at least one run")
	}
	if req.WarmCycles < 0 {
		return nil, fmt.Errorf("warm_cycles must be non-negative")
	}
	runs := make([]*Run, len(req.Runs))
	groups := make(map[string]*warmEntry)
	for i, rq := range req.Runs {
		run, err := Resolve(rq)
		if err != nil {
			return nil, fmt.Errorf("runs[%d]: %w", i, err)
		}
		// Warm-prefix sharing: group prefix-compatible unprobed items.
		// Fork-at-K results differ from cycle-0 results, so the cache
		// key grows a warm suffix; probed items keep the exact path and
		// their plain key.
		if req.WarmCycles > 0 && !run.Probe && len(run.Streams) == 1 {
			gk := warmGroupKey(run, req.WarmCycles)
			e := groups[gk]
			if e == nil {
				e = &warmEntry{seed: run, cycles: req.WarmCycles}
				groups[gk] = e
			}
			run.warm = e
			run.WarmCycles = req.WarmCycles
			run.Key = Hash(fmt.Appendf(nil, "%s\x00warm\x00%d", run.Key, req.WarmCycles))
		}
		runs[i] = run
	}
	return runs, nil
}

// warmEntry computes one prefix-defining group's warm prefix exactly
// once per batch. The prefix simulates under the group's prefix-defining
// parameters with default divergable timing, so a group's Warm — and
// therefore every forked result — is independent of which batch items
// formed the group.
type warmEntry struct {
	once   sync.Once
	seed   *Run // first group member; prefix-defining fields only
	cycles int64
	warm   *core.Warm
	err    error
}

// warmPrefix returns (computing once) the group's warm prefix. It runs
// without the item's context: the result is shared by every group
// member, so it must never memoize one caller's cancellation. A
// positive timeout bounds the work instead.
func (e *warmEntry) warmPrefix(timeout time.Duration) (*core.Warm, error) {
	e.once.Do(func() {
		params := sm.DefaultParams()
		params.Scheduler = e.seed.Params.Scheduler
		params.ActiveWarps = e.seed.Params.ActiveWarps
		params.GreedyScheduler = e.seed.Params.GreedyScheduler
		params.AggressiveScatter = e.seed.Params.AggressiveScatter
		r := core.NewRunner()
		r.Params = params
		ctx := context.Background()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		e.warm, e.err = r.Warm(ctx, e.seed.Spec(), e.cycles)
	})
	return e.warm, e.err
}

// canonicalWarmGroup hashes the prefix-defining half of a resolved run:
// requests that agree on these fields share one warm prefix.
type canonicalWarmGroup struct {
	Kernel      string `json:"kernel"`
	BF          int    `json:"bf"`
	Design      string `json:"design"`
	RFKB        int    `json:"rf_kb"`
	SharedKB    int    `json:"shared_kb"`
	CacheKB     int    `json:"cache_kb"`
	MaxThreads  int    `json:"max_threads"`
	Regs        int    `json:"regs"`
	Seed        uint64 `json:"seed"`
	Scheduler   string `json:"scheduler"`
	ActiveWarps int    `json:"active_warps"`
	Greedy      bool   `json:"greedy"`
	Scatter     bool   `json:"scatter"`
	Cycles      int64  `json:"cycles"`
}

// warmGroupKey derives the prefix-defining group key for warm sharing
// (one-stream runs only).
func warmGroupKey(run *Run, cycles int64) string {
	st := run.Streams[0]
	b, _ := json.Marshal(canonicalWarmGroup{
		Kernel:      st.Kernel.Name,
		BF:          st.Kernel.BF,
		Design:      run.Canon.Design,
		RFKB:        run.Canon.RFKB,
		SharedKB:    run.Canon.SharedKB,
		CacheKB:     run.Canon.CacheKB,
		MaxThreads:  run.Canon.MaxThreads,
		Regs:        st.Regs,
		Seed:        st.Seed,
		Scheduler:   string(run.Params.Scheduler),
		ActiveWarps: run.Params.ActiveWarps,
		Greedy:      run.Params.GreedyScheduler,
		Scatter:     run.Params.AggressiveScatter,
		Cycles:      cycles,
	})
	return string(b)
}

// ParamAxes and capacityAxes are the legal SweepRequest resources.
// Parameter axes are divergable across a snapshot and may share a warm
// prefix; capacity axes (values in KB) define the warm-up history and
// may not.
var (
	ParamAxes    = map[string]bool{"mshr": true, "dramlat": true, "drambw": true}
	capacityAxes = map[string]bool{"rf": true, "shared": true, "cache": true}
)

// Sweep compiles a SweepRequest into the equivalent BatchRequest — one
// run per point, the swept field overwritten on the base machine — plus
// a human-readable note. Errors are the client's.
func Sweep(req api.SweepRequest) (api.BatchRequest, string, error) {
	if req.Kernel == "" {
		return api.BatchRequest{}, "", fmt.Errorf("sweep: missing \"kernel\"")
	}
	k, err := Kernel(req.Kernel, req.BF)
	if err != nil {
		return api.BatchRequest{}, "", fmt.Errorf("sweep: %v", err)
	}
	isParam := ParamAxes[req.Resource]
	if !isParam && !capacityAxes[req.Resource] {
		return api.BatchRequest{}, "", fmt.Errorf(
			"sweep: unknown resource %q (want rf | shared | cache | mshr | dramlat | drambw)", req.Resource)
	}
	if req.WarmCycles != 0 && !isParam {
		return api.BatchRequest{}, "", fmt.Errorf(
			"sweep: warm_cycles needs a parameter resource (mshr | dramlat | drambw); capacities define the warm-up history and cannot be forked")
	}
	values, err := req.Values()
	if err != nil {
		return api.BatchRequest{}, "", fmt.Errorf("sweep: %v", err)
	}
	base := req.Machine
	if base.RFKB == 0 && base.SharedKB == 0 && base.CacheKB == 0 {
		// An entirely unspecified split takes the sweep baseline —
		// full-occupancy RF, unbounded shared, baseline cache — so only
		// the swept axis constrains the kernel. Capacities round up to
		// whole KB.
		kb := func(b int) int { return (b + 1023) >> 10 }
		base.RFKB = kb(occupancy.FullOccupancyRFBytes(k.RegsNeeded))
		base.SharedKB = kb(core.UnboundedShared(k))
		base.CacheKB = config.BaselineCacheBytes >> 10
	}
	runs := make([]api.RunRequest, len(values))
	for i, v := range values {
		d := base
		switch req.Resource {
		case "rf":
			d.RFKB = v
		case "shared":
			d.SharedKB = v
		case "cache":
			d.CacheKB = v
		case "mshr":
			d.Timing.MaxMSHRs = v
		case "dramlat":
			d.Timing.DRAMLatency = int64(v)
		case "drambw":
			d.Timing.DRAMBytesPerCycle = v
		}
		runs[i] = api.RunRequest{
			Kernel:        req.Kernel,
			BF:            req.BF,
			Machine:       d,
			RegsPerThread: req.RegsPerThread,
			Seed:          req.Seed,
			TimeoutMS:     req.TimeoutMS,
		}
	}
	note := fmt.Sprintf("sweep %s %s %d..%d step %s (%d points)",
		k.Name, req.Resource, req.From, req.To, req.Step, len(values))
	return api.BatchRequest{Runs: runs, WarmCycles: req.WarmCycles}, note, nil
}

// Runners memoizes one core.Runner per distinct (timing, energy)
// parameter set (Run.RunnerKey), so runs under different capacities
// share a Runner and its per-kernel baseline calibrations. It is
// bounded: flushed entirely when it grows past its cap (results never
// depend on Runner reuse, only on the spec). Safe for concurrent use.
type Runners struct {
	mu      sync.Mutex
	runners map[string]*core.Runner
}

// runnersCap bounds the memoized Runner map.
const runnersCap = 64

// Get returns (memoizing) the Runner for a resolved run's timing and
// energy parameters.
func (rs *Runners) Get(run *Run) *core.Runner {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if r, ok := rs.runners[run.RunnerKey]; ok {
		return r
	}
	if rs.runners == nil || len(rs.runners) >= runnersCap {
		rs.runners = make(map[string]*core.Runner, runnersCap)
	}
	r := core.NewRunner()
	r.Params = run.Params
	r.Energy.P = run.Energy
	rs.runners[run.RunnerKey] = r
	return r
}

// Simulate executes one resolved run under ctx and builds its response.
// A warm run forks its group's shared prefix (computed once, bounded by
// warmTimeout when positive) under the run's own divergable timing;
// energy calibration comes from the run's own Runner either way. Errors
// are the simulator's: core.IsInfeasible marks a configuration that
// cannot fit, and context errors a missed deadline or cancellation.
func Simulate(ctx context.Context, run *Run, runners *Runners, warmTimeout time.Duration) (*api.RunResponse, error) {
	var (
		opts   []core.RunOption
		ndjson bytes.Buffer
		res    *core.Result
		err    error
	)
	if run.Probe {
		sink := io.Writer(&ndjson)
		if run.ProbeSink != nil {
			sink = io.MultiWriter(&ndjson, run.ProbeSink)
		}
		opts = append(opts, core.WithProbe(probe.New(run.ProbeInterval, sink)))
	}
	if run.warm != nil {
		var warm *core.Warm
		if warm, err = run.warm.warmPrefix(warmTimeout); err == nil {
			res, err = warm.Resume(ctx, runners.Get(run), run.Params)
		}
	} else {
		res, err = runners.Get(run).RunCtx(ctx, run.Spec(), opts...)
	}
	if err != nil {
		return nil, err
	}
	return response(run, res, ndjson.String()), nil
}

// response builds the RunResponse of a completed run.
func response(run *Run, res *core.Result, probeNDJSON string) *api.RunResponse {
	resp := &api.RunResponse{
		Key:    run.Key,
		Kernel: run.Label(),
		Config: api.ConfigInfo{
			Design:      run.Config.Design.String(),
			RFBytes:     run.Config.RFBytes,
			SharedBytes: run.Config.SharedBytes,
			CacheBytes:  run.Config.CacheBytes,
			MaxThreads:  run.Config.MaxThreads,
		},
		Occupancy: api.OccupancyInfo{
			CTAs:    res.Occupancy.CTAs,
			Threads: res.Occupancy.Threads,
			Warps:   res.Occupancy.Warps,
			Limiter: res.Occupancy.Limiter.String(),
		},
		Counters: res.Counters,
		IPC:      res.IPC(),
		WarpIPC:  res.Counters.IPC(),
		Energy: api.EnergyInfo{
			MRF: res.Energy.MRF, ORF: res.Energy.ORF, LRF: res.Energy.LRF,
			Shared: res.Energy.Shared, Cache: res.Energy.Cache, Tags: res.Energy.Tags,
			Other: res.Energy.Other, Leak: res.Energy.Leak, DRAM: res.Energy.DRAM,
			Total: res.Energy.Total(),
		},
		ProbeNDJSON: probeNDJSON,
		WarmCycles:  run.WarmCycles,
	}
	if len(run.Streams) == 1 {
		// A one-stream run keeps the plain response shape: a needle
		// run's blocking factor, and no per-stream records.
		if k := run.Streams[0].Kernel; k.Name == "needle" {
			resp.BF = k.BF
		}
		return resp
	}
	for i, sr := range res.Streams {
		st := run.Streams[i]
		counters := sr.Counters // copy: the response keeps a stable pointer
		out := api.StreamResult{
			Kernel: sr.Kernel,
			Occupancy: api.OccupancyInfo{
				CTAs:    sr.Occupancy.CTAs,
				Threads: sr.Occupancy.Threads,
				Warps:   sr.Occupancy.Warps,
				Limiter: sr.Occupancy.Limiter.String(),
			},
			Counters: &counters,
			IPC:      counters.ThreadIPC(),
			WarpIPC:  counters.IPC(),
		}
		if st.Kernel.Name == "needle" {
			out.BF = st.Kernel.BF
		}
		resp.Streams = append(resp.Streams, out)
	}
	return resp
}

// Execute runs a resolved matrix locally, fanned out through
// parallel.Map, into one BatchItem per run in run order — the items a
// service batch or job of the same runs returns. A run whose
// configuration cannot fit settles as an infeasible item (the service's
// 422); any other failure aborts. Runs honor their own Timeout and
// otherwise have no deadline.
func Execute(runs []*Run) ([]api.BatchItem, error) {
	runners := &Runners{}
	return parallel.Map(len(runs), func(i int) (api.BatchItem, error) {
		run := runs[i]
		ctx := context.Background()
		if run.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, run.Timeout)
			defer cancel()
		}
		resp, err := Simulate(ctx, run, runners, 0)
		switch {
		case core.IsInfeasible(err):
			return api.BatchItem{
				Error:  &api.Error{Code: api.CodeInfeasible, Message: err.Error()},
				Status: http.StatusUnprocessableEntity,
			}, nil
		case err != nil:
			return api.BatchItem{}, fmt.Errorf("%s: %w", run.Label(), err)
		}
		return api.BatchItem{Result: resp}, nil
	})
}
