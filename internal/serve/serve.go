// Package serve is the simulation service: a long-running HTTP/JSON
// front end that turns the one-shot CLI workflow (smsim, paper, sweep)
// into a shared, amortized process — the repository's
// inference-serving-shaped component: batching, caching, durable async
// jobs, backpressure, and determinism under concurrency.
//
// The public surface — every request/response DTO, the error envelope,
// and a thin client — lives in the api package; this package is the
// implementation. Endpoints (all bodies JSON):
//
//	POST   /v1/run              one kernel simulation       -> api.RunResponse
//	POST   /v1/batch            many simulations, fanned out-> api.BatchResponse
//	POST   /v1/experiment       a named paper experiment    -> api.ExperimentResponse
//	POST   /v1/jobs             submit an async job (202)   -> api.Job
//	GET    /v1/jobs             list jobs                   -> []api.Job
//	GET    /v1/jobs/{id}        poll status and progress    -> api.Job
//	GET    /v1/jobs/{id}/events live progress stream           (SSE)
//	GET    /v1/jobs/{id}/result final result bytes
//	DELETE /v1/jobs/{id}        cancel                      -> api.Job
//	GET    /v1/kernels          the benchmark registry      -> []api.KernelInfo
//	GET    /healthz             liveness
//	GET    /metrics             counters and histograms     -> api.Snapshot
//
// Four properties define the service:
//
//   - Canonical result caching. Every run request is canonicalized —
//     machine JSON resolved and re-rendered with defaults filled and
//     aliases collapsed (machine.Describe), kernel and register budget
//     clamped the way the simulator clamps them — and hashed into a
//     deterministic SHA-256 key. Completed response bodies are memoized
//     in a bounded LRU keyed by that hash, layered over the process-wide
//     trace cache (internal/workloads), so a repeated request is served
//     from memory with a byte-identical body. Identical requests in
//     flight at the same time are coalesced: one simulates, the rest
//     wait for its bytes. The X-Cache header says which path answered:
//     hit, stored, coalesced, or miss.
//
//   - Durable results. With Options.DataDir set, the same canonical key
//     addresses a persistent content-addressed store (internal/store)
//     underneath the LRU: completed bodies are written once, replayed
//     across restarts, and shared by the sync endpoints and the job
//     engine alike. This is what makes jobs resumable — a restarted
//     server re-enters persisted jobs (internal/jobs) and their already
//     completed items are answered from the store instead of
//     re-simulated.
//
//   - Bounded admission. A parallel.Gate bounds how many synchronous
//     requests simulate concurrently, with a bounded wait queue behind
//     the slots; beyond that the service answers 429 with a Retry-After
//     header and a retry_after_s hint in the envelope instead of
//     queueing without bound. Async jobs run under their own gate
//     (Options.JobSlots) so a long sweep job cannot starve interactive
//     requests of queue slots. Batch and job items fan out through
//     parallel.Map under the process worker budget (parallel.SetWorkers),
//     which keeps assembled bodies byte-identical for every worker
//     count. Per-request deadlines flow through core.RunCtx into the
//     simulator's cycle loop; an exceeded deadline answers 504.
//
//   - Deterministic bodies and errors. The simulator is deterministic,
//     responses are marshaled once and replayed as raw bytes, and
//     nothing time- or order-dependent is ever written into a response
//     body (timing lives in headers and /metrics), so identical
//     requests always produce identical bytes — including a job's
//     final result versus the equivalent synchronous call. Every
//     non-2xx response is the one envelope shape api.ErrorBody with a
//     stable machine-readable code.
//
// cmd/smserve wires this package to flags, an *http.Server, and
// SIGTERM-graceful draining.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/jobs"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/probe"
	"repro/internal/sched"
	"repro/internal/sm"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Options configures a Server. The zero value selects the defaults
// noted on each field.
type Options struct {
	// InFlight bounds concurrently simulating synchronous requests (gate
	// slots); default 2. Total simulation goroutines are bounded by
	// InFlight times the parallel.SetWorkers budget batch items fan out
	// under.
	InFlight int
	// Queue bounds requests waiting behind the slots; beyond it the
	// service answers 429. 0 takes the default of 64; negative means no
	// queue at all (reject the moment the slots are busy).
	Queue int
	// CacheEntries bounds the result LRU. Default 256.
	CacheEntries int
	// DefaultTimeout is the per-request simulation deadline when the
	// request does not set timeout_ms. Default 60s.
	DefaultTimeout time.Duration
	// DataDir enables persistence: completed result bodies under
	// <DataDir>/results (content-addressed by canonical key) and job
	// records under <DataDir>/jobs. Empty runs fully in-memory — jobs
	// still work but die with the process.
	DataDir string
	// JobSlots bounds concurrently executing async jobs (default 2);
	// JobQueue bounds jobs waiting behind them (default 1024). Jobs
	// admit through their own gate, not the synchronous one.
	JobSlots int
	JobQueue int

	// execWrap, when set, wraps the job engine's item executor — a test
	// hook (package-internal) for deterministic kill/restart tests.
	execWrap func(jobs.Exec) jobs.Exec
}

func (o Options) withDefaults() Options {
	if o.InFlight < 1 {
		o.InFlight = 2
	}
	if o.Queue == 0 {
		o.Queue = 64
	}
	if o.Queue < 0 {
		o.Queue = 0
	}
	if o.CacheEntries < 1 {
		o.CacheEntries = 256
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	return o
}

// Server is the simulation service. Create one with New, mount Handler
// on an *http.Server, and Close it on shutdown; Server is safe for
// concurrent use.
type Server struct {
	opts    Options
	gate    *parallel.Gate
	cache   *resultCache
	store   *store.Store // nil without DataDir
	engine  *jobs.Engine
	metrics metrics

	// runners memoizes one core.Runner per distinct (timing, energy)
	// parameter set so baseline calibrations are shared across requests
	// to the same machine. Bounded like the trace cache: flushed
	// entirely when it grows past runnerCacheCap (results never depend
	// on Runner reuse, only on the spec).
	runnersMu sync.Mutex
	runners   map[string]*core.Runner

	// flight coalesces concurrent identical requests onto one
	// computation.
	flightMu sync.Mutex
	flight   map[string]*flightCall

	mux *http.ServeMux
}

// runnerCacheCap bounds the memoized Runner map.
const runnerCacheCap = 64

type flightCall struct {
	done   chan struct{}
	status int
	body   []byte
}

// New returns a Server with the given options. With Options.DataDir it
// opens (creating if needed) the persistent result store and job
// directory, and resumes any persisted unfinished jobs.
func New(opts Options) (*Server, error) {
	s := &Server{
		opts:    opts.withDefaults(),
		runners: make(map[string]*core.Runner),
		flight:  make(map[string]*flightCall),
	}
	s.gate = parallel.NewGate(s.opts.InFlight, s.opts.Queue)
	s.cache = newResultCache(s.opts.CacheEntries)
	s.metrics.start = time.Now()

	jobDir := ""
	if s.opts.DataDir != "" {
		st, err := store.Open(filepath.Join(s.opts.DataDir, "results"))
		if err != nil {
			return nil, fmt.Errorf("serve: opening result store: %w", err)
		}
		s.store = st
		jobDir = filepath.Join(s.opts.DataDir, "jobs")
	}
	exec := s.jobExec
	if s.opts.execWrap != nil {
		exec = s.opts.execWrap(exec)
	}
	engine, err := jobs.New(jobs.Options{
		Dir:     jobDir,
		Slots:   s.opts.JobSlots,
		Queue:   s.opts.JobQueue,
		Resolve: s.jobResolve,
		Exec:    exec,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: starting job engine: %w", err)
	}
	s.engine = engine

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the job engine. Running jobs are abandoned exactly as a
// kill would abandon them — their persisted records stay unfinished and
// the next New on the same DataDir resumes them; completed items are
// not lost (they live in the result store).
func (s *Server) Close() {
	s.engine.Close()
}

// resolvedRun is an api.RunRequest after canonicalization: the concrete
// kernels, configuration, and parameters, plus the cache key they hash
// to and the runner key the (timing, energy) half hashes to.
type resolvedRun struct {
	// streams holds the resolved co-resident kernels: one for a plain
	// request (or a one-entry streams list, the same run), several for
	// a multi-tenant mix.
	streams   []resolvedStream
	cfg       config.MemConfig
	params    sm.Params
	eparams   energy.Params
	canon     machine.Description
	probe     bool
	probeIvl  int64
	timeout   time.Duration
	key       string
	runnerKey string
	// warm, when non-nil, routes the run through the shared warm prefix
	// (batch warm_cycles): the group's Warm is computed once and the run
	// copy-on-write forks it under its own divergable timing.
	warm       *warmEntry
	warmCycles int64
	// probeSink, when non-nil, receives probe NDJSON bytes live while
	// the simulation runs (the job engine's probe event stream), in
	// addition to the response body.
	probeSink io.Writer
}

// warmEntry computes one prefix-defining group's warm prefix exactly
// once per batch. The prefix simulates under the group's prefix-defining
// parameters with default divergable timing, so a group's Warm — and
// therefore every forked result — is independent of which batch items
// formed the group.
type warmEntry struct {
	once   sync.Once
	seed   *resolvedRun // first group member; prefix-defining fields only
	cycles int64
	warm   *core.Warm
	err    error
}

// warmPrefix returns (computing once) the group's warm prefix. It runs
// without the item's context: the result is shared by every group
// member — and by later batches via the per-item cache — so it must
// never memoize one caller's cancellation. The server default timeout
// bounds the work instead.
func (e *warmEntry) warmPrefix(timeout time.Duration) (*core.Warm, error) {
	e.once.Do(func() {
		params := sm.DefaultParams()
		params.Scheduler = e.seed.params.Scheduler
		params.ActiveWarps = e.seed.params.ActiveWarps
		params.GreedyScheduler = e.seed.params.GreedyScheduler
		params.AggressiveScatter = e.seed.params.AggressiveScatter
		r := core.NewRunner()
		r.Params = params
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		e.warm, e.err = r.Warm(ctx, e.seed.runSpec(), e.cycles)
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
func warmGroupKey(rr *resolvedRun, cycles int64) string {
	st := rr.streams[0]
	b, _ := json.Marshal(canonicalWarmGroup{
		Kernel:      st.kernel.Name,
		BF:          st.kernel.BF,
		Design:      rr.canon.Design,
		RFKB:        rr.canon.RFKB,
		SharedKB:    rr.canon.SharedKB,
		CacheKB:     rr.canon.CacheKB,
		MaxThreads:  rr.canon.MaxThreads,
		Regs:        st.regs,
		Seed:        st.seed,
		Scheduler:   string(rr.params.Scheduler),
		ActiveWarps: rr.params.ActiveWarps,
		Greedy:      rr.params.GreedyScheduler,
		Scatter:     rr.params.AggressiveScatter,
		Cycles:      cycles,
	})
	return string(b)
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

// resolvedStream is one canonicalized stream of a request.
type resolvedStream struct {
	kernel *workloads.Kernel
	regs   int
	seed   uint64
}

// resolveStream canonicalizes one stream, applying exactly the clamps
// the simulator applies, so requests that spell the same run
// differently share a key.
func resolveStream(sr api.StreamRequest) (resolvedStream, error) {
	if sr.Kernel == "" {
		return resolvedStream{}, fmt.Errorf("missing \"kernel\" (GET /v1/kernels lists the registry)")
	}
	var k *workloads.Kernel
	if sr.Kernel == "needle" && sr.BF != 0 {
		k = workloads.NeedleKernel(sr.BF)
	} else {
		var err error
		if k, err = workloads.ByName(sr.Kernel); err != nil {
			return resolvedStream{}, err
		}
	}
	st := resolvedStream{kernel: k, regs: sr.RegsPerThread, seed: sr.Seed}
	if st.regs <= 0 || st.regs > k.RegsNeeded {
		st.regs = k.RegsNeeded
	}
	if st.seed == 0 {
		st.seed = 1 // core.Runner's default seed
	}
	return st, nil
}

// label names the run for notes and error messages: the "+"-joined
// stream kernel names.
func (rr *resolvedRun) label() string {
	names := make([]string, len(rr.streams))
	for i, st := range rr.streams {
		names[i] = st.kernel.Name
	}
	return strings.Join(names, "+")
}

// runSpec is the core spec the resolved run simulates.
func (rr *resolvedRun) runSpec() core.RunSpec {
	streams := make([]core.StreamSpec, len(rr.streams))
	for i, st := range rr.streams {
		streams[i] = core.StreamSpec{Kernel: st.kernel, RegsPerThread: st.regs, Seed: st.seed}
	}
	return core.RunSpec{Config: rr.cfg, Streams: streams}
}

// resolve canonicalizes one request. A plain request is a one-stream
// list; with several streams, each stream's errors name its index, and
// alloc_total_kb/fermi_total_kb partition jointly for the whole mix.
// Errors are client errors (400).
func (s *Server) resolve(req api.RunRequest) (*resolvedRun, error) {
	if len(req.Streams) > 0 && (req.Kernel != "" || req.BF != 0 || req.RegsPerThread != 0 || req.Seed != 0) {
		return nil, fmt.Errorf("\"streams\" is mutually exclusive with kernel/bf/regs_per_thread/seed")
	}
	entries := req.StreamList()
	rr := &resolvedRun{streams: make([]resolvedStream, len(entries))}
	reqs := make([]config.KernelRequirements, len(entries))
	for i, sr := range entries {
		st, err := resolveStream(sr)
		if err != nil {
			if len(entries) > 1 {
				err = fmt.Errorf("streams[%d]: %w", i, err)
			}
			return nil, err
		}
		rr.streams[i] = st
		reqs[i] = st.kernel.Requirements()
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
	rr.cfg, rr.params, rr.eparams = cfg, params, eparams
	rr.canon = machine.Describe(cfg, params, eparams)
	if req.Probe {
		rr.probe = true
		rr.probeIvl = req.ProbeIntervalCycles
		if rr.probeIvl <= 0 {
			rr.probeIvl = probe.DefaultInterval
		}
	}
	rr.timeout = s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		rr.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	canon := canonicalRun{Machine: rr.canon, Probe: rr.probe, ProbeIvl: rr.probeIvl}
	if len(rr.streams) == 1 {
		st := rr.streams[0]
		canon.Kernel, canon.BF, canon.Regs, canon.Seed = st.kernel.Name, st.kernel.BF, st.regs, st.seed
	} else {
		for _, st := range rr.streams {
			canon.Streams = append(canon.Streams, canonicalStream{Kernel: st.kernel.Name, BF: st.kernel.BF, Regs: st.regs, Seed: st.seed})
		}
	}
	ck, err := json.Marshal(canon)
	if err != nil {
		return nil, err
	}
	rr.key = cacheKey(ck)
	// The runner depends only on the (timing, energy) half of the
	// machine; zero the configuration half so runs under different
	// capacities share one Runner and its baseline calibrations.
	rk := rr.canon
	rk.Design, rk.RFKB, rk.SharedKB, rk.CacheKB, rk.MaxThreads = "", 0, 0, 0, 0
	rkb, err := json.Marshal(rk)
	if err != nil {
		return nil, err
	}
	rr.runnerKey = string(rkb)
	return rr, nil
}

// runner returns (memoizing) the Runner for a resolved run's timing and
// energy parameters.
func (s *Server) runner(rr *resolvedRun) *core.Runner {
	s.runnersMu.Lock()
	defer s.runnersMu.Unlock()
	if r, ok := s.runners[rr.runnerKey]; ok {
		return r
	}
	if len(s.runners) >= runnerCacheCap {
		s.runners = make(map[string]*core.Runner, runnerCacheCap)
	}
	r := core.NewRunner()
	r.Params = rr.params
	r.Energy.P = rr.eparams
	s.runners[rr.runnerKey] = r
	return r
}

// simulate executes one resolved run and marshals its response body.
func (s *Server) simulate(ctx context.Context, rr *resolvedRun) (int, []byte) {
	ctx, cancel := context.WithTimeout(ctx, rr.timeout)
	defer cancel()
	var (
		opts    []core.RunOption
		ndjson  bytes.Buffer
		started = time.Now()
	)
	if rr.probe {
		sink := io.Writer(&ndjson)
		if rr.probeSink != nil {
			sink = io.MultiWriter(&ndjson, rr.probeSink)
		}
		opts = append(opts, core.WithProbe(probe.New(rr.probeIvl, sink)))
	}
	var res *core.Result
	var err error
	if rr.warm != nil {
		// Warm-prefix path: fork the group's shared prefix under this
		// item's divergable timing. Energy calibration comes from the
		// item's own runner, exactly as the direct path.
		var warm *core.Warm
		if warm, err = rr.warm.warmPrefix(s.opts.DefaultTimeout); err == nil {
			res, err = warm.Resume(ctx, s.runner(rr), rr.params)
		}
	} else {
		res, err = s.runner(rr).RunCtx(ctx, rr.runSpec(), opts...)
	}
	s.metrics.simRuns.Add(1)
	s.metrics.simSeconds.observe(time.Since(started).Seconds())
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.timeouts.Add(1)
		return http.StatusGatewayTimeout, errorBytes(errDeadline(fmt.Sprintf(
			"simulation exceeded its %v deadline (raise timeout_ms or the server -timeout)", rr.timeout)))
	case errors.Is(err, context.Canceled):
		// The client went away; 499 in nginx's vocabulary, nothing
		// useful to send. StatusRequestTimeout keeps it a client error.
		return http.StatusRequestTimeout, errorBytes(errCancelled("request cancelled"))
	case core.IsInfeasible(err):
		s.metrics.clientErrors.Add(1)
		return http.StatusUnprocessableEntity, errorBytes(errInfeasible(err.Error()))
	case err != nil:
		s.metrics.serverErrors.Add(1)
		return http.StatusInternalServerError, errorBytes(errInternal("%s", err.Error()))
	}
	resp := api.RunResponse{
		Key:    rr.key,
		Kernel: rr.label(),
		Config: api.ConfigInfo{
			Design:      rr.cfg.Design.String(),
			RFBytes:     rr.cfg.RFBytes,
			SharedBytes: rr.cfg.SharedBytes,
			CacheBytes:  rr.cfg.CacheBytes,
			MaxThreads:  rr.cfg.MaxThreads,
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
		ProbeNDJSON: ndjson.String(),
		WarmCycles:  rr.warmCycles,
	}
	if len(rr.streams) == 1 {
		// A one-stream run keeps the plain response shape: a needle
		// run's blocking factor, and no per-stream records.
		if k := rr.streams[0].kernel; k.Name == "needle" {
			resp.BF = k.BF
		}
		return http.StatusOK, marshalBody(resp)
	}
	for i, sr := range res.Streams {
		st := rr.streams[i]
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
		if st.kernel.Name == "needle" {
			out.BF = st.kernel.BF
		}
		resp.Streams = append(resp.Streams, out)
	}
	return http.StatusOK, marshalBody(resp)
}

// compute runs the cache -> store -> coalesce -> simulate pipeline for
// one resolved run. It assumes admission is already settled. counted
// says the caller already recorded this lookup in the cache stats
// (handleRun's pre-admission check), so the recheck stays quiet. The
// cacheState return is "hit", "stored", "coalesced", or "miss".
func (s *Server) compute(ctx context.Context, rr *resolvedRun, counted bool) (status int, body []byte, cacheState string) {
	lookup := s.cache.get
	if counted {
		lookup = s.cache.peek
	}
	if body, ok := lookup(rr.key); ok {
		return http.StatusOK, body, "hit"
	}
	// The persistent store sits under the LRU: a body completed by a
	// previous process (or evicted from the LRU) replays byte-identically
	// and re-enters the LRU. This is the job resume path.
	if s.store != nil {
		if body, ok := s.store.Get(rr.key); ok {
			s.cache.put(rr.key, body)
			return http.StatusOK, body, "stored"
		}
	}
	s.flightMu.Lock()
	if c, ok := s.flight[rr.key]; ok {
		s.flightMu.Unlock()
		select {
		case <-c.done:
			s.metrics.coalesced.Add(1)
			return c.status, c.body, "coalesced"
		case <-ctx.Done():
			return http.StatusRequestTimeout, errorBytes(errCancelled("request cancelled")), "miss"
		}
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[rr.key] = c
	s.flightMu.Unlock()

	c.status, c.body = s.simulate(ctx, rr)
	if c.status == http.StatusOK {
		s.cache.put(rr.key, c.body)
		if s.store != nil {
			_ = s.store.Put(rr.key, c.body)
		}
	}
	s.flightMu.Lock()
	delete(s.flight, rr.key)
	s.flightMu.Unlock()
	close(c.done)
	return c.status, c.body, "miss"
}

// admit claims a gate slot for the request, translating backpressure
// into 429 + Retry-After. The returned release func is nil when
// admission failed.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) func() {
	err := s.gate.Acquire(r.Context())
	switch {
	case errors.Is(err, parallel.ErrQueueFull):
		s.metrics.rejected.Add(1)
		writeError(w, errOverCapacity(1+s.gate.Waiting(),
			"admission queue full (%d in flight, %d waiting); retry later",
			s.gate.InFlight(), s.gate.Waiting()))
		return nil
	case err != nil:
		writeError(w, errCancelled("request cancelled while queued"))
		return nil
	}
	return s.gate.Release
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.metrics.runRequests.Add(1)
	var req api.RunRequest
	if !decodeStrict(w, r, &req, &s.metrics) {
		return
	}
	rr, err := s.resolve(req)
	if err != nil {
		s.metrics.clientErrors.Add(1)
		writeError(w, errBadRequest("%s", err.Error()))
		return
	}
	// A cache hit skips admission entirely: replaying bytes is free.
	if body, ok := s.cache.get(rr.key); ok {
		writeBody(w, http.StatusOK, body, "hit")
		return
	}
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()
	status, body, state := s.compute(r.Context(), rr, true)
	writeBody(w, status, body, state)
}

// resolveBatch canonicalizes a batch request's runs, wiring warm-prefix
// groups. The returned envelope (nil on success) is the request's 400.
func (s *Server) resolveBatch(req api.BatchRequest) ([]*resolvedRun, *api.Error) {
	if len(req.Runs) == 0 {
		return nil, errBadRequest("empty batch: \"runs\" must list at least one run")
	}
	if req.WarmCycles < 0 {
		return nil, errBadRequest("warm_cycles must be non-negative")
	}
	resolved := make([]*resolvedRun, len(req.Runs))
	groups := make(map[string]*warmEntry)
	for i, run := range req.Runs {
		rr, err := s.resolve(run)
		if err != nil {
			return nil, errBadRequest("runs[%d]: %v", i, err)
		}
		// Warm-prefix sharing: group prefix-compatible unprobed items.
		// Fork-at-K results differ from cycle-0 results, so the cache
		// key grows a warm suffix; probed items keep the exact path and
		// their plain key.
		if req.WarmCycles > 0 && !rr.probe && len(rr.streams) == 1 {
			gk := warmGroupKey(rr, req.WarmCycles)
			e := groups[gk]
			if e == nil {
				e = &warmEntry{seed: rr, cycles: req.WarmCycles}
				groups[gk] = e
			}
			rr.warm = e
			rr.warmCycles = req.WarmCycles
			rr.key = cacheKey(fmt.Appendf(nil, "%s\x00warm\x00%d", rr.key, req.WarmCycles))
		}
		resolved[i] = rr
	}
	return resolved, nil
}

// batchItemBody marshals one batch entry from its settled (status,
// body). Both the synchronous /v1/batch and the job engine's final
// assembly funnel through here, which is what makes an async batch's
// result bytes identical to the synchronous response.
func batchItemBody(status int, body []byte) json.RawMessage {
	if status == http.StatusOK {
		return json.RawMessage(marshalBody(api.BatchItem{Result: rawResponse(body)}))
	}
	var env api.ErrorBody
	_ = json.Unmarshal(body, &env)
	return json.RawMessage(marshalBody(api.BatchItem{Error: env.Error, Status: status}))
}

// assembleBatch builds the final batch body from per-item outcomes, in
// item order.
func assembleBatch(statuses []int, bodies [][]byte) (int, []byte) {
	items := make([]json.RawMessage, len(statuses))
	for i := range statuses {
		items[i] = batchItemBody(statuses[i], bodies[i])
	}
	return http.StatusOK, marshalBody(api.BatchResponse{Results: items})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.batchRequests.Add(1)
	var req api.BatchRequest
	if !decodeStrict(w, r, &req, &s.metrics) {
		return
	}
	resolved, aerr := s.resolveBatch(req)
	if aerr != nil {
		s.metrics.clientErrors.Add(1)
		writeError(w, aerr)
		return
	}
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()
	hits, misses := 0, 0
	var mu sync.Mutex
	// Items fan out across the process worker budget; Map keeps results
	// in request order, so the assembled body is worker-count invariant.
	items, _ := parallel.Map(len(resolved), func(i int) (json.RawMessage, error) {
		status, body, state := s.compute(r.Context(), resolved[i], false)
		mu.Lock()
		if state == "miss" {
			misses++
		} else {
			hits++
		}
		mu.Unlock()
		return batchItemBody(status, body), nil
	})
	body := marshalBody(api.BatchResponse{Results: items})
	writeBody(w, http.StatusOK, body, fmt.Sprintf("hits=%d misses=%d", hits, misses))
}

// rawResponse re-decodes a cached body into a RunResponse pointer for
// embedding in a batch item. The round trip is deterministic: the body
// was produced by marshalBody and re-marshals to the same bytes.
func rawResponse(body []byte) *api.RunResponse {
	var resp api.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil
	}
	return &resp
}

// resolvedExperiment is an api.ExperimentRequest after validation, with
// the hashed key its rendered tables cache and persist under.
type resolvedExperiment struct {
	name string
	pol  sched.Policy
	key  string
}

// resolveExperiment validates an experiment request.
func (s *Server) resolveExperiment(req api.ExperimentRequest) (*resolvedExperiment, *api.Error) {
	pol, err := sched.ParsePolicy(req.Scheduler)
	if err != nil {
		return nil, errBadRequest("%s", err.Error())
	}
	known := false
	for _, name := range harness.Experiments {
		if name == req.Name {
			known = true
			break
		}
	}
	if !known {
		return nil, errBadRequest("unknown experiment %q (have %v)", req.Name, harness.Experiments)
	}
	return &resolvedExperiment{
		name: req.Name,
		pol:  pol,
		key:  cacheKey(fmt.Appendf(nil, "experiment\x00%s\x00%s", req.Name, pol)),
	}, nil
}

// computeExperiment runs the cache -> store -> coalesce -> render
// pipeline for one experiment. Admission must already be settled.
func (s *Server) computeExperiment(er *resolvedExperiment) (status int, body []byte, cacheState string) {
	if body, ok := s.cache.get(er.key); ok {
		return http.StatusOK, body, "hit"
	}
	if s.store != nil {
		if body, ok := s.store.Get(er.key); ok {
			s.cache.put(er.key, body)
			return http.StatusOK, body, "stored"
		}
	}
	s.flightMu.Lock()
	if c, ok := s.flight[er.key]; ok {
		s.flightMu.Unlock()
		<-c.done
		s.metrics.coalesced.Add(1)
		return c.status, c.body, "coalesced"
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[er.key] = c
	s.flightMu.Unlock()

	// Experiments reuse the run path's Runner memoization keyed by the
	// default machine with the chosen scheduler.
	d := machine.Default()
	d.Timing.Scheduler = string(er.pol)
	rr, rerr := s.resolve(api.RunRequest{Kernel: "needle", Machine: d})
	if rerr != nil {
		c.status, c.body = http.StatusInternalServerError, errorBytes(errInternal("%s", rerr.Error()))
	} else {
		started := time.Now()
		t, err := harness.Run(s.runner(rr), er.name)
		s.metrics.simSeconds.observe(time.Since(started).Seconds())
		if err != nil {
			s.metrics.serverErrors.Add(1)
			c.status, c.body = http.StatusInternalServerError, errorBytes(errInternal("%s", err.Error()))
		} else {
			s.metrics.simRuns.Add(1)
			c.status, c.body = http.StatusOK, marshalBody(api.ExperimentResponse{
				Name:      er.name,
				Scheduler: string(er.pol),
				Text:      t.String(),
				CSV:       t.CSV(),
				Markdown:  t.Markdown(),
			})
			s.cache.put(er.key, c.body)
			if s.store != nil {
				_ = s.store.Put(er.key, c.body)
			}
		}
	}
	s.flightMu.Lock()
	delete(s.flight, er.key)
	s.flightMu.Unlock()
	close(c.done)
	return c.status, c.body, "miss"
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	s.metrics.experimentRequests.Add(1)
	var req api.ExperimentRequest
	if !decodeStrict(w, r, &req, &s.metrics) {
		return
	}
	er, aerr := s.resolveExperiment(req)
	if aerr != nil {
		s.metrics.clientErrors.Add(1)
		writeError(w, aerr)
		return
	}
	if body, ok := s.cache.get(er.key); ok {
		writeBody(w, http.StatusOK, body, "hit")
		return
	}
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()
	status, body, state := s.computeExperiment(er)
	writeBody(w, status, body, state)
}

func (s *Server) handleKernels(w http.ResponseWriter, _ *http.Request) {
	var out []api.KernelInfo
	for _, k := range workloads.All() {
		out = append(out, api.KernelInfo{
			Name:              k.Name,
			Suite:             k.Suite,
			Category:          k.Category.String(),
			Description:       k.Description,
			RegsNeeded:        k.RegsNeeded,
			ThreadsPerCTA:     k.ThreadsPerCTA,
			SharedBytesPerCTA: k.SharedBytesPerCTA,
			GridCTAs:          k.GridCTAs,
			BF:                k.BF,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hits, misses, entries, bytes := s.cache.stats()
	snap := api.Snapshot{
		UptimeSeconds:      time.Since(s.metrics.start).Seconds(),
		RunRequests:        s.metrics.runRequests.Load(),
		BatchRequests:      s.metrics.batchRequests.Load(),
		ExperimentRequests: s.metrics.experimentRequests.Load(),
		JobRequests:        s.metrics.jobRequests.Load(),
		Rejected:           s.metrics.rejected.Load(),
		ClientErrors:       s.metrics.clientErrors.Load(),
		ServerErrors:       s.metrics.serverErrors.Load(),
		Timeouts:           s.metrics.timeouts.Load(),
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheEntries:       entries,
		CacheBytes:         bytes,
		Coalesced:          s.metrics.coalesced.Load(),
		Jobs:               s.engine.Stats(),
		QueueDepth:         s.gate.Waiting(),
		InFlight:           s.gate.InFlight(),
		Workers:            s.gate.Capacity(),
		SimRuns:            s.metrics.simRuns.Load(),
		SimSeconds:         s.metrics.simSeconds.snapshot(),
		TraceCache:         workloads.TraceCacheSnapshot(),
	}
	if s.store != nil {
		snap.Store = s.store.Stats()
	}
	if total := hits + misses; total > 0 {
		snap.CacheHitRatio = float64(hits) / float64(total)
	}
	snap.TraceCacheHitRatio = snap.TraceCache.HitRatio()
	writeJSON(w, http.StatusOK, snap)
}

// decodeStrict decodes a JSON request body, rejecting unknown fields so
// misspelled parameters fail loudly instead of silently simulating the
// wrong thing.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any, m *metrics) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		m.clientErrors.Add(1)
		writeError(w, errBadRequest("bad request body: %v", err))
		return false
	}
	return true
}

// marshalBody marshals a response body deterministically (compact JSON
// plus a trailing newline). Marshal errors cannot occur for the
// response types in this package.
func marshalBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(api.ErrorBody{Error: &api.Error{
			Code:    api.CodeInternal,
			Message: "internal: marshal: " + err.Error(),
		}})
	}
	return append(b, '\n')
}

// writeBody writes a prepared body with the cache-state header.
func writeBody(w http.ResponseWriter, status int, body []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON marshals and writes an ad-hoc (uncached) response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(marshalBody(v))
}

// cacheKey hashes canonical request bytes into the result key shared by
// the LRU and the persistent store.
func cacheKey(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}
