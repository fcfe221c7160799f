package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workloads"
)

// The serve-mixed traffic model. Requests arrive as a Poisson process at
// serveRate; kindBlockCounts fixes the mix of request kinds.
const (
	serveRate = 150.0 // requests per second offered
	// minRequests keeps at least ten samples beyond p99.
	minRequests = 2000
	// serveSLO is the latency limit slo_ok_frac counts against.
	serveSLO = 250 * time.Millisecond
	// cacheEntries is the service's LRU bound, below the population size
	// so that evicted keys are answered from the durable store.
	cacheEntries = 24
	zipfS        = 1.1

	// Each block of kindBlockLen arrivals holds exactly these counts of
	// each kind, in seeded order, so every run offers the same mix.
	kindBlockLen = 200
	// freshPairEvery: every third fresh-seed miss arrives as two
	// identical requests at once, which the service coalesces.
	freshPairEvery = 3
	// freshKernel is the kernel fresh-seed misses trace from scratch.
	freshKernel = "dgemm"
	// batchKernel is the kernel of the warm-fork batches; each batch
	// forks one prefix of a seeded length at every batchLatencies point.
	batchKernel = "matrixmul"
	// jobPollEvery is how often idle senders poll a submitted job.
	jobPollEvery = 20 * time.Millisecond
)

var (
	// batchLatencies are the DRAM latencies (cycles) of one batch's runs.
	batchLatencies = []int64{300, 500, 700, 900}
	// batchWarm is the range of warm prefixes, in cycles (the batch
	// kernel runs about 87k cycles).
	batchWarm = [2]int{40000, 80000}
	// jobTimes are the compare-job submission points, as shares of the
	// schedule.
	jobTimes = []float64{0.3, 0.65}
	// populationKernels are the repeat-traffic kernels; with three
	// machines each they form the Zipf key population.
	populationKernels = []string{"aes", "backprop", "bicubic", "dct8x8", "dwthaar1d", "hotspot", "hwt", "lps",
		"matrixmul", "nn", "pcr", "recursivegaussian", "sad", "scalarprod", "sgemv", "sobolqrng"}
	streamPairs = [][2]string{{"aes", "sgemv"}, {"hotspot", "nn"}, {"pcr", "lps"}, {"bicubic", "sad"},
		{"dct8x8", "scalarprod"}, {"hwt", "sobolqrng"}}
)

// reqKind classifies scheduled requests.
type reqKind int

const (
	kindRepeat reqKind = iota
	kindNewMachine
	kindFresh
	kindStreams
	kindBatchWarm
	kindJob
	numKinds
)

// kindBlockCounts are the non-repeat arrivals of one block: new
// alloc_total_kb machines on already-traced kernels, fresh workload
// seeds (cold kgen trace build and bank outcomes), two-stream runs, and
// /v1/batch with warm_cycles (the snapshot/fork path). The rest of the
// block repeats Zipf-drawn population keys.
var kindBlockCounts = map[reqKind]int{kindNewMachine: 12, kindFresh: 3, kindStreams: 6, kindBatchWarm: 3}

// kindBlock returns one shuffled block of arrival kinds.
func kindBlock(rng *rand.Rand) []reqKind {
	block := make([]reqKind, 0, kindBlockLen)
	for k := kindNewMachine; k < kindJob; k++ {
		for i := 0; i < kindBlockCounts[k]; i++ {
			block = append(block, k)
		}
	}
	for len(block) < kindBlockLen {
		block = append(block, kindRepeat)
	}
	rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

var kindNames = [numKinds]string{"repeat", "new_machine", "fresh_seed", "streams", "batch_warm", "compare_job"}

// request is one scheduled arrival.
type request struct {
	at   time.Duration // due time after the schedule starts
	kind reqKind
	path string
	body []byte
}

// population returns the Zipf-drawn repeat requests, most popular first.
func population(seed uint64) []api.RunRequest {
	ss := simSeed(seed)
	var out []api.RunRequest
	for _, k := range populationKernels {
		out = append(out,
			api.RunRequest{Kernel: k, Seed: ss},
			api.RunRequest{Kernel: k, Seed: ss, AllocTotalKB: 384},
			api.RunRequest{Kernel: k, Seed: ss, FermiTotalKB: 384})
	}
	// A seeded shuffle decides which keys are popular.
	rng := rand.New(rand.NewPCG(seed, 0xc0ffee))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// compareSpec is the campaign the compare jobs run.
func compareSpec(seed uint64) api.CompareRequest {
	return api.CompareRequest{
		Name:      "simbench",
		Machines:  []api.CompareMachine{{Name: "partitioned"}, {Name: "unified", AllocTotalKB: 384}},
		Workloads: []string{"aes", "hotspot", "sgemv"},
		Seed:      simSeed(seed),
	}
}

// schedule builds the open-loop arrival schedule for a run of d at rate
// requests per second.
func schedule(seed uint64, rate float64, d time.Duration) []request {
	rng := rand.New(rand.NewPCG(seed, 0x5c4ed))
	pop := population(seed)
	ss := simSeed(seed)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(pop)-1))
	var out []request
	fresh, newMachines := uint64(0), 0
	var at time.Duration
	var block []reqKind
	for at < d || len(out) < minRequests {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if len(block) == 0 {
			block = kindBlock(rng)
		}
		kind := block[0]
		block = block[1:]
		switch kind {
		case kindNewMachine:
			k := populationKernels[newMachines%len(populationKernels)]
			newMachines++
			out = append(out, request{at, kind, "/v1/run",
				mustJSON(api.RunRequest{Kernel: k, Seed: ss, AllocTotalKB: 320 + rng.IntN(705)})})
		case kindFresh:
			fresh++
			r := request{at, kind, "/v1/run", mustJSON(api.RunRequest{Kernel: freshKernel, Seed: ss<<20 + fresh})}
			out = append(out, r)
			if fresh%freshPairEvery == 0 {
				out = append(out, r)
			}
		case kindStreams:
			p := streamPairs[rng.IntN(len(streamPairs))]
			out = append(out, request{at, kind, "/v1/run", mustJSON(api.RunRequest{
				AllocTotalKB: 384,
				Streams:      []api.StreamRequest{{Kernel: p[0], Seed: ss}, {Kernel: p[1], Seed: ss}}})})
		case kindBatchWarm:
			b := api.BatchRequest{WarmCycles: int64(batchWarm[0] + rng.IntN(batchWarm[1]-batchWarm[0]))}
			for _, lat := range batchLatencies {
				rr := api.RunRequest{Kernel: batchKernel, Seed: ss}
				rr.Machine.Timing.DRAMLatency = lat
				b.Runs = append(b.Runs, rr)
			}
			out = append(out, request{at, kind, "/v1/batch", mustJSON(b)})
		default:
			out = append(out, request{at, kind, "/v1/run", mustJSON(pop[zipf.Uint64()])})
		}
	}
	end := out[len(out)-1].at
	cs := compareSpec(seed)
	job := mustJSON(api.JobRequest{Compare: &cs})
	for _, f := range jobTimes {
		out = append(out, request{time.Duration(f * float64(end)), kindJob, "/v1/jobs", job})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// mustJSON marshals a request the benchmark built itself.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types hold only plain fields
	}
	return b
}

// sample is one completed request.
type sample struct {
	kind   reqKind
	cache  string // X-Cache header
	status int
	lat    time.Duration // completion - due
	late   time.Duration // send - due
	winst  int64         // simulated warp instructions (run misses)
}

// serveMixed is the open-loop service workload.
type serveMixed struct {
	seed    uint64
	rate    float64 // offered requests per second
	senders int
	dataDir string

	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client

	mu sync.Mutex
	// bodies holds the first 2xx body per canonical key (and per batch
	// item key); every later body for the key must match it.
	bodies map[string][]byte
	t      tally
	nreq   int
	// stealShare is the steal share per vCPU of the load.
	stealShare float64
}

func newServeMixed(seed uint64, rate float64) (*serveMixed, error) {
	// Scratch data stays inside the checkout, under the build directory.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "simbench-")
	if err != nil {
		return nil, err
	}
	n := runtime.NumCPU()
	return &serveMixed{
		seed: seed, rate: rate, senders: n, dataDir: dir,
		bodies: make(map[string][]byte),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}},
	}, nil
}

func (s *serveMixed) tally() *tally { return &s.t }

func (s *serveMixed) work() map[string]any {
	return map[string]any{
		"rate_per_s": s.rate, "requests": s.nreq, "senders": s.senders,
		"slo_ms": serveSLO.Milliseconds(), "cache_entries": cacheEntries,
		"population":  len(population(s.seed)),
		"steal_share": s.stealShare,
	}
}

// start launches a fresh service with an empty data directory.
func (s *serveMixed) start(rep int) error {
	s.stop()
	srv, err := serve.New(serve.Options{
		CacheEntries: cacheEntries,
		DataDir:      filepath.Join(s.dataDir, fmt.Sprint(rep)),
	})
	if err != nil {
		return err
	}
	s.srv, s.hs = srv, httptest.NewServer(srv.Handler())
	return nil
}

// stop shuts the service down.
func (s *serveMixed) stop() {
	if s.hs != nil {
		s.hs.Close()
		s.srv.Close()
		s.hs, s.srv = nil, nil
	}
	s.client.CloseIdleConnections()
}

// close stops the service and removes its data.
func (s *serveMixed) close() {
	s.stop()
	os.RemoveAll(s.dataDir)
}

// post sends one request and returns status, X-Cache and body.
func (s *serveMixed) post(path string, body []byte) (int, string, []byte, error) {
	resp, err := s.client.Post(s.hs.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), b, err
}

// checkBody verifies a 2xx response against the first body seen for its
// canonical key(s).
func (s *serveMixed) checkBody(kind reqKind, body []byte) error {
	switch kind {
	case kindJob:
		return nil
	case kindBatchWarm:
		var br api.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			return err
		}
		for _, raw := range br.Results {
			var item struct {
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(raw, &item); err != nil {
				return err
			}
			if item.Result == nil {
				return fmt.Errorf("batch item failed: %s", raw)
			}
			if err := s.sameBody("batch:", item.Result); err != nil {
				return err
			}
		}
		return nil
	}
	return s.sameBody("run:", body)
}

// sameBody records or compares the body for its "key" field.
func (s *serveMixed) sameBody(ns string, body []byte) error {
	var k struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &k); err != nil || k.Key == "" {
		return fmt.Errorf("response without a canonical key: %.80s", body)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	first, ok := s.bodies[ns+k.Key]
	if !ok {
		s.bodies[ns+k.Key] = append([]byte(nil), body...)
		return nil
	}
	if !bytes.Equal(first, body) {
		return fmt.Errorf("body for key %s differs from the first one", k.Key[:12])
	}
	return nil
}

// warmUp sends every population key and stream pair once, in order, and
// returns the digest of the response bodies.
func (s *serveMixed) warmUp() (string, error) {
	ss := simSeed(s.seed)
	var reqs []api.RunRequest
	reqs = append(reqs, population(s.seed)...)
	for _, p := range streamPairs {
		reqs = append(reqs, api.RunRequest{AllocTotalKB: 384,
			Streams: []api.StreamRequest{{Kernel: p[0], Seed: ss}, {Kernel: p[1], Seed: ss}}})
	}
	var hashes []string
	for _, rr := range reqs {
		b := mustJSON(rr)
		status, _, body, err := s.post("/v1/run", b)
		if err == nil && status/100 != 2 {
			err = fmt.Errorf("warm-up %s: status %d: %s", b, status, body)
		}
		if err == nil {
			err = s.checkBody(kindRepeat, body)
		}
		s.t.check(err)
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(body)
		hashes = append(hashes, hex.EncodeToString(sum[:]))
	}
	return digest(hashes), nil
}

// checkCommitted warms a fresh service up on the default seed, untimed,
// and checks the digest of its response bodies against the committed
// one, as one operation, whatever the benchmark's seed.
func (s *serveMixed) checkCommitted() error {
	ref, err := newServeMixed(defaultSeed, s.rate)
	if err != nil {
		return err
	}
	defer ref.close()
	workloads.ResetTraceCache()
	if err := ref.start(0); err != nil {
		return err
	}
	got, err := ref.warmUp()
	s.t.attempted.Add(ref.t.attempted.Load())
	s.t.failed.Add(ref.t.failed.Load())
	if err != nil {
		return err
	}
	if want := committedDigests()["serve-mixed"]; got != want {
		err = fmt.Errorf("serve-mixed: warm-up body digest %s on seed %d differs from committed %q", got, defaultSeed, want)
	}
	s.t.check(err)
	return nil
}

// setup checks the committed digest, then starts the service and warms
// it up setupReps times, each time from an empty trace cache and data
// directory, keeping the last. It returns the median wall time.
func (s *serveMixed) setup() (float64, error) {
	if err := s.checkCommitted(); err != nil {
		return 0, err
	}
	return s.setupReps(setupReps)
}

func (s *serveMixed) setupReps(reps int) (float64, error) {
	var times []float64
	for rep := 0; rep < reps; rep++ {
		workloads.ResetTraceCache()
		t0 := time.Now()
		if err := s.start(rep); err != nil {
			return 0, err
		}
		if _, err := s.warmUp(); err != nil {
			s.close()
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// pendingJob is a submitted compare job the senders poll while idle.
type pendingJob struct {
	id                string
	submit            time.Time
	running, terminal time.Time
	state             string
	nextPoll          time.Time
}

// loadResult is what one open-loop run observed.
type loadResult struct {
	samples []sample
	jobs    []*pendingJob
	// metricsSamples are /metrics snapshots taken while idle (traced
	// runs only), plus one before and one after.
	metricsSamples []api.Snapshot
	start          time.Time
}

// latencies returns every request's latency in ms.
func (res *loadResult) latencies() []float64 {
	lats := make([]float64, len(res.samples))
	for i, sm := range res.samples {
		lats[i] = float64(sm.lat) / float64(time.Millisecond)
	}
	return lats
}

// drive runs the open loop: senders goroutines pull arrivals in due
// order, wait for each one's due time, and time it from then. While
// waiting they poll submitted jobs and, when sampleMetrics, /metrics.
func (s *serveMixed) drive(reqs []request, sampleMetrics bool) *loadResult {
	res := &loadResult{samples: make([]sample, len(reqs))}
	var next atomic.Int64
	var mu sync.Mutex // guards res.jobs and res.metricsSamples
	nextMetrics := time.Now()
	c := api.NewClient(s.hs.URL)
	c.HTTP = s.client
	idle := func(until time.Time) {
		for {
			now := time.Now()
			if until.Sub(now) < 5*time.Millisecond {
				return
			}
			var job *pendingJob
			mu.Lock()
			for _, j := range res.jobs {
				if j.terminal.IsZero() && !now.Before(j.nextPoll) {
					j.nextPoll = now.Add(jobPollEvery)
					job = j
					break
				}
			}
			doMetrics := sampleMetrics && job == nil && !now.Before(nextMetrics)
			if doMetrics {
				nextMetrics = now.Add(100 * time.Millisecond)
			}
			mu.Unlock()
			switch {
			case job != nil:
				s.pollJob(c, job, &mu)
			case doMetrics:
				if snap, err := c.Metrics(context.Background()); err == nil {
					mu.Lock()
					res.metricsSamples = append(res.metricsSamples, *snap)
					mu.Unlock()
				}
			default:
				wake := until.Add(-time.Millisecond)
				mu.Lock()
				if sampleMetrics && nextMetrics.Before(wake) {
					wake = nextMetrics
				}
				for _, j := range res.jobs {
					if j.terminal.IsZero() && j.nextPoll.Before(wake) {
						wake = j.nextPoll
					}
				}
				mu.Unlock()
				time.Sleep(time.Until(wake))
			}
		}
	}
	if snap, err := c.Metrics(context.Background()); err == nil {
		res.metricsSamples = append(res.metricsSamples, *snap)
	}
	res.start = time.Now()
	var wg sync.WaitGroup
	for g := 0; g < s.senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				due := res.start.Add(r.at)
				idle(due)
				waitUntil(due)
				sent := time.Now()
				status, cache, body, err := s.post(r.path, r.body)
				done := time.Now()
				sm := sample{kind: r.kind, cache: cache, status: status, lat: done.Sub(due), late: sent.Sub(due)}
				if err == nil && status/100 != 2 {
					err = fmt.Errorf("%s %s: status %d: %.200s", kindNames[r.kind], r.path, status, body)
				}
				if err == nil {
					err = s.checkBody(r.kind, body)
					if err == nil && r.path == "/v1/run" && cache == "miss" {
						sm.winst = runWinst(body)
					}
				}
				if err == nil && r.kind == kindJob {
					var j api.Job
					if err = json.Unmarshal(body, &j); err == nil {
						mu.Lock()
						res.jobs = append(res.jobs, &pendingJob{id: j.ID, submit: sent, state: j.State, nextPoll: sent})
						mu.Unlock()
					}
				}
				s.t.check(err)
				res.samples[i] = sm
			}
		}()
	}
	wg.Wait()
	// Drain: wait for every job to finish.
	deadline := time.Now().Add(60 * time.Second)
	for _, j := range res.jobs {
		for j.terminal.IsZero() && time.Now().Before(deadline) {
			time.Sleep(jobPollEvery)
			s.pollJob(c, j, &mu)
		}
	}
	if snap, err := c.Metrics(context.Background()); err == nil {
		res.metricsSamples = append(res.metricsSamples, *snap)
	}
	return res
}

// pollJob polls one job's status, noting when it was first seen running
// and when terminal.
func (s *serveMixed) pollJob(c *api.Client, j *pendingJob, mu *sync.Mutex) {
	job, err := c.Job(context.Background(), j.id)
	now := time.Now()
	if err != nil {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	j.state = job.State
	if job.State != api.JobQueued && j.running.IsZero() {
		j.running = now
	}
	if job.Terminal() && j.terminal.IsZero() {
		j.terminal = now
	}
}

// runWinst returns the warp instructions of a run response body.
func runWinst(body []byte) int64 {
	var r struct {
		Counters struct {
			WarpInsts int64
		} `json:"counters"`
	}
	if json.Unmarshal(body, &r) != nil {
		return 0
	}
	return r.Counters.WarpInsts
}

// checkJobs verifies every compare job finished and that its result
// bytes equal POST /v1/batch of the campaign's compiled runs.
func (s *serveMixed) checkJobs(res *loadResult) {
	c := api.NewClient(s.hs.URL)
	c.HTTP = s.client
	camp, err := campaign.New(compareSpec(s.seed))
	if err != nil {
		s.t.check(err)
		return
	}
	status, _, want, err := s.post("/v1/batch", mustJSON(api.BatchRequest{Runs: camp.Runs}))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("compare batch: status %d", status)
	}
	for _, j := range res.jobs {
		jerr := err
		if jerr == nil && j.state != api.JobDone {
			jerr = fmt.Errorf("compare job %s ended %q", j.id, j.state)
		}
		if jerr == nil {
			got, e := c.JobResult(context.Background(), j.id)
			if jerr = e; jerr == nil && !bytes.Equal(got, want) {
				jerr = fmt.Errorf("compare job %s result differs from /v1/batch of its runs", j.id)
			}
		}
		s.t.check(jerr)
	}
}

// load runs the schedule for d against the warmed service.
func (s *serveMixed) load(d time.Duration, sampleMetrics bool) *loadResult {
	reqs := schedule(s.seed, s.rate, d)
	s.nreq = len(reqs)
	res := s.drive(reqs, sampleMetrics)
	s.checkJobs(res)
	return res
}

// run measures the load for d. Latencies are wall time from the due
// time; sim_winst_per_s is the run misses' warp instructions per CPU
// second of the whole process (service and senders) over the load.
func (s *serveMixed) run(d time.Duration) (metrics, error) {
	defer s.close()
	st, cpu0 := startSteal(), cpuTime()
	res := s.load(d, false)
	cpu := cpuTime() - cpu0
	s.stealShare = st.share()
	noteSteal("serve-mixed", s.stealShare)
	lats := res.latencies()
	ok := 0
	var winst int64
	for i, sm := range res.samples {
		if sm.status/100 == 2 && lats[i] <= float64(serveSLO.Milliseconds()) {
			ok++
		}
		winst += sm.winst
	}
	m := metrics{}
	m.set("req_p50_ms", quantile(lats, 0.5), "ms")
	m.set("req_p99_ms", quantile(lats, 0.99), "ms")
	m.set("slo_ok_frac", float64(ok)/float64(len(lats)), "1")
	m.set("sim_winst_per_s", float64(winst)/cpu.Seconds(), "winst/s")
	m.set("heap_live_mb", heapLiveMB(), "MiB")
	summarize(res)
	return m, nil
}

func (s *serveMixed) trace(d time.Duration) (metrics, error) {
	defer s.close()
	m := metrics{}
	if err := s.layers(m, d*2/3); err != nil {
		return nil, err
	}
	// The simulator layers on the population's runs.
	sw := &sweep{name: "serve-mixed", seed: s.seed, points: populationMatrix(s.seed)}
	if err := sw.reference(); err != nil {
		return nil, err
	}
	runMs, runRate := runWall(sw.timed(d / 6))
	if err := sw.coreSpans(m, runMs); err != nil {
		return nil, err
	}
	traced, err := sw.simLayers(m, d/6)
	if err != nil {
		return nil, err
	}
	m.set("trace.overhead_frac", 1-traced/runRate, "1")
	if err := sw.forkSpans(m); err != nil {
		return nil, err
	}
	if err := splitCheck(m, &s.t); err != nil {
		return nil, err
	}
	s.t.attempted.Add(sw.t.attempted.Load())
	s.t.failed.Add(sw.t.failed.Load())
	return m, nil
}

// serviceLayers checks the service's committed digest and measures the
// service layers with a short serve-mixed load, so that the sweep
// workloads' traced runs cover the service too.
func serviceLayers(m metrics, t *tally, seed uint64, d time.Duration) error {
	s, err := newServeMixed(seed, serveRate)
	if err != nil {
		return err
	}
	defer s.close()
	err = s.checkCommitted()
	if err == nil {
		_, err = s.setupReps(1)
	}
	if err == nil {
		err = s.layers(m, d)
	}
	t.attempted.Add(s.t.attempted.Load())
	t.failed.Add(s.t.failed.Load())
	return err
}

// layers runs a load for d with /metrics sampling and derives the
// service-layer metrics from per-request spans split by X-Cache and
// request kind, /metrics deltas, job polls, and a store replay.
func (s *serveMixed) layers(m metrics, d time.Duration) error {
	res := s.load(d, true)
	lats := res.latencies()
	byCache := map[string][]float64{}
	var batch, streams, late, missMs []float64
	rejected := 0
	for i, sm := range res.samples {
		ms := lats[i]
		late = append(late, float64(sm.late)/float64(time.Millisecond))
		if sm.status == http.StatusTooManyRequests {
			rejected++
		}
		switch sm.kind {
		case kindBatchWarm:
			batch = append(batch, ms)
		case kindStreams:
			streams = append(streams, ms)
		}
		if sm.kind != kindJob && sm.kind != kindBatchWarm {
			byCache[sm.cache] = append(byCache[sm.cache], ms)
			if sm.cache == "miss" && sm.kind != kindStreams {
				missMs = append(missMs, ms)
			}
		}
	}
	runs := len(byCache["hit"]) + len(byCache["stored"]) + len(byCache["miss"]) + len(byCache["coalesced"])
	m.set("serve.hit_ms", median(byCache["hit"]), "ms")
	m.set("serve.stored_ms", median(byCache["stored"]), "ms")
	m.set("serve.miss_ms", median(byCache["miss"]), "ms")
	m.set("serve.hit_ratio", ratio(float64(len(byCache["hit"])), float64(runs)), "1")
	m.set("serve.coalesced_ratio", ratio(float64(len(byCache["coalesced"])),
		float64(len(byCache["coalesced"])+len(byCache["miss"]))), "1")
	m.set("serve.batch_warm_ms", median(batch), "ms")
	m.set("serve.streams_ms", median(streams), "ms")
	m.set("serve.rejected_frac", float64(rejected)/float64(len(res.samples)), "1")
	m.set("generator.late_ms", quantile(late, 0.99), "ms")

	if len(res.metricsSamples) < 2 {
		return fmt.Errorf("serve-mixed: /metrics answered %d times, want at least 2", len(res.metricsSamples))
	}
	first, last := res.metricsSamples[0], res.metricsSamples[len(res.metricsSamples)-1]
	simS := ratio(last.SimSeconds.SumSecs-first.SimSeconds.SumSecs, float64(last.SimRuns-first.SimRuns))
	m.set("serve.sim_s_per_run", simS, "s")
	m.set("serve.overhead_ms_per_miss", mean(missMs)-1000*simS, "ms")
	var depth []float64
	for _, snap := range res.metricsSamples {
		depth = append(depth, float64(snap.QueueDepth))
	}
	m.set("parallel.queue_depth_p99", quantile(depth, 0.99), "count")

	var wait, done []float64
	for _, j := range res.jobs {
		wait = append(wait, j.running.Sub(j.submit).Seconds())
		done = append(done, j.terminal.Sub(j.submit).Seconds())
	}
	m.set("jobs.queue_wait_s", mean(wait), "s")
	m.set("jobs.done_s", mean(done), "s")
	return s.storeReplay(m)
}

// storeReplay times store.Open/Put/Get with the run's bodies in a fresh
// directory.
func (s *serveMixed) storeReplay(m metrics) error {
	st, err := store.Open(filepath.Join(s.dataDir, "replay"))
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(s.bodies))
	for k := range s.bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	storeKey := func(k string) string {
		sum := sha256.Sum256([]byte(k))
		return hex.EncodeToString(sum[:])
	}
	var put, get spanSum
	for _, k := range keys {
		t0 := time.Now()
		err := st.Put(storeKey(k), s.bodies[k])
		put.add(time.Since(t0))
		if err != nil {
			return err
		}
	}
	for _, k := range keys {
		t0 := time.Now()
		body, ok := st.Get(storeKey(k))
		get.add(time.Since(t0))
		var err error
		if !ok || !bytes.Equal(body, s.bodies[k]) {
			err = fmt.Errorf("store replay: body for %s did not round-trip", k)
		}
		s.t.check(err)
	}
	m.set("store.put_us", put.perCall()/1e3, "us")
	m.set("store.get_us", get.perCall()/1e3, "us")
	return nil
}

// populationMatrix is the population's runs as sweep cells: every
// population kernel under the three machines the requests name.
func populationMatrix(seed uint64) []point {
	machines := []core.NamedMachine{
		core.BaselineMachine(),
		core.UnifiedMachine("unified-384", config.BaselineTotalBytes),
		core.FermiMachine("fermi-384", config.BaselineTotalBytes),
	}
	var pts []point
	for _, k := range kernelsNamed(populationKernels) {
		for _, mc := range machines {
			cfg, err := mc.Configure(k)
			if err != nil {
				panic(err)
			}
			pts = append(pts, point{label: k.Name + "/" + mc.Name,
				spec: core.RunSpec{Kernel: k, Config: cfg, Seed: simSeed(seed)}})
		}
	}
	return pts
}

// summarize writes per-kind latency quantiles to standard error.
func summarize(res *loadResult) {
	var lat, late [numKinds][]float64
	for _, sm := range res.samples {
		lat[sm.kind] = append(lat[sm.kind], float64(sm.lat)/float64(time.Millisecond))
		late[sm.kind] = append(late[sm.kind], float64(sm.late)/float64(time.Millisecond))
	}
	for k := reqKind(0); k < numKinds; k++ {
		if len(lat[k]) == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "simbench: %-12s n=%4d p50=%7.2fms p99=%7.2fms late_p50=%6.3fms late_p99=%6.2fms\n",
			kindNames[k], len(lat[k]), quantile(lat[k], 0.5), quantile(lat[k], 0.99), quantile(late[k], 0.5), quantile(late[k], 0.99))
	}
}

// waitUntil returns at t. Timer wake-ups overshoot by up to a
// millisecond, which would read as service latency, so the last stretch
// before t yields in a loop instead of sleeping.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinWindow is how long before a due time the sender stops sleeping.
const spinWindow = 1500 * time.Microsecond
