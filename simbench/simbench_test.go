package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

func labels(pts []point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = fmt.Sprintf("%s seed=%d", p.label, p.spec.Seed)
	}
	return out
}

func TestSeedDecidesMatrixAndSchedule(t *testing.T) {
	for _, kind := range []sweepKind{scratchSweep, cacheSweep} {
		a, b, c := sweepMatrix(kind, 7), sweepMatrix(kind, 7), sweepMatrix(kind, 8)
		if !reflect.DeepEqual(labels(a), labels(b)) {
			t.Errorf("kind %d: same seed gave different matrices", kind)
		}
		if reflect.DeepEqual(labels(a), labels(c)) {
			t.Errorf("kind %d: different seeds gave the same RunSpec seeds", kind)
		}
	}
	if !reflect.DeepEqual(passOrder(7, 3, 60), passOrder(7, 3, 60)) {
		t.Error("same seed gave different pass orders")
	}
	if reflect.DeepEqual(passOrder(7, 3, 60), passOrder(8, 3, 60)) {
		t.Error("different seeds gave the same pass order")
	}
	if reflect.DeepEqual(passOrder(7, 3, 60), passOrder(7, 4, 60)) {
		t.Error("consecutive passes share one order")
	}
	same := func(x, y []request) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].at != y[i].at || x[i].kind != y[i].kind || x[i].path != y[i].path || !bytes.Equal(x[i].body, y[i].body) {
				return false
			}
		}
		return true
	}
	d := 5 * time.Second
	if !same(schedule(7, serveRate, d), schedule(7, serveRate, d)) {
		t.Error("same seed gave different request schedules")
	}
	if same(schedule(7, serveRate, d), schedule(8, serveRate, d)) {
		t.Error("different seeds gave the same request schedule")
	}
}

func TestScheduleMix(t *testing.T) {
	reqs := schedule(3, serveRate, 10*time.Second)
	if len(reqs) < minRequests {
		t.Fatalf("%d requests, want at least %d", len(reqs), minRequests)
	}
	var n [numKinds]int
	for i, r := range reqs {
		n[r.kind]++
		if i > 0 && r.at < reqs[i-1].at {
			t.Fatal("schedule is not in due order")
		}
	}
	for k := reqKind(0); k < numKinds; k++ {
		if n[k] == 0 {
			t.Errorf("no %s requests", kindNames[k])
		}
	}
	if n[kindJob] != len(jobTimes) {
		t.Errorf("%d compare jobs, want %d", n[kindJob], len(jobTimes))
	}
}

// TestCounterHashCoversEveryField perturbs each counter in turn.
func TestCounterHashCoversEveryField(t *testing.T) {
	var c stats.Counters
	base := counterHash(&c)
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		var perturb func()
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			perturb = func() { f.SetInt(f.Int() + 1) }
		case reflect.Array:
			perturb = func() { f.Index(f.Len() - 1).SetInt(1) }
		default:
			t.Fatalf("unhandled counter field %s", v.Type().Field(i).Name)
		}
		saved := reflect.New(f.Type()).Elem()
		saved.Set(f)
		perturb()
		if counterHash(&c) == base {
			t.Errorf("perturbing %s left the hash unchanged", v.Type().Field(i).Name)
		}
		f.Set(saved)
	}
}

func TestVerifyRejectsPerturbedCounter(t *testing.T) {
	var c stats.Counters
	c.WarpInsts = 100
	s := &sweep{name: "test", ref: map[string]string{"a": counterHash(&c)}}
	s.verify([]opResult{{label: "a", hash: counterHash(&c)}})
	if s.t.failed.Load() != 0 {
		t.Fatal("an identical counter hash failed")
	}
	c.CacheHits++
	s.verify([]opResult{{label: "a", hash: counterHash(&c)}})
	if s.t.failed.Load() != 1 || s.t.attempted.Load() != 2 {
		t.Fatalf("perturbed counter: attempted %d failed %d, want 2 and 1", s.t.attempted.Load(), s.t.failed.Load())
	}
}

func TestCommittedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both sweep matrices")
	}
	for _, kind := range []sweepKind{scratchSweep, cacheSweep} {
		s := newSweep(kind, defaultSeed)
		if err := s.reference(); err != nil {
			t.Fatal(err)
		}
		if got, want := s.digest(), committedDigests()[s.name]; got != want {
			t.Errorf("%s: digest %s, committed %s", s.name, got, want)
		}
		// A perturbed reference hash must fail the digest check.
		s.ref[s.points[0].label] = "perturbed"
		if s.checkDigest() == nil {
			t.Errorf("%s: perturbed digest was accepted", s.name)
		}
	}
	s, err := newServeMixed(defaultSeed, serveRate)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if err := s.checkCommitted(); err != nil {
		t.Fatal(err)
	}
	if n, f := s.t.attempted.Load(), s.t.failed.Load(); f != 0 || n != int64(len(population(defaultSeed))+len(streamPairs)+1) {
		t.Errorf("serve-mixed committed check: attempted %d, failed %d", n, f)
	}
}

// TestWrappedPiecesKeepCounters checks that the traced run's wrapped
// Spec.Source and Spec.Memory leave every counter byte-identical to
// core.Runner.Run, and that the replay issues the same instructions.
func TestWrappedPiecesKeepCounters(t *testing.T) {
	r := core.NewRunner()
	for _, kind := range []sweepKind{scratchSweep, cacheSweep} {
		pts := sweepMatrix(kind, 5)
		for _, p := range []point{pts[0], pts[len(pts)/2], pts[len(pts)-2]} {
			res, err := r.Run(p.spec)
			if err != nil {
				t.Fatal(err)
			}
			want := counterHash(res.Counters)
			tr := newSimTracer()
			run, err := tracedRun(r, p.spec, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := counterHash(&run.counters); got != want {
				t.Errorf("%s: wrapped run counters differ from Runner.Run's", p.label)
			}
			if tr.dramCount == 0 && p.spec.Config.CacheBytes > 0 && run.counters.DRAMBytes() > 0 {
				t.Errorf("%s: the memory wrapper saw no calls", p.label)
			}
			rec, err := record(run.rs)
			if err != nil {
				t.Fatal(err)
			}
			if rec.winst != run.counters.WarpInsts || rec.cycles > run.counters.Cycles {
				t.Errorf("%s: replay issued %d insts in %d cycles, the SM %d in %d",
					p.label, rec.winst, rec.cycles, run.counters.WarpInsts, run.counters.Cycles)
			}
		}
	}
}

// TestOpenLoopCountsStall sends a schedule through one sender at a
// server whose first request stalls: the requests due during the stall
// must carry the wait in their latency and their lateness.
func TestOpenLoopCountsStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/run" {
			w.Write([]byte("{}")) // the /metrics snapshot drive takes first
			return
		}
		i := n.Add(1)
		if i == 1 {
			time.Sleep(stall)
		}
		fmt.Fprintf(w, `{"key":"k%d"}`, i)
	}))
	defer hs.Close()
	s := &serveMixed{senders: 1, bodies: map[string][]byte{}, hs: hs, client: hs.Client()}
	var reqs []request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, request{at: time.Duration(i) * 20 * time.Millisecond, kind: kindRepeat, path: "/v1/run", body: []byte("{}")})
	}
	res := s.drive(reqs, false)
	if s.t.failed.Load() != 0 {
		t.Fatalf("%d failed requests", s.t.failed.Load())
	}
	for i, sm := range res.samples[1:6] {
		due := time.Duration(i+1) * 20 * time.Millisecond
		if want := stall - due - 20*time.Millisecond; sm.lat < want || sm.late < want {
			t.Errorf("request %d: latency %v, late %v; want both >= %v", i+1, sm.lat, sm.late, want)
		}
	}
	var late []float64
	for _, sm := range res.samples {
		late = append(late, float64(sm.late)/float64(time.Millisecond))
	}
	if p99 := quantile(late, 0.99); p99 < float64((stall-60*time.Millisecond)/time.Millisecond) {
		t.Errorf("generator lateness p99 %.1f ms does not show the stall", p99)
	}
}

// TestCPUTimeCountsWorkNotWaiting checks the sweeps' clock: it advances
// while the process computes and stands still while it sleeps.
func TestCPUTimeCountsWorkNotWaiting(t *testing.T) {
	c0 := cpuTime()
	time.Sleep(100 * time.Millisecond)
	if d := cpuTime() - c0; d > 50*time.Millisecond {
		t.Errorf("sleeping 100 ms used %v of CPU time", d)
	}
	c0 = cpuTime()
	for t0 := time.Now(); time.Since(t0) < 100*time.Millisecond; {
	}
	if d := cpuTime() - c0; d < 50*time.Millisecond {
		t.Errorf("computing for 100 ms used only %v of CPU time", d)
	}
}
