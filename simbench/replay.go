package main

import (
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dispatch"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/sched"
	"repro/internal/sm"
	"repro/internal/stats"
)

// This file replays one run through the SM's inner components alone.
// A record pass drives dispatch, sched and memsys with the timing core's
// issue rules (mirroring sm.Step), writing down every step's cycle, every
// Walk verdict and every global-memory operation. Replays then push the
// recorded streams through a fresh instance of one component at a time,
// so each component's host cost is measured without the others'.

// decision is one recorded Walk verdict.
type decision struct {
	act  sched.Action
	op   isa.Op // OpBAR or OpEXIT for IssuedGone
	wake int64  // Park cycle for Deschedule
}

// memOp is one recorded global-memory operation.
type memOp struct {
	wi         *isa.WarpInst
	now, extra int64
}

// recording is everything a record pass wrote down.
type recording struct {
	stepNow   []int64
	decisions []decision
	memOps    []memOp
	lines     []uint32 // cache lines touched by loads, in order
	loads     int64
	loadLines int64
	cycles    int64
	winst     int64
}

// replaySpec is one run's inputs.
type replaySpec struct {
	cfg    config.MemConfig
	params sm.Params
	src    dispatch.TraceSource
	ctas   int
}

// memConfig mirrors the SM's derivation of the memory-pipeline
// configuration from its parameters.
func memConfig(cfg config.MemConfig, p sm.Params) memsys.Config {
	return memsys.Config{
		CacheBytes:   cfg.CacheBytes,
		CacheLatency: p.CacheLatency,
		TexLatency:   p.TexLatency,
		DRAMLatency:  p.DRAM.LatencyCycles,
		MaxMSHRs:     p.MaxMSHRs,
		WriteBack:    p.WriteBackCache,
	}
}

func newDispatcher(rs replaySpec, c *stats.Counters) (*dispatch.Dispatcher, error) {
	d, err := dispatch.New(rs.src, rs.ctas, c)
	if err != nil {
		return nil, err
	}
	d.EnableOutcomes(rs.cfg.Design, rs.params.AggressiveScatter)
	return d, nil
}

// record runs the spec once through dispatch, sched and memsys.
func record(rs replaySpec) (*recording, error) {
	var c stats.Counters
	d, err := newDispatcher(rs, &c)
	if err != nil {
		return nil, err
	}
	s, err := sched.New(rs.params.Scheduler, rs.params.ActiveWarps, rs.params.GreedyScheduler)
	if err != nil {
		return nil, err
	}
	mem := memsys.New(memConfig(rs.cfg, rs.params), dram.New(rs.params.DRAM), &c)
	rec := &recording{}
	p := rs.params
	var now, slotFree, next int64
	note := func(t int64) {
		if t > now && t < next {
			next = t
		}
	}
	visit := func(wIdx int) sched.Action {
		w := d.Warp(wIdx)
		wi := &w.Trace[w.PC]
		if w.NextIssue > now {
			note(w.NextIssue)
			rec.decisions = append(rec.decisions, decision{act: sched.Keep})
			return sched.Keep
		}
		depReady := int64(0)
		for _, src := range wi.Srcs {
			if src.Reg != isa.NoReg && w.RegReady[src.Reg] > depReady {
				depReady = w.RegReady[src.Reg]
			}
		}
		if depReady > now {
			note(depReady)
			if depReady-now > p.DeschedulePast {
				d.Park(wIdx, depReady)
				rec.decisions = append(rec.decisions, decision{act: sched.Deschedule, wake: depReady})
				return sched.Deschedule
			}
			rec.decisions = append(rec.decisions, decision{act: sched.Keep})
			return sched.Keep
		}
		extra := int64(w.Outcomes[w.PC].ExtraCycles)
		slotFree = now + 1
		w.NextIssue = now + 1 + extra
		rec.winst++
		complete := now + 1
		switch wi.Op {
		case isa.OpALU, isa.OpNop:
			complete = now + p.ALULatency + extra
		case isa.OpSFU:
			complete = now + p.SFULatency + extra
		case isa.OpLDS:
			complete = now + p.SharedLatency + extra
		case isa.OpLDG:
			var accs []memsys.Access
			complete, accs = mem.Load(wi, now, extra)
			rec.memOps = append(rec.memOps, memOp{wi, now, extra})
			rec.loads++
			rec.loadLines += int64(len(accs))
			for _, a := range accs {
				rec.lines = append(rec.lines, a.Line)
			}
		case isa.OpSTG:
			mem.Store(wi, now, extra)
			rec.memOps = append(rec.memOps, memOp{wi, now, extra})
		case isa.OpTEX:
			complete = mem.Tex(wi, now)
			rec.memOps = append(rec.memOps, memOp{wi, now, extra})
		case isa.OpBAR, isa.OpEXIT:
			if wi.Op == isa.OpBAR {
				d.Barrier(wIdx, now)
			} else {
				d.Exit(wIdx, now)
			}
			rec.decisions = append(rec.decisions, decision{act: sched.IssuedGone, op: wi.Op})
			return sched.IssuedGone
		}
		if wi.Dst.Reg != isa.NoReg && complete > w.RegReady[wi.Dst.Reg] {
			w.RegReady[wi.Dst.Reg] = complete
		}
		w.PC++
		rec.decisions = append(rec.decisions, decision{act: sched.Issued})
		return sched.Issued
	}
	d.Start(0)
	for !d.Done() {
		if now < slotFree {
			now = slotFree
		}
		rec.stepNow = append(rec.stepNow, now)
		s.Refill(d, now)
		next = int64(1) << 62
		if s.Walk(visit) {
			continue
		}
		if wake := d.MinFutureWake(now); wake < next {
			next = wake
		}
		if next <= now {
			next = now + 1
		}
		now = next
	}
	rec.cycles = now
	return rec, nil
}

// timedPool wraps the dispatcher as the scheduler's pool, timing each
// MinReady call.
type timedPool struct {
	*dispatch.Dispatcher
	spans *spanSum
}

func (p timedPool) MinReady(now int64) (int, bool) {
	t0 := time.Now()
	w, ok := p.Dispatcher.MinReady(now)
	p.spans.add(time.Since(t0))
	return w, ok
}

// schedReplay replays the recorded steps through fresh sched and
// dispatch instances: every Walk verdict comes from the recording, so
// the visitor does no timing work. refill and minReady, when non-nil,
// time every Refill or MinReady call. It returns the loop's wall time.
func schedReplay(rs replaySpec, rec *recording, refill, minReady *spanSum) (time.Duration, error) {
	var c stats.Counters
	d, err := newDispatcher(rs, &c)
	if err != nil {
		return 0, err
	}
	s, err := sched.New(rs.params.Scheduler, rs.params.ActiveWarps, rs.params.GreedyScheduler)
	if err != nil {
		return 0, err
	}
	var pool sched.Pool = d
	if minReady != nil {
		pool = timedPool{d, minReady}
	}
	var now int64
	next := 0
	visit := func(wIdx int) sched.Action {
		dec := rec.decisions[next]
		next++
		switch dec.act {
		case sched.Deschedule:
			d.Park(wIdx, dec.wake)
		case sched.Issued:
			d.Warp(wIdx).PC++
		case sched.IssuedGone:
			if dec.op == isa.OpBAR {
				d.Barrier(wIdx, now)
			} else {
				d.Exit(wIdx, now)
			}
		}
		return dec.act
	}
	d.Start(0)
	t0 := time.Now()
	for _, now = range rec.stepNow {
		if refill != nil {
			t1 := time.Now()
			s.Refill(pool, now)
			refill.add(time.Since(t1))
		} else {
			s.Refill(pool, now)
		}
		if !s.Walk(visit) {
			d.MinFutureWake(now)
		}
	}
	return time.Since(t0), nil
}

// memsysReplay replays the recorded global-memory operations through a
// fresh pipeline and DRAM channel, timing each Load into loads. It
// returns the wall time of the whole replay less the cost of the clock
// reads around the loads.
func memsysReplay(rs replaySpec, rec *recording, loads *spanSum) time.Duration {
	var c stats.Counters
	mem := memsys.New(memConfig(rs.cfg, rs.params), dram.New(rs.params.DRAM), &c)
	var n int64
	t0 := time.Now()
	for _, op := range rec.memOps {
		switch op.wi.Op {
		case isa.OpLDG:
			t1 := time.Now()
			mem.Load(op.wi, op.now, op.extra)
			loads.add(time.Since(t1))
			n++
		case isa.OpSTG:
			mem.Store(op.wi, op.now, op.extra)
		default:
			mem.Tex(op.wi, op.now)
		}
	}
	return max(time.Since(t0)-time.Duration(n)*clockOverhead(), 0)
}

// cacheReplay replays the recorded load lines through a fresh cache and
// returns the wall time.
func cacheReplay(cacheBytes int, lines []uint32) time.Duration {
	c := cache.New(cacheBytes)
	t0 := time.Now()
	for _, l := range lines {
		c.Read(l)
	}
	return time.Since(t0)
}

// dramCall is one recorded call into the SM's DRAM system.
type dramCall struct {
	now   int64
	addr  uint32
	bytes int32
	write bool
}

// dramReplay replays recorded DRAM calls through a fresh channel and
// returns the wall time.
func dramReplay(cfg dram.Config, calls []dramCall) time.Duration {
	d := dram.New(cfg)
	t0 := time.Now()
	for _, c := range calls {
		if c.write {
			d.Write(c.now, c.addr, int(c.bytes))
		} else {
			d.Read(c.now, c.addr, int(c.bytes))
		}
	}
	return time.Since(t0)
}

// spanSum accumulates span durations. Each span includes the cost of
// reading the clock twice, which net subtracts.
type spanSum struct {
	n     int64
	total time.Duration
}

func (s *spanSum) add(d time.Duration) { s.n++; s.total += d }

// net returns the summed span time less the measured clock overhead.
func (s *spanSum) net() time.Duration {
	t := s.total - time.Duration(s.n)*clockOverhead()
	if t < 0 {
		return 0
	}
	return t
}

// perCall returns the net nanoseconds per span.
func (s *spanSum) perCall() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.net()) / float64(s.n)
}

// clockOverhead is the measured cost of an empty span.
var clockOverhead = sync.OnceValue(func() time.Duration {
	const n = 200000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return max(sum/n, 1)
})
