// Package probe is the simulator's cycle-level observability layer.
//
// A Probe attaches to one SM run (core.WithProbe, or sm.Spec.Probe) and
// attributes every issue slot of the run to either an issued instruction
// or one stall cause, accumulates a per-bank access/conflict heatmap, and
// samples interval time series (issue slots, stall breakdown, cache and
// DRAM phase behaviour) every Interval cycles. Attached to an io.Writer,
// it streams the profile as NDJSON records (ndjson.go) for external
// tooling; Decode reads such a stream back.
//
// Observability is strictly opt-in and passive: a nil *Probe disables
// every hook (the SM guards each call site), and an attached probe only
// reads simulator state, so counters and golden outputs are identical
// with and without one. The hot hooks (Issue, Stall, Heat) perform no
// allocation; interval records are appended to a pre-grown slice and
// NDJSON encoding happens only at interval boundaries, off the SM's
// issue loop.
package probe

import (
	"io"

	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/stats"
)

// StallReason classifies why an SM issue slot was lost. The scheduler
// charges each stalled cycle to exactly one reason, by the priority
// documented on the constants (highest first), so the per-reason totals
// plus issued slots always sum to the run's total issue slots.
type StallReason uint8

const (
	// StallBarrier: every live warp is blocked at a CTA barrier.
	StallBarrier StallReason = iota
	// StallMSHRFull: the cycle fell inside a window in which all cache
	// miss entries were in flight, so a load was waiting on an MSHR to
	// retire rather than on ordinary memory latency.
	StallMSHRFull
	// StallScoreboard: an active warp was waiting (short wait, below the
	// descheduling threshold) for a source operand to be produced.
	StallScoreboard
	// StallArbitration: the only issue candidates were serialized by a
	// unified-design arbitration conflict (a register operand and a
	// shared/cache access contending for one bank) on their previous
	// instruction.
	StallArbitration
	// StallBankConflict: the only issue candidates were serialized by
	// ordinary bank conflicts on their previous instruction.
	StallBankConflict
	// StallNoReadyWarp: the active set was empty and no warp was ready
	// to be promoted — warps were descheduled on long-latency (memory)
	// dependences, or the grid's tail left nothing to run.
	StallNoReadyWarp
	// StallDrain: cycles after the last warp exited while posted
	// tag-port work drained.
	StallDrain

	// NumStallReasons is the number of stall categories.
	NumStallReasons = int(StallDrain) + 1
)

// stallNames are the NDJSON/report keys, in StallReason order.
var stallNames = [NumStallReasons]string{
	"barrier", "mshr_full", "scoreboard", "arbitration", "bank_conflict",
	"no_ready_warp", "drain",
}

// String names the reason (the NDJSON key).
func (r StallReason) String() string {
	if int(r) < NumStallReasons {
		return stallNames[r]
	}
	return "unknown"
}

// DefaultInterval is the sampling interval, in cycles, used when a Probe
// is created with interval 0.
const DefaultInterval = 4096

// Interval is one closed sampling window of the run's time series.
type Interval struct {
	// Start and End bound the window in SM cycles: [Start, End).
	Start, End int64
	// Issued is the number of instructions issued in the window.
	Issued int64
	// Stalls is the per-reason breakdown of the window's lost slots.
	Stalls [NumStallReasons]int64
	// CacheProbes and CacheHits are the window's tag lookups and hits
	// (deltas of the run counters at the window boundaries).
	CacheProbes, CacheHits int64
	// DRAMBytes is the window's DRAM traffic in bytes.
	DRAMBytes int64
}

// Probe collects one run's cycle-level profile. A Probe observes exactly
// one SM and is not safe for concurrent use; attach a fresh Probe to
// each run of a parallel fan-out.
type Probe struct {
	interval int64
	out      io.Writer

	meta []metaKV
	// counters are the observed SM's live per-stream counter sets (its
	// only event record); the probe sums them at interval boundaries to
	// derive cache and DRAM phase deltas.
	counters []stats.Counters

	startCycle int64 // run start (chip simulators stagger SM starts)
	next       int64 // next unaccounted cycle
	began      bool
	ended      bool

	issued int64
	stalls [NumStallReasons]int64

	bankAccess   [config.NumBanks]int64
	bankConflict [config.NumBanks]int64

	// Global-load access classification, from the memory pipeline's typed
	// per-line results: tag hits, in-flight merges (MSHR hits), misses,
	// and the total touched sectors of the missed fills.
	accHits, accMerged, accMisses int64
	missSectors                   int64

	cur       Interval
	intervals []Interval

	// Counter snapshots at the current interval's start.
	snapProbes, snapHits, snapDRAM int64

	// Per-stream attribution (streams.go).
	streamNames   []string
	streamTallies []StreamTally
	lastStream    int

	encBuf []byte // reused NDJSON encode buffer
	werr   error  // first NDJSON write error
}

type metaKV struct{ key, value string }

// New returns a Probe sampling every intervalCycles cycles (0 uses
// DefaultInterval) and, when ndjson is non-nil, streaming NDJSON records
// to it as the run progresses.
func New(intervalCycles int64, ndjson io.Writer) *Probe {
	if intervalCycles <= 0 {
		intervalCycles = DefaultInterval
	}
	return &Probe{
		interval:  intervalCycles,
		out:       ndjson,
		intervals: make([]Interval, 0, 256),
		encBuf:    make([]byte, 0, 512),
	}
}

// Annotate attaches a key/value pair (kernel name, configuration, ...)
// to the profile's metadata, emitted in the NDJSON meta record. Pairs
// keep insertion order. Annotate must be called before the run begins.
func (p *Probe) Annotate(key, value string) {
	p.meta = append(p.meta, metaKV{key, value})
}

// Meta returns the annotation value for key, or "".
func (p *Probe) Meta(key string) string {
	for _, kv := range p.meta {
		if kv.key == key {
			return kv.value
		}
	}
	return ""
}

// Begin starts observation at the run's first cycle. The SM calls Begin
// from Start, after declaring its streams (SetStreams); a probe driven
// without SetStreams observes one unnamed stream and no counters.
func (p *Probe) Begin(cycle int64) {
	if p.began {
		return
	}
	p.began = true
	if p.streamTallies == nil {
		p.streamTallies = make([]StreamTally, 1)
	}
	p.startCycle = cycle
	p.next = cycle
	p.cur = Interval{Start: cycle, End: cycle + p.interval}
	if p.out != nil {
		p.writeMeta()
	}
}

// Issue records one instruction of stream issued in the slot at cycle.
// The SM guarantees cycles arrive nondecreasing and that every slot
// between Begin and End is covered by exactly one Issue or Stall call.
func (p *Probe) Issue(cycle int64, stream int) {
	p.advance(cycle)
	p.issued++
	p.cur.Issued++
	p.next = cycle + 1
	p.streamTallies[stream].Issued++
	p.lastStream = stream
}

// Stall attributes the lost issue slots [from, to) to reason, charged
// to stream (the stream the SM holds responsible for the stall).
func (p *Probe) Stall(from, to int64, reason StallReason, stream int) {
	if to > from {
		p.streamTallies[stream].Stalls[reason] += to - from
	}
	for from < to {
		p.advance(from)
		// Fill the current interval up to its end or the span's end.
		n := to - from
		if room := p.cur.End - from; room < n {
			n = room
		}
		p.stalls[reason] += n
		p.cur.Stalls[reason] += n
		from += n
	}
	if to > p.next {
		p.next = to
	}
}

// Heat returns the probe's per-bank access and conflict accumulators for
// the SM's issue hook (banks.Model.HeatInto adds one instruction's bank
// footprint to them). The arrays index by physical bank number.
func (p *Probe) Heat() (access, conflict *[config.NumBanks]int64) {
	return &p.bankAccess, &p.bankConflict
}

// MemAccess records one typed global-load line access from the memory
// pipeline (memsys.MemSys.Load). Like the other hot hooks it performs no
// allocation; the classification totals are exposed by LoadAccesses and
// do not alter the NDJSON stream or formatted profiles.
func (p *Probe) MemAccess(a *memsys.Access) {
	switch a.Status {
	case memsys.AccessHit:
		p.accHits++
	case memsys.AccessMerged:
		p.accMerged++
	case memsys.AccessMiss:
		p.accMisses++
		for m := a.Sectors; m != 0; m &= m - 1 {
			p.missSectors++
		}
	}
}

// LoadAccesses returns the global-load line-access classification: tag
// hits, in-flight merges (MSHR hits), misses, and the total number of
// 32-byte sectors the missed fills fetched.
func (p *Probe) LoadAccesses() (hits, merged, misses, missSectors int64) {
	return p.accHits, p.accMerged, p.accMisses, p.missSectors
}

// End closes observation at finalCycle (the run's reported cycle count),
// attributing any trailing slots to StallDrain, flushing the last
// partial interval, and emitting the NDJSON summary record.
func (p *Probe) End(finalCycle int64) {
	if !p.began || p.ended {
		return
	}
	p.ended = true
	if finalCycle > p.next {
		// The trailing drain is charged to the last-issuing stream: the
		// run's final issue is the last-finishing stream's EXIT, and the
		// posted tag-port work draining afterwards is its traffic.
		p.Stall(p.next, finalCycle, StallDrain, p.lastStream)
	}
	if p.cur.Issued != 0 || p.cur.Stalls != ([NumStallReasons]int64{}) {
		p.cur.End = p.next
		p.flush()
	}
	if p.out != nil {
		p.writeSummary()
		p.writeStreams()
	}
}

// advance rolls the current interval window forward until it contains
// cycle, flushing each completed interval.
func (p *Probe) advance(cycle int64) {
	for cycle >= p.cur.End {
		p.flush()
	}
}

// flush closes the current interval: snapshots counter deltas, appends
// the record, streams it as NDJSON, and opens the next window.
func (p *Probe) flush() {
	iv := p.cur
	probes, hits, dram := p.counterTotals()
	iv.CacheProbes = probes - p.snapProbes
	iv.CacheHits = hits - p.snapHits
	iv.DRAMBytes = dram - p.snapDRAM
	p.snapProbes, p.snapHits, p.snapDRAM = probes, hits, dram
	p.intervals = append(p.intervals, iv)
	if p.out != nil {
		p.writeInterval(&iv)
	}
	p.cur = Interval{Start: iv.End, End: iv.End + p.interval}
}

// counterTotals sums the cache probes, cache hits, and DRAM bytes of
// the observed streams' counter sets.
func (p *Probe) counterTotals() (probes, hits, dram int64) {
	for i := range p.counters {
		c := &p.counters[i]
		probes += c.CacheProbes
		hits += c.CacheHits
		dram += c.DRAMBytes()
	}
	return probes, hits, dram
}

// Issued returns the number of instructions issued.
func (p *Probe) Issued() int64 { return p.issued }

// StallSlots returns the per-reason totals of lost issue slots.
func (p *Probe) StallSlots() [NumStallReasons]int64 { return p.stalls }

// TotalSlots returns the total issue slots observed: issued plus every
// stall category. By construction this equals the span of cycles the
// probe covered, so the breakdown always sums exactly.
func (p *Probe) TotalSlots() int64 {
	n := p.issued
	for _, s := range p.stalls {
		n += s
	}
	return n
}

// StartCycle returns the cycle observation began at.
func (p *Probe) StartCycle() int64 { return p.startCycle }

// IntervalCycles returns the sampling interval.
func (p *Probe) IntervalCycles() int64 { return p.interval }

// Intervals returns the completed sampling windows, in time order.
func (p *Probe) Intervals() []Interval { return p.intervals }

// BankHeat returns copies of the per-bank access and conflict counts.
func (p *Probe) BankHeat() (access, conflict [config.NumBanks]int64) {
	return p.bankAccess, p.bankConflict
}

// WriteErr returns the first error encountered writing NDJSON records,
// or nil. Hooks never fail the simulation; callers that care about the
// stream check WriteErr after the run.
func (p *Probe) WriteErr() error { return p.werr }
