// Package dispatch owns the SM's work-distribution bookkeeping: CTA
// slots, warp launch and retirement, and CTA barriers. It is the layer
// between the trace source (which supplies the kernel grid) and the
// scheduler/timing core (which consume warp state).
//
// The Dispatcher holds the canonical warp array. Warp fields the timing
// core mutates on every issue (PC, scoreboard, issue serialization) are
// exported on Warp so the hot path stays direct; lifecycle transitions —
// launch, barrier arrival and release, exit, CTA rotation — go through
// Dispatcher methods so the invariants (live-warp counts, barrier
// arrival counts, early-exit barrier release) live in one place.
//
// Dispatcher implements the scheduler's Pool interface (NumWarps /
// ReadyAt / Activate), which is the only coupling between the two
// components.
package dispatch

import (
	"fmt"
	"math/bits"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/stats"
)

// TraceSource supplies the kernel grid to execute.
type TraceSource interface {
	// Grid returns the total number of CTAs and the warps per CTA.
	Grid() (ctas, warpsPerCTA int)
	// WarpTrace generates the instruction trace of one warp. It is
	// called once per warp, when the warp's CTA is launched. Returned
	// traces may be shared and must be treated as immutable.
	WarpTrace(cta, warp int) []isa.WarpInst
}

// MemoSource is a TraceSource that also supplies each warp's memoized
// trace-static tables (the trace cache in internal/workloads builds
// them): the issue records (isa.IssueRecords), the coalesced
// global-memory lines (memsys.TraceLines), and the bank-conflict
// outcomes under a bank-model variant (banks.Outcomes). Each table must
// be index-aligned with the warp's trace and immutable; a nil table
// means the source has none for that warp. For any other source, and
// any nil table, the dispatcher builds the table itself when it
// launches the warp, so every live warp carries all three.
type MemoSource interface {
	TraceSource
	WarpIssue(cta, warp int) []isa.Issue
	WarpLines(cta, warp int) memsys.Lines
	WarpOutcomes(cta, warp int, design config.Design, aggressive bool) []banks.Outcome
}

// Status is a warp's lifecycle state.
type Status uint8

const (
	// Idle: the slot is unoccupied.
	Idle Status = iota
	// Ready: eligible for the active set at its wake cycle (ReadyAt).
	Ready
	// Active: in the scheduler's active set.
	Active
	// Barrier: blocked at a CTA barrier.
	Barrier
	// Done: exited.
	Done
)

// Warp is one warp slot. The scheduler and timing core identify warps by
// their slot index in the Dispatcher.
type Warp struct {
	Status  Status
	CTASlot int
	Trace   []isa.WarpInst
	// Issue, Outcomes, and Lines are the trace-static tables of Trace,
	// index-aligned with it (see MemoSource); every live warp carries
	// all three, attached at launch. Issue holds each instruction's
	// issue record, which the timing core's readiness check and issue
	// charge read instead of the wide instruction. Outcomes holds each
	// instruction's bank-conflict outcome under the dispatcher's
	// bank-model variant (see EnableOutcomes). Lines holds each global
	// memory instruction's coalesced lines, which the memory pipeline
	// walks.
	Issue    []isa.Issue
	Outcomes []banks.Outcome
	Lines    memsys.Lines
	PC       int
	// NextIssue serializes the warp's own issue stream while the
	// bank-conflict extra cycles of its previous instruction elapse.
	NextIssue int64
	// RegReady is the per-register scoreboard: the cycle each
	// architectural register's pending value arrives.
	RegReady [isa.MaxRegs]int64
	// ArbStall records that the warp's pending issue serialization came
	// from an arbitration conflict, for the observability layer's stall
	// attribution. Timing never reads it.
	ArbStall bool
}

// ctaSlot tracks one resident CTA.
type ctaSlot struct {
	id        int // grid CTA index, -1 if empty
	stream    int // owning stream (kernel) index
	liveWarps int
	barWaits  int
	warps     []int // warp slot indices
}

// StreamSpec describes one co-resident kernel (stream) of a
// dispatcher: its grid source, the number of CTA slots it holds
// resident, and the counter set its launch and retirement events are
// filed into.
type StreamSpec struct {
	// Source supplies the stream's kernel grid.
	Source TraceSource
	// ResidentCTAs is the number of CTA slots reserved for this stream.
	ResidentCTAs int
	// Counters receives the stream's ThreadsRun, CTAsRetired, and
	// MaxResidentThreads.
	Counters *stats.Counters
}

// streamState is one stream's launch bookkeeping.
type streamState struct {
	src TraceSource
	// memo is src's memo view, nil when the source memoizes nothing.
	// Each stream has its own trace source and therefore its own memos.
	memo      MemoSource
	nextCTA   int // next grid CTA of this stream to launch
	totalCTAs int
	warpsPer  int
	liveWarps int
	// doneAt is the cycle the stream's last warp exited with no grid
	// CTAs left, -1 while the stream still has work — the stream's own
	// completion time under co-residency.
	doneAt int64
	// mask selects the warp slots owned by this stream's CTA slots.
	mask uint64
	// c receives the stream's launch and retirement events.
	c *stats.Counters
}

// Dispatcher launches the grid's CTAs into resident slots, rotates new
// CTAs in as old ones drain, and resolves barriers. It hosts one or
// more kernels (streams) at once: each CTA slot is pinned to one stream,
// slots are interleaved round-robin across streams, and a drained slot
// relaunches the next CTA of its own stream.
type Dispatcher struct {
	// design and aggressive select the bank-model variant of every
	// warp's outcomes (see EnableOutcomes).
	design     config.Design
	aggressive bool

	streams []streamState

	warps []Warp
	// streamOf maps each warp slot to its owning stream index; the
	// mapping is structural (slots never change streams).
	streamOf []int
	ctas     []ctaSlot

	liveWarps int
	// readyMask has bit w set iff warp slot w is in the Ready state, so
	// the scheduler's refill and the timing core's wake scan walk only
	// the ready warps (usually none, on a busy SM) instead of every
	// slot. MaxWarpsPerSM <= 64 keeps every slot in one word (checked
	// at compile time below).
	readyMask uint64
	// wake holds each Ready warp's wake cycle, densely, so wake queries
	// touch one small array instead of a cache line per Warp. Entries
	// of warps outside readyMask are stale and never read.
	wake []int64
	// minWake is the earliest wake over the ready set (noWake when it is
	// empty) unless minStale: Activate marks it stale when the warp
	// holding it leaves, and minReadyWake rescans on the next query.
	minWake  int64
	minStale bool
}

// noWake is the wake-query answer when no wake cycle qualifies.
const noWake = int64(1) << 62

// readyMask must cover every possible warp slot.
var _ [64 - config.MaxWarpsPerSM]struct{}

// New builds a dispatcher for the grid of src with residentCTAs
// concurrent CTA slots: the one-stream case of NewMulti. Launch and
// retirement events are filed into c.
func New(src TraceSource, residentCTAs int, c *stats.Counters) (*Dispatcher, error) {
	return NewMulti([]StreamSpec{{Source: src, ResidentCTAs: residentCTAs, Counters: c}})
}

// NewMulti builds a dispatcher hosting the given streams concurrently.
// CTA slots are interleaved round-robin across streams (stream 0's
// first slot, stream 1's first slot, ..., stream 0's second slot, ...),
// so slot — and therefore warp — indices alternate between streams and
// index-based tie-breaks (MinReady) stay fair.
func NewMulti(specs []StreamSpec) (*Dispatcher, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("dispatch: need at least one stream")
	}
	d := &Dispatcher{streams: make([]streamState, len(specs)), minWake: noWake}
	totalWarps, maxResident := 0, 0
	for i, sp := range specs {
		if sp.Source == nil || sp.Counters == nil {
			return nil, fmt.Errorf("dispatch: stream %d has no trace source or counter set", i)
		}
		if sp.ResidentCTAs < 1 {
			return nil, fmt.Errorf("dispatch: stream %d needs at least one resident CTA", i)
		}
		totalCTAs, warpsPer := sp.Source.Grid()
		if warpsPer < 1 {
			return nil, fmt.Errorf("dispatch: stream %d has no warps per CTA", i)
		}
		st := &d.streams[i]
		st.src = sp.Source
		st.memo, _ = sp.Source.(MemoSource)
		st.totalCTAs = totalCTAs
		st.warpsPer = warpsPer
		st.doneAt = -1
		st.c = sp.Counters
		totalWarps += sp.ResidentCTAs * warpsPer
		if sp.ResidentCTAs > maxResident {
			maxResident = sp.ResidentCTAs
		}
	}
	if totalWarps > config.MaxWarpsPerSM {
		return nil, fmt.Errorf("dispatch: %d streams need %d warp slots, exceeding the %d-warp SM limit",
			len(specs), totalWarps, config.MaxWarpsPerSM)
	}
	d.warps = make([]Warp, totalWarps)
	d.wake = make([]int64, totalWarps)
	d.streamOf = make([]int, totalWarps)
	base := 0
	for round := 0; round < maxResident; round++ {
		for s, sp := range specs {
			if round >= sp.ResidentCTAs {
				continue
			}
			warpsPer := d.streams[s].warpsPer
			slot := ctaSlot{id: -1, stream: s, warps: make([]int, warpsPer)}
			for w := 0; w < warpsPer; w++ {
				slot.warps[w] = base + w
				d.streamOf[base+w] = s
				d.streams[s].mask |= 1 << uint(base+w)
			}
			base += warpsPer
			d.ctas = append(d.ctas, slot)
		}
	}
	return d, nil
}

// EnableOutcomes selects the bank-model variant every launched warp's
// outcomes are resolved under; a dispatcher that never calls it uses
// the simple partitioned variant. It must be called before Start.
func (d *Dispatcher) EnableOutcomes(design config.Design, aggressive bool) {
	d.design, d.aggressive = design, aggressive
}

// Start launches the initial resident CTAs at the given cycle and records
// each stream's resident-thread high-water mark.
func (d *Dispatcher) Start(cycle int64) {
	for slot := range d.ctas {
		st := &d.streams[d.ctas[slot].stream]
		if st.nextCTA < st.totalCTAs {
			d.launch(slot, cycle)
		}
	}
	for i := range d.ctas {
		if c := &d.ctas[i]; c.id >= 0 {
			d.streams[c.stream].c.MaxResidentThreads += len(c.warps) * isa.WarpSize
		}
	}
	// A stream with an empty grid is complete before it begins.
	for i := range d.streams {
		st := &d.streams[i]
		if st.liveWarps == 0 && st.nextCTA >= st.totalCTAs && st.doneAt < 0 {
			st.doneAt = cycle
		}
	}
}

// launch populates a CTA slot with its stream's next grid CTA; the
// warps wake at the given cycle.
func (d *Dispatcher) launch(slot int, cycle int64) {
	c := &d.ctas[slot]
	st := &d.streams[c.stream]
	c.id = st.nextCTA
	st.nextCTA++
	c.liveWarps = st.warpsPer
	c.barWaits = 0
	for i, wIdx := range c.warps {
		w := &d.warps[wIdx]
		*w = Warp{
			CTASlot: slot,
			Trace:   st.src.WarpTrace(c.id, i),
		}
		d.resolveMemos(st, w, c.id, i)
		d.ready(wIdx, cycle)
		d.liveWarps++
		st.liveWarps++
	}
	st.c.ThreadsRun += int64(st.warpsPer) * isa.WarpSize
}

// resolveMemos attaches the trace-static tables of warp (cta, warp) to
// w: the stream source's memo of each table when it has one, else a
// table built here from w.Trace, once per launch (or restore).
func (d *Dispatcher) resolveMemos(st *streamState, w *Warp, cta, warp int) {
	w.Issue, w.Lines, w.Outcomes = nil, nil, nil
	if st.memo != nil {
		w.Issue = st.memo.WarpIssue(cta, warp)
		w.Lines = st.memo.WarpLines(cta, warp)
		w.Outcomes = st.memo.WarpOutcomes(cta, warp, d.design, d.aggressive)
	}
	if w.Issue == nil {
		w.Issue = isa.IssueRecords(w.Trace)
	}
	if w.Lines == nil {
		w.Lines = memsys.TraceLines(w.Trace)
	}
	if w.Outcomes == nil {
		w.Outcomes = banks.Outcomes(d.design, d.aggressive, w.Trace)
	}
}

// ready puts warp w in the Ready state, eligible for promotion at wake.
func (d *Dispatcher) ready(w int, wake int64) {
	d.warps[w].Status = Ready
	d.wake[w] = wake
	d.readyMask |= 1 << uint(w)
	d.minWake = min(d.minWake, wake)
}

// minReadyWake returns the earliest wake over the ready set, or noWake
// when the set is empty. It rescans the dense wake array only when the
// cached minimum went stale.
func (d *Dispatcher) minReadyWake() int64 {
	if d.minStale {
		d.minWake, d.minStale = noWake, false
		for m := d.readyMask; m != 0; m &= m - 1 {
			d.minWake = min(d.minWake, d.wake[bits.TrailingZeros64(m)])
		}
	}
	return d.minWake
}

// Done reports whether every warp of the grid has exited.
func (d *Dispatcher) Done() bool { return d.liveWarps == 0 }

// LiveWarps returns the number of warps not yet exited.
func (d *Dispatcher) LiveWarps() int { return d.liveWarps }

// NumWarps returns the number of warp slots (the sched.Pool view).
func (d *Dispatcher) NumWarps() int { return len(d.warps) }

// Warp returns the warp at slot i for direct state access.
func (d *Dispatcher) Warp(i int) *Warp { return &d.warps[i] }

// ReadyAt reports whether warp w awaits promotion and its wake cycle
// (the sched.Pool view).
func (d *Dispatcher) ReadyAt(w int) (int64, bool) {
	if d.warps[w].Status != Ready {
		return 0, false
	}
	return d.wake[w], true
}

// MinReady returns the Ready warp with the oldest wake cycle at or
// before now, lowest slot index breaking ties — the promotion rule of
// the two-level scheduler (the sched.Pool view). When no ready warp is
// due it answers from the cached minimum; otherwise the winner is the
// lowest-slot ready warp holding that minimum.
func (d *Dispatcher) MinReady(now int64) (w int, ok bool) {
	earliest := d.minReadyWake()
	if earliest > now {
		return -1, false
	}
	for m := d.readyMask; ; m &= m - 1 {
		if i := bits.TrailingZeros64(m); d.wake[i] == earliest {
			return i, true
		}
	}
}

// MinFutureWake returns the earliest wake cycle strictly after now among
// Ready warps, or int64(1)<<62 when there is none — the timing core's
// next-event candidate for warp wake-ups. It is the cached minimum
// unless a due warp still waits for an active-set slot; only then does
// it scan the dense wake array.
func (d *Dispatcher) MinFutureWake(now int64) int64 {
	earliest := d.minReadyWake()
	if earliest > now {
		return earliest
	}
	future := noWake
	for m := d.readyMask; m != 0; m &= m - 1 {
		if wake := d.wake[bits.TrailingZeros64(m)]; wake > now && wake < future {
			future = wake
		}
	}
	return future
}

// Activate marks warp w as entering the scheduler's active set (the
// sched.Pool view).
func (d *Dispatcher) Activate(w int) {
	d.warps[w].Status = Active
	d.readyMask &^= 1 << uint(w)
	if d.wake[w] == d.minWake {
		d.minStale = true
	}
}

// Park returns an active warp to the Ready state to wait out a
// long-latency dependence, eligible for promotion again at wake (the
// two-level scheduler's deschedule rule). The caller removes the warp
// from the active set.
func (d *Dispatcher) Park(w int, wake int64) { d.ready(w, wake) }

// Barrier blocks warp wIdx at its CTA barrier (advancing its PC past the
// BAR instruction); when it is the last live warp to arrive, the whole
// CTA is released to wake at now+1. The caller removes the warp from the
// active set.
func (d *Dispatcher) Barrier(wIdx int, now int64) {
	w := &d.warps[wIdx]
	c := &d.ctas[w.CTASlot]
	w.PC++
	w.Status = Barrier
	c.barWaits++
	if c.barWaits >= c.liveWarps {
		c.barWaits = 0
		d.release(c, now)
	}
}

// release wakes every barrier-blocked warp of the CTA.
func (d *Dispatcher) release(c *ctaSlot, now int64) {
	for _, idx := range c.warps {
		if d.warps[idx].Status == Barrier {
			d.ready(idx, now+1)
		}
	}
}

// Exit retires warp wIdx and, when its CTA drains, launches its
// stream's next grid CTA into the freed slot. An exiting warp may also
// be the last one holding up a barrier (warps that exit early release
// their CTA-mates). The caller removes the warp from the active set.
func (d *Dispatcher) Exit(wIdx int, now int64) {
	w := &d.warps[wIdx]
	c := &d.ctas[w.CTASlot]
	st := &d.streams[c.stream]
	w.Status = Done
	w.Trace = nil
	w.Issue = nil
	w.Outcomes = nil
	w.Lines = nil
	d.liveWarps--
	st.liveWarps--
	c.liveWarps--
	if c.liveWarps == 0 {
		st.c.CTAsRetired++
		slot := w.CTASlot
		c.id = -1
		if st.nextCTA < st.totalCTAs {
			d.launch(slot, now)
		}
	} else if c.barWaits >= c.liveWarps && c.barWaits > 0 {
		c.barWaits = 0
		d.release(c, now)
	}
	if st.liveWarps == 0 && st.nextCTA >= st.totalCTAs && st.doneAt < 0 {
		st.doneAt = now
	}
}

// NumStreams returns the number of co-resident streams (the
// sched.StreamPool view).
func (d *Dispatcher) NumStreams() int { return len(d.streams) }

// Stream returns the stream index owning warp slot w (the
// sched.StreamPool view). The mapping is structural and never changes.
func (d *Dispatcher) Stream(w int) int { return d.streamOf[w] }

// MinReadyOf is MinReady restricted to one stream's warp slots (the
// sched.StreamPool view): the stream's Ready warp with the oldest wake
// at or before now, lowest slot index breaking ties.
func (d *Dispatcher) MinReadyOf(now int64, stream int) (w int, ok bool) {
	if d.minReadyWake() > now {
		return -1, false
	}
	best, bestWake := -1, int64(0)
	for m := d.readyMask & d.streams[stream].mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if wake := d.wake[i]; wake <= now && (best < 0 || wake < bestWake) {
			best, bestWake = i, wake
		}
	}
	return best, best >= 0
}

// StreamDoneAt returns the cycle a stream's last warp exited (its
// completion time under co-residency), or -1 while it still has live
// warps or unlaunched CTAs.
func (d *Dispatcher) StreamDoneAt(stream int) int64 { return d.streams[stream].doneAt }

// Counts returns the number of warps blocked at a barrier and the number
// awaiting promotion, for the stall classifier.
func (d *Dispatcher) Counts() (barrier, ready int) {
	for i := range d.warps {
		switch d.warps[i].Status {
		case Barrier:
			barrier++
		case Ready:
			ready++
		}
	}
	return barrier, ready
}
