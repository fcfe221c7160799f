// Package sm is the streaming-multiprocessor timing simulator.
//
// It models one SM of the paper's baseline GPU (Figure 1, Table 2): 32
// SIMT lanes organized as 8 four-lane clusters, a 32-entry single-issue
// in-order warp scheduler with a two-level active/inactive policy, a
// software-managed MRF/ORF/LRF register hierarchy, shared memory, a
// write-through primary data cache with a single tag port, and a
// bandwidth-limited DRAM channel. Traces are supplied per warp by a
// TraceSource (internal/workloads via internal/kgen).
//
// The SM itself is a thin orchestrator over three components:
//
//   - internal/sched owns the warp-scheduling policy (active-set
//     selection, issue priority order, long-latency descheduling);
//   - internal/dispatch owns work distribution (CTA slots, warp launch
//     and retirement, barriers) and the canonical warp array;
//   - internal/memsys owns the global-memory pipeline (coalescer,
//     primary cache, MSHR table, sectored DRAM fills, texture path).
//
// Following the paper's Section 5.1 methodology, one SM is simulated to
// completion with its 1/32 share of chip DRAM bandwidth.
package sm

import (
	"context"
	"fmt"

	"repro/internal/banks"
	"repro/internal/config"
	"repro/internal/dispatch"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/probe"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Memory is the DRAM system the SM issues global traffic to; it is owned
// by the memory-pipeline component.
type Memory = memsys.Memory

// TraceSource supplies the kernel grid to execute; it is consumed by the
// dispatch component.
type TraceSource = dispatch.TraceSource

// Params holds the timing parameters of Table 2.
type Params struct {
	ALULatency    int64
	SFULatency    int64
	SharedLatency int64
	CacheLatency  int64 // primary cache hit latency
	TexLatency    int64
	DRAM          dram.Config
	// DeschedulePast is the wait (in cycles) beyond which a dependent
	// warp is moved to the inactive set instead of busy-waiting in the
	// active set.
	DeschedulePast int64
	// ActiveWarps is the active-set size of the warp scheduler.
	ActiveWarps int
	// Scheduler selects the warp-scheduling policy; the zero value is
	// sched.TwoLevel, the paper's two-level round-robin scheduler.
	Scheduler sched.Policy
	// AggressiveScatter selects the Section 4.2 multi-bank-per-cluster
	// scatter/gather variant of the unified design.
	AggressiveScatter bool
	// WriteBackCache replaces the paper's write-through no-write-allocate
	// cache with a write-back write-allocate one (an ablation of the
	// Section 4.3/4.4 design choice). Dirty victims cost a line writeback
	// to DRAM plus a data-array read.
	WriteBackCache bool
	// GreedyScheduler holds the two-level scheduler's cursor on the warp
	// that issued last (greedy-then-round-robin), improving intra-warp
	// locality at some fairness cost. The GTO policy is inherently
	// greedy and ignores this flag.
	GreedyScheduler bool
	// MaxMSHRs bounds outstanding cache misses; a load that needs a new
	// miss entry while all are in flight stalls until one retires.
	// Zero means unbounded (the paper's model).
	MaxMSHRs int
}

// DefaultParams returns the Table 2 parameters.
func DefaultParams() Params {
	return Params{
		ALULatency:     8,
		SFULatency:     20,
		SharedLatency:  20,
		CacheLatency:   20,
		TexLatency:     400,
		DRAM:           dram.DefaultConfig(),
		DeschedulePast: 30,
		ActiveWarps:    config.ActiveWarps,
	}
}

// SM is one simulated streaming multiprocessor: the timing core plus its
// scheduler, dispatcher, and memory-pipeline components.
type SM struct {
	params Params
	cfg    config.MemConfig

	bankModel *banks.Model
	sched     sched.Scheduler
	disp      *dispatch.Dispatcher
	mem       *memsys.MemSys
	// dramModel is the SM-private DRAM channel, nil when Spec.Memory
	// injected a shared system. Snapshot needs it: a shared memory
	// system's state belongs to the chip, not to one SM.
	dramModel *dram.DRAM
	// streams holds one counter set per stream (Spec.Streams order; one
	// for a Source spec). It is the run's only event record: the issue
	// path, the dispatcher, and the memory pipeline charge the issuing
	// stream's set, and Finish derives the aggregate from them
	// (DESIGN.md §5j).
	streams []stats.Counters
	// counters is the aggregate Finish derives from streams.
	counters stats.Counters
	// lastStream is the stream of the most recent issue (tracked on
	// probed runs only), the default attribution target for stalls no
	// single warp owns.
	lastStream int
	// prof is the attached observability probe, nil when disabled.
	// Every hook call site is guarded, so a run without a probe does no
	// observability work at all, and a probed run only reads state.
	prof *probe.Probe

	cycle      int64
	slotFreeAt int64 // issue slot busy until
	started    bool

	// visit is the Walk visitor, bound once at construction: creating the
	// method value per Step would heap-allocate a closure on the hottest
	// loop of the simulator.
	visit func(w int) sched.Action
	// nextEvent accumulates, during one tryIssue pass, the earliest future
	// cycle at which something may become issueable.
	nextEvent int64
}

// StreamSpec describes one co-resident kernel (stream) of a run.
type StreamSpec struct {
	// Name labels the stream in probe output (typically the kernel name).
	Name string
	// Source supplies the stream's grid.
	Source TraceSource
	// ResidentCTAs is the stream's share of the SM's CTA slots.
	ResidentCTAs int
}

// Spec gathers everything needed to build an SM. The zero value of the
// optional fields selects the defaults: Memory nil creates a private
// single-channel DRAM system (the chip simulator injects a shared one),
// and Probe nil disables the observability layer entirely.
//
// An SM runs one or more kernels (streams) co-resident with CTA slots
// interleaved round-robin and per-stream counter attribution. Source
// and ResidentCTAs spell a one-stream run; Streams spells any number.
type Spec struct {
	// Config is the local-memory configuration.
	Config config.MemConfig
	// Params are the timing parameters (Table 2).
	Params Params
	// Source supplies the grid of a one-stream run.
	Source TraceSource
	// ResidentCTAs is the one-stream run's number of CTA slots.
	ResidentCTAs int
	// Streams lists the co-resident streams. Mutually exclusive with
	// Source/ResidentCTAs.
	Streams []StreamSpec
	// Memory optionally injects a shared memory system.
	Memory Memory
	// Probe optionally attaches a cycle-level observability probe.
	Probe *probe.Probe
}

// NewSM builds an SM from spec.
func NewSM(spec Spec) (*SM, error) {
	if spec.Source == nil && len(spec.Streams) == 0 {
		return nil, fmt.Errorf("sm: Spec.Source is nil")
	}
	if spec.Source != nil && len(spec.Streams) > 0 {
		return nil, fmt.Errorf("sm: Spec.Source and Spec.Streams are mutually exclusive")
	}
	cfg, params := spec.Config, spec.Params
	if params.ActiveWarps < 1 {
		params.ActiveWarps = config.ActiveWarps
	}
	bankModel := banks.New(cfg.Design)
	if params.AggressiveScatter {
		bankModel = banks.NewAggressive(cfg.Design)
	}
	mem := spec.Memory
	var owned *dram.DRAM
	if mem == nil {
		owned = dram.New(params.DRAM)
		mem = owned
	}
	s := &SM{
		params:    params,
		cfg:       cfg,
		bankModel: bankModel,
		dramModel: owned,
		prof:      spec.Probe,
	}
	var err error
	if s.sched, err = sched.New(params.Scheduler, params.ActiveWarps, params.GreedyScheduler); err != nil {
		return nil, fmt.Errorf("sm: %w", err)
	}
	streams := spec.Streams
	if spec.Source != nil {
		streams = []StreamSpec{{Source: spec.Source, ResidentCTAs: spec.ResidentCTAs}}
	}
	s.streams = make([]stats.Counters, len(streams))
	specs := make([]dispatch.StreamSpec, len(streams))
	names := make([]string, len(streams))
	for i, st := range streams {
		specs[i] = dispatch.StreamSpec{Source: st.Source, ResidentCTAs: st.ResidentCTAs, Counters: &s.streams[i]}
		names[i] = st.Name
	}
	if s.disp, err = dispatch.NewMulti(specs); err != nil {
		return nil, fmt.Errorf("sm: %w", err)
	}
	if spec.Probe != nil {
		spec.Probe.SetStreams(names, s.streams)
	} else {
		// Unprobed runs replay memoized bank outcomes (an Outcome is a
		// pure function of instruction and variant); probed runs keep
		// evaluating so the model's scratch tallies feed the heatmap.
		s.disp.EnableOutcomes(cfg.Design, params.AggressiveScatter)
	}
	s.visit = s.visitWarp
	s.mem = memsys.New(memConfig(cfg, params), mem, &s.streams[0])
	return s, nil
}

// memConfig derives the memory-pipeline configuration from the SM
// parameters; NewSM and SetParams must agree on it so a fork built with
// divergent params and an in-place param switch behave identically.
func memConfig(cfg config.MemConfig, params Params) memsys.Config {
	return memsys.Config{
		CacheBytes:   cfg.CacheBytes,
		CacheLatency: params.CacheLatency,
		TexLatency:   params.TexLatency,
		DRAMLatency:  params.DRAM.LatencyCycles,
		MaxMSHRs:     params.MaxMSHRs,
		WriteBack:    params.WriteBackCache,
	}
}

// cycleBound guards against scheduler deadlock in case of a malformed
// trace (e.g. a barrier reached by only part of a CTA).
const cycleBound = int64(1) << 40

// Start launches the initial resident CTAs. It is called implicitly by
// Run; the chip simulator calls it directly before stepping.
func (s *SM) Start() { s.StartAt(0) }

// StartAt launches the initial resident CTAs at the given cycle (the chip
// simulator staggers SM start times, as the hardware work distributor's
// sequential CTA launch does).
func (s *SM) StartAt(cycle int64) {
	if s.started {
		return
	}
	s.started = true
	s.cycle = cycle
	if s.prof != nil {
		s.prof.Begin(cycle)
	}
	s.disp.Start(cycle)
}

// Done reports whether every warp of the grid has exited.
func (s *SM) Done() bool { return s.started && s.disp.Done() }

// Cycle returns the SM's local clock, used by the chip simulator to
// advance SMs in global time order.
func (s *SM) Cycle() int64 { return s.cycle }

// Step advances the SM by one scheduling action: either one instruction
// issues, or the local clock advances to the next interesting event. The
// local clock is nondecreasing across calls and strictly increases at
// least every second call.
func (s *SM) Step() error {
	if s.cycle < s.slotFreeAt {
		s.cycle = s.slotFreeAt
	}
	s.sched.Refill(s.disp, s.cycle)
	issued, nextEvent := s.tryIssue()
	if issued {
		return nil
	}
	if nextEvent <= s.cycle {
		nextEvent = s.cycle + 1
	}
	if s.prof != nil {
		reason, stream := s.stallReason()
		s.prof.Stall(s.cycle, nextEvent, reason, stream)
	}
	s.cycle = nextEvent
	if s.cycle > cycleBound {
		return fmt.Errorf("sm: no forward progress by cycle %d (deadlocked trace?)", s.cycle)
	}
	return nil
}

// Finish finalizes and returns the aggregate counters, derived from the
// per-stream sets: the additive categories and resident threads sum
// across streams, and execution ends when the last warp exits AND
// posted tag-port work has drained. Each stream's Cycles is the cycle
// its own last warp exited.
func (s *SM) Finish() *stats.Counters {
	s.counters = stats.Counters{}
	resident := 0
	for i := range s.streams {
		sc := &s.streams[i]
		sc.Cycles = s.disp.StreamDoneAt(i)
		s.counters.Add(sc)
		resident += sc.MaxResidentThreads
	}
	s.counters.MaxResidentThreads = resident
	s.counters.Cycles = max(s.cycle, s.mem.TagFreeAt())
	s.counters.DirtyLinesEnd = s.mem.DirtyLines()
	if s.prof != nil {
		s.prof.End(s.counters.Cycles)
	}
	return &s.counters
}

// StreamCounters returns the per-stream counters, indexed by stream
// (Spec.Streams order; one entry for a Source spec). The additive event
// categories sum exactly to the aggregate counters; Cycles holds each
// stream's own completion cycle. Call after Finish.
func (s *SM) StreamCounters() []stats.Counters { return s.streams }

// stallReason classifies a failed issue attempt for the observability
// probe and names the stream the lost slots are charged to, reading
// each component at its boundary: active-set occupancy from the
// scheduler, warp lifecycle counts from the dispatcher, and the
// MSHR-saturation window from the memory pipeline. Each lost slot is
// charged to exactly one cause, by fixed priority: barrier > MSHR-full >
// scoreboard > arbitration > bank-conflict > no-ready-warp. The stream
// is that of the first warp exhibiting the winning cause, or the
// last-issuing stream for causes no single warp owns (MSHR saturation,
// an empty ready set). Only probed runs call this, on the (cold)
// no-issue path.
func (s *SM) stallReason() (probe.StallReason, int) {
	if s.sched.Len() == 0 {
		barrier, readyLater := s.disp.Counts()
		if barrier > 0 && readyLater == 0 {
			for i, n := 0, s.disp.NumWarps(); i < n; i++ {
				if s.disp.Warp(i).Status == dispatch.Barrier {
					return probe.StallBarrier, s.disp.Stream(i)
				}
			}
		}
		if s.cycle < s.mem.MSHRBlockedUntil() {
			return probe.StallMSHRFull, s.lastStream
		}
		return probe.StallNoReadyWarp, s.lastStream
	}
	depStream, serialStream, arbStream := -1, -1, -1
	for _, wIdx := range s.sched.Active() {
		w := s.disp.Warp(wIdx)
		if w.NextIssue > s.cycle {
			// The warp holds its own issue stream while bank-conflict
			// extra cycles of its previous instruction elapse.
			if serialStream < 0 {
				serialStream = s.disp.Stream(wIdx)
			}
			if w.ArbStall && arbStream < 0 {
				arbStream = s.disp.Stream(wIdx)
			}
			continue
		}
		// An active warp that is not serialized failed on an operand
		// dependence (long waits were descheduled out of the set).
		if depStream < 0 {
			depStream = s.disp.Stream(wIdx)
		}
	}
	switch {
	case s.cycle < s.mem.MSHRBlockedUntil():
		return probe.StallMSHRFull, s.lastStream
	case depStream >= 0:
		return probe.StallScoreboard, depStream
	case arbStream >= 0:
		return probe.StallArbitration, arbStream
	case serialStream >= 0:
		return probe.StallBankConflict, serialStream
	}
	return probe.StallNoReadyWarp, s.lastStream
}

// Run executes the grid to completion and returns the event counters.
func (s *SM) Run() (*stats.Counters, error) {
	s.Start()
	for !s.Done() {
		if err := s.Step(); err != nil {
			return nil, err
		}
	}
	return s.Finish(), nil
}

// ctxCheckInterval is the number of Step calls RunContext executes
// between context polls. Polling is two predictable branches per
// interval, so the context-aware loop stays indistinguishable from Run
// on the profiles while still bounding cancellation latency to a few
// microseconds of simulated work.
const ctxCheckInterval = 1 << 13

// RunContext is Run with cooperative cancellation: the cycle loop polls
// ctx every few thousand steps and aborts with ctx.Err() once the
// context is done. A context that can never be cancelled (for example
// context.Background()) selects the exact Run path. A completed run's
// counters are identical to Run's — cancellation only decides whether
// the run finishes, never what it computes.
func (s *SM) RunContext(ctx context.Context) (*stats.Counters, error) {
	if ctx == nil || ctx.Done() == nil {
		return s.Run()
	}
	s.Start()
	budget := ctxCheckInterval
	for !s.Done() {
		if err := s.Step(); err != nil {
			return nil, err
		}
		if budget--; budget == 0 {
			budget = ctxCheckInterval
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
		}
	}
	return s.Finish(), nil
}

// tryIssue attempts to issue one warp instruction from the active set in
// the scheduling policy's priority order. It returns whether an
// instruction issued and, if not, the earliest future cycle at which
// something may become issueable.
//
// The wake-up scan over Ready warps runs only on a failed issue (its
// result is unused otherwise) and only when some warp is Ready at all;
// warps the Walk itself parks are Ready with their wake cycle already
// noted, so scanning after the Walk observes the same set of events.
func (s *SM) tryIssue() (bool, int64) {
	s.nextEvent = int64(1) << 62
	if s.sched.Walk(s.visit) {
		return true, s.nextEvent
	}
	// Wake-ups of ready and barrier-released warps are future events.
	if wake := s.disp.MinFutureWake(s.cycle); wake < s.nextEvent {
		s.nextEvent = wake
	}
	return false, s.nextEvent
}

// note records a candidate next-event cycle.
func (s *SM) note(t int64) {
	if t > s.cycle && t < s.nextEvent {
		s.nextEvent = t
	}
}

// visitWarp is the Walk visitor: it judges one active-set candidate,
// issuing it when its operands are ready.
func (s *SM) visitWarp(wIdx int) sched.Action {
	w := s.disp.Warp(wIdx)
	wi := &w.Trace[w.PC]

	if w.NextIssue > s.cycle {
		s.note(w.NextIssue)
		return sched.Keep
	}
	depReady := int64(0)
	for _, src := range wi.Srcs {
		if src.Reg != isa.NoReg {
			if t := w.RegReady[src.Reg]; t > depReady {
				depReady = t
			}
		}
	}
	if depReady > s.cycle {
		s.note(depReady)
		if depReady-s.cycle > s.params.DeschedulePast {
			// Two-level rule: swap out on a long-latency dependence.
			s.disp.Park(wIdx, depReady)
			return sched.Deschedule
		}
		return sched.Keep
	}
	return s.issue(wIdx, w, wi)
}

// issue executes one warp instruction and reports to the scheduler
// whether the warp stays in the active set (Issued) or leaves it on a
// barrier or exit (IssuedGone).
func (s *SM) issue(wIdx int, w *dispatch.Warp, wi *isa.WarpInst) sched.Action {
	var out banks.Outcome
	if w.Outcomes != nil {
		// Replay the memoized outcome (attached at launch for unprobed
		// runs); the conflict model is bypassed entirely.
		out = w.Outcomes[w.PC]
	} else {
		out = s.bankModel.Evaluate(wi)
	}
	// Every event of the instruction is charged to the issuing warp's
	// stream.
	stream := s.disp.Stream(wIdx)
	sc := &s.streams[stream]
	if s.prof != nil {
		s.lastStream = stream
		s.prof.Issue(s.cycle, stream)
		acc, conf := s.prof.Heat()
		s.bankModel.HeatInto(acc, conf)
	}
	w.ArbStall = out.Arbitration && out.ExtraCycles > 0
	sc.WarpInsts++
	sc.ThreadInsts += int64(wi.ActiveThreads())
	if wi.Spill {
		sc.SpillInsts++
	}
	sc.RecordConflict(int(out.MaxPerBank))
	if out.Arbitration {
		sc.ArbitrationConflicts++
	}
	sc.RecordRegAccesses(wi)

	// Bank-conflict serialization follows the paper's §6.1 model: each
	// access beyond the first to the most-contended bank delays *this*
	// instruction by one cycle — the issuing warp holds its own issue
	// stream and its result arrives late, but other warps keep issuing.
	// (The model tracks only within-instruction conflicts, as the paper's
	// does; there is no cross-instruction bank port contention.)
	extra := int64(out.ExtraCycles)
	s.slotFreeAt = s.cycle + 1
	w.NextIssue = s.cycle + 1 + extra

	complete := s.cycle + 1
	switch wi.Op {
	case isa.OpALU, isa.OpNop:
		complete = s.cycle + s.params.ALULatency + extra
	case isa.OpSFU:
		complete = s.cycle + s.params.SFULatency + extra
	case isa.OpLDS:
		complete = s.cycle + s.params.SharedLatency + extra
		sc.SharedReads += int64(out.MemAccesses)
	case isa.OpSTS:
		sc.SharedWrites += int64(out.MemAccesses)
	case isa.OpLDG:
		var accs []memsys.Access
		s.mem.SetCounters(sc)
		complete, accs = s.mem.LoadLines(wi, s.lines(w, wi), s.cycle, extra)
		if s.prof != nil {
			for i := range accs {
				s.prof.MemAccess(&accs[i])
			}
		}
	case isa.OpSTG:
		s.mem.SetCounters(sc)
		s.mem.StoreLines(wi, s.lines(w, wi), s.cycle, extra)
	case isa.OpTEX:
		s.mem.SetCounters(sc)
		complete = s.mem.TexLines(s.lines(w, wi), s.cycle)
	case isa.OpBAR:
		s.disp.Barrier(wIdx, s.cycle)
		return sched.IssuedGone
	case isa.OpEXIT:
		s.disp.Exit(wIdx, s.cycle)
		return sched.IssuedGone
	}

	if wi.Dst.Reg != isa.NoReg {
		if complete > w.RegReady[wi.Dst.Reg] {
			w.RegReady[wi.Dst.Reg] = complete
		}
	}
	w.PC++
	return sched.Issued
}

// lines returns the coalesced lines of the warp's current global memory
// instruction: the trace source's memo when it supplies one, else the
// memory pipeline's coalescer run on the spot.
func (s *SM) lines(w *dispatch.Warp, wi *isa.WarpInst) []uint32 {
	if w.Lines != nil {
		return w.Lines.At(w.PC)
	}
	return s.mem.Coalesce(wi)
}

// DirtyCacheLines returns the number of modified lines resident in the
// cache at the end of a run — the flush a write-back design would need on
// repartitioning (always zero for write-through).
func (s *SM) DirtyCacheLines() int { return s.mem.DirtyLines() }
