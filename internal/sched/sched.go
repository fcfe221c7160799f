// Package sched implements the SM's warp-scheduling policies behind a
// single Scheduler interface: which warps occupy the active set, in what
// order they compete for the one issue slot per cycle, and when a warp is
// moved to the inactive set to wait out a long-latency dependence.
//
// The package owns only scheduling state (the active list and the
// policy's cursor). Warp state — readiness, wake cycles, traces — stays
// with the SM's dispatch component, which the scheduler sees through the
// narrow Pool interface; the issue-time readiness test stays with the SM
// timing core, which drives Walk with a visitor that returns an Action
// per candidate. This split is what lets a policy be swapped without
// touching either the warp bookkeeping or the timing model.
//
// Two policies are provided:
//
//   - TwoLevel: the paper's two-level scheduler. Ready warps are promoted
//     into a fixed-size active set oldest-wakeup-first; the active set is
//     walked round-robin (or greedy, holding the last issuer, when built
//     with greedy=true); warps that hit a long-latency dependence are
//     descheduled back to the inactive set.
//   - GTO: greedy-then-oldest. The last-issued warp retries first; on
//     failure the remaining active warps are tried oldest-activation
//     first. Promotion and descheduling follow the same two-level rules,
//     so the comparison isolates the issue-ordering policy.
package sched

import "fmt"

// Policy names a scheduler implementation. The zero value selects
// TwoLevel, the paper's policy.
type Policy string

const (
	// TwoLevel is the paper's two-level round-robin scheduler.
	TwoLevel Policy = "twolevel"
	// GTO is the greedy-then-oldest alternative.
	GTO Policy = "gto"
)

// Policies returns the selectable policy names, default first.
func Policies() []Policy { return []Policy{TwoLevel, GTO} }

// ParsePolicy validates a policy name; the empty string selects TwoLevel.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", TwoLevel:
		return TwoLevel, nil
	case GTO:
		return GTO, nil
	}
	return "", fmt.Errorf("sched: unknown policy %q (want %q or %q)", s, TwoLevel, GTO)
}

// Pool is the scheduler's view of the warp pool, implemented by the SM's
// dispatch component. Warps are identified by their pool slot index.
type Pool interface {
	// NumWarps returns the number of warp slots.
	NumWarps() int
	// ReadyAt reports whether warp w is awaiting promotion into the
	// active set and, if so, the cycle it becomes (or became) eligible.
	ReadyAt(w int) (wake int64, ok bool)
	// MinReady returns the warp Refill must promote next: the one with
	// the oldest wake at or before now, lowest slot index breaking
	// ties. ok is false when no warp is eligible. Pool implementations
	// answer this from their own ready-set bookkeeping so Refill does
	// not scan every warp slot per cycle.
	MinReady(now int64) (w int, ok bool)
	// Activate marks warp w as a member of the active set.
	Activate(w int)
}

// StreamPool is an optional Pool extension implemented by pools that
// host several co-resident kernels (streams). When a pool reports more
// than one stream, the shared promotion rule switches to a stream-fair
// variant: vacant active-set slots go to the stream with the fewest
// active members first, so one kernel's warp surplus cannot starve a
// co-tenant of issue opportunities. With one stream the promotion rule
// is exactly the classic one — single-kernel schedules are unchanged.
type StreamPool interface {
	Pool
	// NumStreams returns the number of co-resident streams.
	NumStreams() int
	// Stream returns the stream index owning warp slot w.
	Stream(w int) int
	// MinReadyOf is MinReady restricted to one stream's warps.
	MinReadyOf(now int64, stream int) (w int, ok bool)
}

// Action is a Walk visitor's verdict on one candidate warp.
type Action uint8

const (
	// Keep: the candidate cannot issue this cycle (short operand wait or
	// issue-stream serialization) but stays in the active set.
	Keep Action = iota
	// Deschedule: the candidate entered a long-latency wait; remove it
	// from the active set and keep walking.
	Deschedule
	// Issued: the candidate issued an instruction; stop walking.
	Issued
	// IssuedGone: the candidate issued and left the active set (barrier
	// or exit); stop walking.
	IssuedGone
)

// Scheduler is one SM's warp-scheduling policy. Implementations hold the
// active set and a policy cursor; they never inspect warp state directly.
// A Scheduler is not safe for concurrent use; each SM owns one.
type Scheduler interface {
	// Policy returns the implementation's name.
	Policy() Policy
	// Refill promotes eligible warps (Pool.ReadyAt true with wake <= now)
	// into vacant active-set slots, oldest wake first, lowest slot index
	// breaking ties.
	Refill(pool Pool, now int64)
	// Walk visits active warps in policy priority order, applying each
	// visitor verdict to the active set, until a visit reports Issued or
	// IssuedGone (returning true) or candidates run out (false).
	Walk(visit func(w int) Action) bool
	// Active returns the active set. The slice is the scheduler's own
	// storage in policy-internal order: callers must not modify it.
	Active() []int
	// Len returns the active-set occupancy.
	Len() int
	// Snapshot captures the scheduling state (active list and policy
	// cursor) as an immutable State for the SM snapshot machinery.
	Snapshot() State
	// Restore replaces the scheduling state with a previously captured
	// State. It fails on a policy or capacity mismatch.
	Restore(State) error
}

// New builds the named policy with the given active-set capacity. greedy
// selects the hold-the-last-issuer variant of TwoLevel (it is implied by
// GTO, which ignores the flag).
func New(p Policy, capacity int, greedy bool) (Scheduler, error) {
	pol, err := ParsePolicy(string(p))
	if err != nil {
		return nil, err
	}
	if capacity < 1 {
		return nil, fmt.Errorf("sched: active-set capacity %d < 1", capacity)
	}
	switch pol {
	case GTO:
		return newGTO(capacity), nil
	default:
		return newTwoLevel(capacity, greedy), nil
	}
}

// refill is the promotion rule both policies share: promote the pool's
// oldest-wakeup eligible warp (lowest slot index on ties, per
// Pool.MinReady) until the active set is full or no warp qualifies.
// Multi-stream pools (StreamPool with more than one stream) promote
// stream-fair instead; single-stream pools take the classic path
// verbatim. A full set returns before the StreamPool check: both
// promotion loops would be no-ops.
func refill(active []int, capacity int, pool Pool, now int64) []int {
	if len(active) >= capacity {
		return active
	}
	if sp, ok := pool.(StreamPool); ok && sp.NumStreams() > 1 {
		return refillStreams(active, capacity, sp, now)
	}
	for len(active) < capacity {
		best, ok := pool.MinReady(now)
		if !ok {
			return active
		}
		pool.Activate(best)
		active = append(active, best)
	}
	return active
}

// refillStreams is the stream-fair promotion rule: each vacant slot
// goes to the eligible warp of the stream with the fewest active-set
// members, ties broken by oldest wake cycle then lowest stream index
// (within a stream, MinReadyOf's oldest-wake/lowest-slot rule holds).
// The rule is deterministic, so multi-stream schedules replay exactly.
func refillStreams(active []int, capacity int, pool StreamPool, now int64) []int {
	n := pool.NumStreams()
	var countsBuf [8]int
	counts := countsBuf[:]
	if n > len(countsBuf) {
		counts = make([]int, n)
	} else {
		counts = counts[:n]
		for i := range counts {
			counts[i] = 0
		}
	}
	for _, w := range active {
		counts[pool.Stream(w)]++
	}
	for len(active) < capacity {
		best, bestStream, bestWake := -1, -1, int64(0)
		for s := 0; s < n; s++ {
			w, ok := pool.MinReadyOf(now, s)
			if !ok {
				continue
			}
			wake, _ := pool.ReadyAt(w)
			better := best < 0 ||
				counts[s] < counts[bestStream] ||
				(counts[s] == counts[bestStream] && wake < bestWake)
			if better {
				best, bestStream, bestWake = w, s, wake
			}
		}
		if best < 0 {
			return active
		}
		pool.Activate(best)
		active = append(active, best)
		counts[bestStream]++
	}
	return active
}
