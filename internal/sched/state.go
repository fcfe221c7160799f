package sched

import "fmt"

// State is a policy's frozen scheduling state: the active list plus the
// policy cursor (the round-robin position for TwoLevel, the last issuer
// for GTO). It is the scheduler's contribution to an SM snapshot
// (internal/snapshot): Snapshot deep-copies the active list, so a State
// stays valid however the live scheduler mutates afterwards, and one
// State can seed any number of forks.
type State struct {
	// Policy identifies the implementation the state belongs to; Restore
	// refuses a mismatch rather than reinterpret a cursor.
	Policy Policy
	// Capacity is the active-set capacity the state was captured under.
	Capacity int
	// Active is the active list in policy-internal order.
	Active []int
	// Cursor is the policy cursor: twoLevel.rr or gto.last.
	Cursor int
}

// checkRestore validates the structural fields shared by both policies.
func (st *State) checkRestore(p Policy, capacity int) error {
	if st.Policy != p {
		return fmt.Errorf("sched: cannot restore %s state into a %s scheduler", st.Policy, p)
	}
	if st.Capacity != capacity {
		return fmt.Errorf("sched: active-set capacity changed from %d to %d across a snapshot", st.Capacity, capacity)
	}
	if len(st.Active) > capacity {
		return fmt.Errorf("sched: state holds %d active warps, capacity is %d", len(st.Active), capacity)
	}
	return nil
}

func (s *twoLevel) Snapshot() State {
	return State{
		Policy:   TwoLevel,
		Capacity: s.capacity,
		Active:   append([]int(nil), s.active...),
		Cursor:   s.rr,
	}
}

func (s *twoLevel) Restore(st State) error {
	if err := st.checkRestore(TwoLevel, s.capacity); err != nil {
		return err
	}
	// Walk wraps the cursor with one compare, which needs it in range.
	if st.Cursor < 0 || st.Cursor >= max(len(st.Active), 1) {
		return fmt.Errorf("sched: round-robin cursor %d outside an active set of %d", st.Cursor, len(st.Active))
	}
	s.active = append(s.active[:0], st.Active...)
	s.rr = st.Cursor
	return nil
}

func (s *gto) Snapshot() State {
	return State{
		Policy:   GTO,
		Capacity: s.capacity,
		Active:   append([]int(nil), s.active...),
		Cursor:   s.last,
	}
}

func (s *gto) Restore(st State) error {
	if err := st.checkRestore(GTO, s.capacity); err != nil {
		return err
	}
	s.active = append(s.active[:0], st.Active...)
	s.last = st.Cursor
	return nil
}
