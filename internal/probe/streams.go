package probe

import "repro/internal/stats"

// Per-stream attribution. The observed SM runs one or more kernels
// (streams) and names the stream of every hook call, so each issue slot
// is tallied both to the aggregate profile and to one stream: the
// per-stream breakdowns sum exactly to the aggregate by construction
// (the conservation invariant DESIGN.md §5j pins). Only a run of two or
// more streams emits per-stream NDJSON records, so a one-stream run's
// stream is byte-identical to the single-kernel schema.

// StreamTally is one stream's share of the issue-slot attribution.
type StreamTally struct {
	Issued int64
	Stalls [NumStallReasons]int64
}

// SetStreams declares the observed SM's streams before the run begins:
// names label them in stream-index order, and counters are their live
// counter sets, which the probe sums for its cache and DRAM phase
// deltas and reports per stream. Tallies a restored probe carries over
// from its snapshot are kept.
func (p *Probe) SetStreams(names []string, counters []stats.Counters) {
	p.streamNames = names
	p.counters = counters
	if len(p.streamTallies) != len(names) {
		p.streamTallies = make([]StreamTally, len(names))
	}
}

// NumStreams returns the number of declared streams.
func (p *Probe) NumStreams() int { return len(p.streamNames) }

// StreamIssued returns the instructions issued by stream i.
func (p *Probe) StreamIssued(i int) int64 { return p.streamTallies[i].Issued }

// StreamStalls returns stream i's per-reason lost-slot totals.
func (p *Probe) StreamStalls(i int) [NumStallReasons]int64 { return p.streamTallies[i].Stalls }
