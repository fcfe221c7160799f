package core

import (
	"strings"

	"repro/internal/occupancy"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// StreamSpec describes one co-resident kernel (stream) of a run.
type StreamSpec struct {
	// Kernel is the stream's workload.
	Kernel *workloads.Kernel
	// RegsPerThread overrides the stream's per-thread register
	// allocation; 0 uses the kernel's spill-free demand.
	RegsPerThread int
	// Seed perturbs the stream's per-warp random streams; 0 uses the
	// runner default (co-tenant copies of one kernel then replay
	// identical traces, which is the deterministic intent).
	Seed uint64
}

// StreamResult is one stream's share of a run.
type StreamResult struct {
	// Kernel names the stream's workload.
	Kernel string
	// Occupancy is the stream's share of the SM residency under the
	// round-robin joint admission (occupancy.ComputeShared).
	Occupancy occupancy.Result
	// Counters are the stream's attributed event counts: additive
	// categories sum exactly to the run's aggregate Counters across
	// streams, and Cycles is the cycle the stream's last warp exited.
	Counters stats.Counters
}

// streamNames joins the streams' kernel names with "+", the run's
// display label (e.g. "fft+matmul").
func streamNames(streams []StreamSpec) string {
	names := make([]string, len(streams))
	for i, st := range streams {
		names[i] = st.Kernel.Name
	}
	return strings.Join(names, "+")
}
