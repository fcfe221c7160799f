// Package occupancy computes CTA-granular thread residency: how many
// cooperative thread arrays of a kernel fit on an SM given the register
// file and shared memory capacities of a configuration.
//
// Occupancy is the lever through which local-memory capacity affects
// performance in the paper: a larger register file or shared memory admits
// more concurrent threads, which hides more DRAM latency.
package occupancy

import (
	"fmt"

	"repro/internal/config"
)

// Limiter identifies which resource bounds residency.
type Limiter uint8

const (
	// LimitThreads means the architectural (or requested) thread cap binds.
	LimitThreads Limiter = iota
	// LimitRegisters means register file capacity binds.
	LimitRegisters
	// LimitShared means shared memory capacity binds.
	LimitShared
	// LimitNone means not even one CTA fits.
	LimitNone
)

// String names the limiter.
func (l Limiter) String() string {
	switch l {
	case LimitThreads:
		return "threads"
	case LimitRegisters:
		return "registers"
	case LimitShared:
		return "shared"
	case LimitNone:
		return "none-fit"
	}
	return fmt.Sprintf("Limiter(%d)", uint8(l))
}

// Result describes the residency computation.
type Result struct {
	// CTAs is the number of concurrently resident CTAs.
	CTAs int
	// Threads is CTAs * ThreadsPerCTA.
	Threads int
	// Warps is Threads / 32.
	Warps int
	// Limiter names the binding resource.
	Limiter Limiter
	// RFBytesUsed and SharedBytesUsed are the footprints of the resident
	// CTAs.
	RFBytesUsed, SharedBytesUsed int
}

// Compute returns the residency of a kernel with the given requirements
// under cfg: the one-kernel case of ComputeShared. regsAllocated is the
// register count actually allocated per thread, which may be below
// req.RegsPerThread when the sweep forces spills; pass 0 to use
// req.RegsPerThread.
func Compute(req config.KernelRequirements, cfg config.MemConfig, regsAllocated int) Result {
	return ComputeShared([]config.KernelRequirements{req}, cfg, []int{regsAllocated})[0]
}

// ComputeShared returns per-kernel residency for one or more kernels
// co-resident on one SM, admitted by the round-robin rule of
// config.Admit under the joint thread, register-file, and shared-memory
// budgets of cfg. The order matches the dispatcher's CTA-slot
// interleave, so slot layout follows directly from this result.
//
// regsAllocated optionally overrides the register allocation per kernel
// (nil or a zero entry means the kernel's RegsPerThread). Each kernel's
// Limiter names the resource that refused its next CTA; a kernel that
// admits no CTA at all reports LimitNone.
func ComputeShared(reqs []config.KernelRequirements, cfg config.MemConfig, regsAllocated []int) []Result {
	alloc := make([]config.KernelRequirements, len(reqs))
	for i, req := range reqs {
		if regsAllocated != nil && regsAllocated[i] > 0 {
			req.RegsPerThread = regsAllocated[i]
		}
		alloc[i] = req
	}
	ctas, refused := config.Admit(alloc, config.Capacity{
		Threads: cfg.ThreadLimit(), RFBytes: cfg.RFBytes, SharedBytes: cfg.SharedBytes,
	})
	out := make([]Result, len(reqs))
	for i, req := range alloc {
		if ctas[i] <= 0 {
			out[i] = Result{Limiter: LimitNone}
			continue
		}
		threads := ctas[i] * req.ThreadsPerCTA
		out[i] = Result{
			CTAs:            ctas[i],
			Threads:         threads,
			Warps:           threads / 32,
			Limiter:         limiters[refused[i]],
			RFBytesUsed:     threads * req.BytesPerThread(),
			SharedBytesUsed: ctas[i] * req.SharedBytesPerCTA,
		}
	}
	return out
}

// limiters maps the admission budget that refused a CTA to its Limiter.
var limiters = [...]Limiter{
	config.BudgetThreads:   LimitThreads,
	config.BudgetRegisters: LimitRegisters,
	config.BudgetShared:    LimitShared,
}

// FullOccupancyRFBytes returns the register file capacity needed to run the
// architectural thread limit without spills (Table 1, column 8).
func FullOccupancyRFBytes(regsPerThread int) int {
	return regsPerThread * 4 * config.MaxThreadsPerSM
}

// MinRegsForResidency returns the largest register allocation (capped at
// need) that still admits at least `threads` resident threads under an RF
// of rfBytes, or 0 if even one register per thread does not fit. It lets
// sweeps trade spills against thread count the way Figure 2 does.
func MinRegsForResidency(rfBytes, threads, need int) int {
	if threads <= 0 {
		return 0
	}
	regs := rfBytes / (4 * threads)
	if regs > need {
		regs = need
	}
	return regs
}
