// Package autotune searches the unified design's configuration space for
// a kernel's best operating point.
//
// The paper's Section 4.5 notes that "some applications see higher
// performance with fewer than the maximum number of threads" and points
// at autotuning (Whaley & Dongarra's ATLAS) as the remedy. This package
// implements that loop: it sweeps resident thread counts and, where the
// capacity allows, trades registers per thread against spill code, running
// each candidate on the simulator and keeping the best.
package autotune

import (
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/occupancy"
	"repro/internal/parallel"
	"repro/internal/workloads"
)

// Objective selects what the tuner optimizes.
type Objective uint8

const (
	// MinCycles optimizes runtime.
	MinCycles Objective = iota
	// MinEnergy optimizes total energy.
	MinEnergy
)

// String names the objective.
func (o Objective) String() string {
	if o == MinEnergy {
		return "energy"
	}
	return "cycles"
}

// Candidate is one evaluated operating point.
type Candidate struct {
	// Threads is the resident thread cap.
	Threads int
	// Regs is the per-thread register allocation.
	Regs int
	// Config is the resolved unified configuration.
	Config config.MemConfig
	// Result is the simulation outcome.
	Result *core.Result
}

// score returns the candidate's objective value (lower is better).
func (c *Candidate) score(obj Objective) float64 {
	if obj == MinEnergy {
		return c.Result.Energy.Total()
	}
	return float64(c.Result.Counters.Cycles)
}

// Report is the tuner's outcome.
type Report struct {
	// Best is the winning candidate.
	Best Candidate
	// Evaluated lists every candidate tried, in evaluation order.
	Evaluated []Candidate
	// Objective echoes the optimization target.
	Objective Objective
	// DemandRegs is the kernel's spill-free register demand (the naive
	// allocation's register count).
	DemandRegs int
}

// Tune searches thread counts (multiples of the CTA size up to the
// architectural limit) and register allocations (the spill-free demand,
// plus the largest allocation that fits each thread count when smaller)
// for the kernel under a unified memory of totalBytes.
//
// Candidates are simulated in parallel; the winner is selected in
// enumeration order with a strict comparison, so ties resolve to the
// earliest candidate exactly as the serial search did.
func Tune(r *core.Runner, k *workloads.Kernel, totalBytes int, obj Objective) (*Report, error) {
	if k == nil {
		return nil, fmt.Errorf("autotune: nil kernel")
	}
	type point struct {
		threads, regs int
		cfg           config.MemConfig
	}
	var points []point
	for threads := k.ThreadsPerCTA; threads <= config.MaxThreadsPerSM; threads += k.ThreadsPerCTA {
		ctas := threads / k.ThreadsPerCTA
		shared := ctas * k.SharedBytesPerCTA
		regOptions := []int{k.RegsNeeded}
		if fit := occupancy.MinRegsForResidency(totalBytes-shared, threads, k.RegsNeeded); fit > 0 && fit < k.RegsNeeded {
			regOptions = append(regOptions, fit)
		}
		for _, regs := range regOptions {
			req := k.Requirements()
			req.RegsPerThread = regs
			cfg, err := config.Allocate(totalBytes, threads, req)
			if errors.Is(err, config.ErrDoesNotFit) {
				continue // this point does not fit; skip it
			}
			if err != nil {
				return nil, fmt.Errorf("autotune: %s at %d threads: %w", k.Name, threads, err)
			}
			points = append(points, point{threads: threads, regs: regs, cfg: cfg})
		}
	}
	cands, err := parallel.Map(len(points), func(i int) (Candidate, error) {
		p := points[i]
		res, err := r.Run(core.RunSpec{Kernel: k, Config: p.cfg, RegsPerThread: p.regs})
		if core.IsInfeasible(err) {
			return Candidate{}, nil // infeasible at runtime; dropped below
		}
		if err != nil {
			return Candidate{}, err
		}
		return Candidate{Threads: res.Occupancy.Threads, Regs: p.regs, Config: p.cfg, Result: res}, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Objective: obj, DemandRegs: k.RegsNeeded}
	for _, cand := range cands {
		if cand.Result == nil {
			continue
		}
		rep.Evaluated = append(rep.Evaluated, cand)
		if rep.Best.Result == nil || cand.score(obj) < rep.Best.score(obj) {
			rep.Best = cand
		}
	}
	if rep.Best.Result == nil {
		return nil, fmt.Errorf("autotune: no feasible configuration for %s in %d bytes", k.Name, totalBytes)
	}
	return rep, nil
}

// Improvement returns the best candidate's gain over the naive allocation
// (spill-free registers at the highest thread count that fits — the plain
// §4.5 outcome with no tuning), as a ratio >= 1 when tuning helped.
func (rep *Report) Improvement() float64 {
	var naive *Candidate
	for i := range rep.Evaluated {
		c := &rep.Evaluated[i]
		if c.Regs == rep.DemandRegs && (naive == nil || c.Threads > naive.Threads) {
			naive = c
		}
	}
	if naive == nil || naive.Result == nil {
		return 1
	}
	return naive.score(rep.Objective) / rep.Best.score(rep.Objective)
}
