package core

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/parallel"
	"repro/internal/workloads"
)

// MultitenantRow is one kernel mix's outcome across the three memory
// designs under concurrent-kernel execution: every kernel of the mix is
// co-resident on one SM, CTA slots interleaved round-robin, and the
// designs are compared on the joint run (the partitioned baseline is
// the 1.00 reference).
type MultitenantRow struct {
	// Mix is the "+"-joined kernel names.
	Mix string
	// Ways is the co-tenancy degree (number of streams).
	Ways int
	// PartCycles is the joint runtime under the partitioned baseline.
	PartCycles int64
	// UnifiedPerf/FermiPerf are partitioned cycles over the design's
	// cycles (higher is better); UnifiedEnergy/FermiEnergy the design's
	// total energy over the baseline's.
	UnifiedPerf, UnifiedEnergy float64
	FermiPerf, FermiEnergy     float64
	// PartInfeasible/UnifiedInfeasible/FermiInfeasible mark mixes a
	// design cannot make co-resident (some stream gets zero CTAs).
	PartInfeasible, UnifiedInfeasible, FermiInfeasible bool
}

// MultitenantMixes builds the canonical co-tenancy mixes over a kernel
// list: every adjacent pair (2-way), then every adjacent quad (4-way),
// in registry order. Over the full 26-kernel registry that is 13 pairs
// and 6 quads.
func MultitenantMixes(ks []*workloads.Kernel) [][]*workloads.Kernel {
	var mixes [][]*workloads.Kernel
	for i := 0; i+1 < len(ks); i += 2 {
		mixes = append(mixes, ks[i:i+2])
	}
	for i := 0; i+3 < len(ks); i += 4 {
		mixes = append(mixes, ks[i:i+4])
	}
	return mixes
}

// mixLabel names a mix the way the run label does ("needle+matrixmul").
func mixLabel(ks []*workloads.Kernel) string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name
	}
	return strings.Join(names, "+")
}

// runMix executes one mix under cfg, returning (cycles, total energy,
// infeasible).
func (r *Runner) runMix(ks []*workloads.Kernel, cfg config.MemConfig) (int64, float64, bool, error) {
	streams := make([]StreamSpec, len(ks))
	for i, k := range ks {
		streams[i] = StreamSpec{Kernel: k}
	}
	res, err := r.Run(RunSpec{Config: cfg, Streams: streams})
	if IsInfeasible(err) {
		return 0, 0, true, nil
	}
	if err != nil {
		return 0, 0, false, err
	}
	return res.Counters.Cycles, res.Energy.Total(), false, nil
}

// Multitenant compares the partitioned baseline, the §4.5 unified
// allocation, and the Fermi-like limited design under multi-tenant
// co-tenancy, one row per mix. The unified and Fermi capacities are the
// baseline's 384 KB, partitioned jointly for the whole mix
// (config.Allocate / config.ChooseFermi over the whole mix).
func (r *Runner) Multitenant(mixes [][]*workloads.Kernel) ([]MultitenantRow, error) {
	return parallel.Map(len(mixes), func(i int) (MultitenantRow, error) {
		ks := mixes[i]
		row := MultitenantRow{Mix: mixLabel(ks), Ways: len(ks)}
		reqs := make([]config.KernelRequirements, len(ks))
		for j, k := range ks {
			reqs[j] = k.Requirements()
		}

		partCycles, partEnergy, partInf, err := r.runMix(ks, config.Baseline())
		if err != nil {
			return row, fmt.Errorf("%s partitioned: %w", row.Mix, err)
		}
		row.PartCycles, row.PartInfeasible = partCycles, partInf

		uniCfg, uniErr := config.Allocate(config.BaselineTotalBytes, 0, reqs...)
		if uniErr != nil {
			row.UnifiedInfeasible = true
		} else {
			cycles, energy, inf, err := r.runMix(ks, uniCfg)
			if err != nil {
				return row, fmt.Errorf("%s unified: %w", row.Mix, err)
			}
			row.UnifiedInfeasible = inf
			if !inf && !partInf {
				row.UnifiedPerf = float64(partCycles) / float64(cycles)
				row.UnifiedEnergy = energy / partEnergy
			}
		}

		fermiCfg := config.ChooseFermi(config.BaselineTotalBytes-config.BaselineRFBytes, 0, reqs...)
		cycles, energy, inf, err := r.runMix(ks, fermiCfg)
		if err != nil {
			return row, fmt.Errorf("%s fermi: %w", row.Mix, err)
		}
		row.FermiInfeasible = inf
		if !inf && !partInf {
			row.FermiPerf = float64(partCycles) / float64(cycles)
			row.FermiEnergy = energy / partEnergy
		}
		return row, nil
	})
}
