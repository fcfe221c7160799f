package campaign

import (
	"fmt"

	"repro/api"
	"repro/internal/runplan"
)

// Outcome is one campaign cell's result, reduced to scalars that
// round-trip the JSON API losslessly. Both execution paths decode the
// same api.BatchItems — produced locally by runplan.Execute or returned
// by a compare job — so local and remote tables are byte-identical.
type Outcome struct {
	// Infeasible marks a cell whose configuration cannot fit even one
	// CTA (a 422 on the service side). Infeasible cells carry no other
	// data.
	Infeasible bool
	// Config is the resolved configuration the cell executed under.
	Config api.ConfigInfo
	// Threads is the admitted residency.
	Threads int
	// Cycles, DRAMBytes, and ConflictCycles are exact counter values.
	Cycles         int64
	DRAMBytes      int64
	ConflictCycles int64
	// IPC is thread instructions per cycle; EnergyJ total joules.
	IPC     float64
	EnergyJ float64
}

// Result is an executed campaign: one Outcome per (machine, workload)
// cell.
type Result struct {
	Campaign *Campaign
	// Outcomes is indexed [machine][workload], matching
	// Campaign.Spec.Machines and Campaign.Workloads.
	Outcomes [][]Outcome
}

// Execute runs every cell locally: the compiled runs resolve and
// execute through runplan exactly as a compare job's batch does, and
// the items decode as in ResultFromBatch. Results are deterministic and
// independent of the worker count. A cell whose configuration cannot
// fit the kernel settles as an infeasible Outcome; any other failure
// aborts the campaign.
func (c *Campaign) Execute() (*Result, error) {
	runs, err := runplan.ResolveBatch(api.BatchRequest{Runs: c.Runs})
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", c.Spec.Name, err)
	}
	items, err := runplan.Execute(runs)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", c.Spec.Name, err)
	}
	return c.resultFromItems(items)
}

// ResultFromBatch decodes a campaign result from the batch response of
// its compiled runs — the remote half of Execute.
func (c *Campaign) ResultFromBatch(br *api.BatchResponse) (*Result, error) {
	items, err := br.Items()
	if err != nil {
		return nil, fmt.Errorf("campaign %s: decoding batch items: %w", c.Spec.Name, err)
	}
	return c.resultFromItems(items)
}

// resultFromItems reduces one batch item per cell, in the machine-major
// cell order, to Outcomes.
func (c *Campaign) resultFromItems(items []api.BatchItem) (*Result, error) {
	if len(items) != len(c.Runs) {
		return nil, fmt.Errorf("campaign %s: batch returned %d cells, want %d",
			c.Spec.Name, len(items), len(c.Runs))
	}
	flat := make([]Outcome, len(items))
	for i, it := range items {
		switch {
		case it.Error != nil && it.Error.Code == api.CodeInfeasible:
			flat[i] = Outcome{Infeasible: true}
		case it.Error != nil:
			return nil, fmt.Errorf("campaign %s: %s under %s: %v", c.Spec.Name,
				c.Workloads[i%len(c.Workloads)].Label,
				c.Spec.Machines[i/len(c.Workloads)].Name, it.Error)
		default:
			r := it.Result
			flat[i] = Outcome{
				Config:         r.Config,
				Threads:        r.Occupancy.Threads,
				Cycles:         r.Counters.Cycles,
				DRAMBytes:      r.Counters.DRAMBytes(),
				ConflictCycles: r.Counters.ConflictCycles,
				IPC:            r.Counters.ThreadIPC(),
				EnergyJ:        r.Energy.Total,
			}
		}
	}
	return c.result(flat), nil
}

// result reshapes the flat machine-major outcomes into the cell matrix.
func (c *Campaign) result(flat []Outcome) *Result {
	out := &Result{Campaign: c, Outcomes: make([][]Outcome, len(c.Spec.Machines))}
	for m := range out.Outcomes {
		out.Outcomes[m] = flat[m*len(c.Workloads) : (m+1)*len(c.Workloads)]
	}
	return out
}
