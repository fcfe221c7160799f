package campaign

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/api"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/sm"
	"repro/internal/stats"
)

// fermiRFBytes is the Fermi-like design's fixed register file.
const fermiRFBytes = config.BaselineRFBytes

// Outcome is one campaign cell's result, reduced to scalars that
// round-trip the JSON API losslessly: identical whether produced by a
// local core run or decoded from a service response. Every rendered
// number derives from these fields, so local and remote tables are
// byte-identical.
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

// outcomeOf reduces one run to its Outcome. Both execution paths funnel
// through this: locally from core.Result fields, remotely from the
// decoded RunResponse — the counters round-trip exactly, so the derived
// floats are bit-identical.
func outcomeOf(cfg api.ConfigInfo, threads int, cnt *stats.Counters, energyJ float64) Outcome {
	return Outcome{
		Config:         cfg,
		Threads:        threads,
		Cycles:         cnt.Cycles,
		DRAMBytes:      cnt.DRAMBytes(),
		ConflictCycles: cnt.ConflictCycles,
		IPC:            cnt.ThreadIPC(),
		EnergyJ:        energyJ,
	}
}

// Result is an executed campaign: one Outcome per (machine, workload)
// cell.
type Result struct {
	Campaign *Campaign
	// Outcomes is indexed [machine][workload], matching
	// Campaign.Spec.Machines and Campaign.Workloads.
	Outcomes [][]Outcome
}

// runnerCache memoizes core.Runners by their (timing, energy)
// parameters, exactly like the service does: the runner depends only on
// that half of the machine, so cells under different capacities share
// one Runner and its per-kernel baseline calibrations.
type runnerCache struct {
	mu      sync.Mutex
	runners map[string]*core.Runner
}

func (rc *runnerCache) get(p sm.Params, e energy.Params) (*core.Runner, error) {
	canon := machine.Describe(config.Baseline(), p, e)
	canon.Design, canon.RFKB, canon.SharedKB, canon.CacheKB, canon.MaxThreads = "", 0, 0, 0, 0
	kb, err := json.Marshal(canon)
	if err != nil {
		return nil, err
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if r, ok := rc.runners[string(kb)]; ok {
		return r, nil
	}
	r := core.NewRunner()
	r.Params = p
	r.Energy.P = e
	if rc.runners == nil {
		rc.runners = make(map[string]*core.Runner)
	}
	rc.runners[string(kb)] = r
	return r, nil
}

// resolveConfig derives a cell's memory configuration from its request,
// mirroring the service's resolve step: the machine description first,
// then the §4.5 allocation or Fermi-like preset override. reqs carries
// one entry per kernel of the cell — a multi-tenant mix allocates
// jointly, exactly as the service's streams path does.
func resolveConfig(reqs []config.KernelRequirements, rr api.RunRequest) (config.MemConfig, sm.Params, energy.Params, error) {
	cfg, params, eparams, err := rr.Machine.Resolve()
	if err != nil {
		return cfg, params, eparams, err
	}
	if rr.AllocTotalKB > 0 && rr.FermiTotalKB > 0 {
		return cfg, params, eparams, fmt.Errorf("at most one of alloc_total_kb and fermi_total_kb")
	}
	if rr.AllocTotalKB > 0 {
		cfg, err = config.Allocate(rr.AllocTotalKB<<10, rr.Machine.MaxThreads, reqs...)
		if err != nil {
			return cfg, params, eparams, err
		}
	}
	if rr.FermiTotalKB > 0 {
		if rr.FermiTotalKB<<10 <= fermiRFBytes {
			return cfg, params, eparams, fmt.Errorf(
				"fermi_total_kb must exceed the fixed %dKB register file", fermiRFBytes>>10)
		}
		cfg = config.ChooseFermi(rr.FermiTotalKB<<10-fermiRFBytes, rr.Machine.MaxThreads, reqs...)
	}
	return cfg, params, eparams, nil
}

// configInfo is the API view of a resolved configuration (the service's
// RunResponse.Config construction).
func configInfo(cfg config.MemConfig) api.ConfigInfo {
	return api.ConfigInfo{
		Design:      cfg.Design.String(),
		RFBytes:     cfg.RFBytes,
		SharedBytes: cfg.SharedBytes,
		CacheBytes:  cfg.CacheBytes,
		MaxThreads:  cfg.MaxThreads,
	}
}

// Execute runs every cell locally, fanned out across the parallel
// engine. Results are deterministic and independent of the worker
// count. A cell whose configuration cannot fit the kernel settles as an
// infeasible Outcome; any other failure aborts the campaign.
func (c *Campaign) Execute() (*Result, error) {
	rc := &runnerCache{}
	flat, err := parallel.Map(len(c.Runs), func(i int) (Outcome, error) {
		rr := c.Runs[i]
		label := c.Workloads[i%len(c.Workloads)].Label
		machineName := c.Spec.Machines[i/len(c.Workloads)].Name
		var spec core.RunSpec
		var reqs []config.KernelRequirements
		for _, sr := range rr.StreamList() {
			k, err := kernelFor(sr.Kernel, sr.BF)
			if err != nil {
				return Outcome{}, err
			}
			spec.Streams = append(spec.Streams, core.StreamSpec{
				Kernel: k, RegsPerThread: sr.RegsPerThread, Seed: sr.Seed,
			})
			reqs = append(reqs, k.Requirements())
		}
		cfg, params, eparams, err := resolveConfig(reqs, rr)
		if err != nil {
			return Outcome{}, fmt.Errorf("%s under %s: %w", label, machineName, err)
		}
		spec.Config = cfg
		r, err := rc.get(params, eparams)
		if err != nil {
			return Outcome{}, err
		}
		res, err := r.Run(spec)
		if core.IsInfeasible(err) {
			return Outcome{Infeasible: true}, nil
		}
		if err != nil {
			return Outcome{}, fmt.Errorf("%s under %s: %w", label, machineName, err)
		}
		return outcomeOf(configInfo(cfg), res.Occupancy.Threads, res.Counters, res.Energy.Total()), nil
	})
	if err != nil {
		return nil, err
	}
	return c.result(flat), nil
}

// ResultFromBatch decodes a campaign result from the batch response of
// its compiled runs — the remote half of Execute. Items keep the
// machine-major cell order.
func (c *Campaign) ResultFromBatch(br *api.BatchResponse) (*Result, error) {
	items, err := br.Items()
	if err != nil {
		return nil, fmt.Errorf("campaign %s: decoding batch items: %w", c.Spec.Name, err)
	}
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
			flat[i] = outcomeOf(r.Config, r.Occupancy.Threads, r.Counters, r.Energy.Total)
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
