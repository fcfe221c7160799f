// Package chip simulates the full GPU of the paper's Figure 1a: many
// streaming multiprocessors sharing a channel-interleaved DRAM system.
//
// The paper's methodology (Section 5.1) simulates a single SM with a 1/32
// share of chip DRAM bandwidth, arguing that because applications run many
// CTAs the full chip behaves like 32 copies of one SM. This package exists
// to test that claim: it runs the same kernel across N SMs against a
// shared memory system and reports per-SM results that can be compared
// with the single-SM simulation (see the chip validation test and
// BenchmarkChipValidation).
//
// SMs advance in conservative global-time order: the simulator always
// steps the SM with the smallest local clock, so requests reach the shared
// DRAM system in (nearly) nondecreasing timestamp order.
package chip

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/isa"
	"repro/internal/sm"
	"repro/internal/stats"
)

// Config parameterizes the chip.
type Config struct {
	// NumSMs is the streaming-multiprocessor count (32 in the paper).
	NumSMs int
	// Mem configures the shared DRAM system; the zero value uses
	// dram.DefaultSystemConfig(NumSMs).
	Mem dram.SystemConfig
	// LaunchStagger delays SM i's first CTA launch by i*LaunchStagger
	// cycles, modeling the work distributor's sequential launch; it
	// desynchronizes identical kernels that would otherwise convoy on
	// the shared channels.
	LaunchStagger int64
}

// DefaultConfig returns the paper's 32-SM chip. Most callers scale NumSMs
// down: simulation cost grows linearly with it.
func DefaultConfig() Config {
	return Config{NumSMs: 32}
}

// Result is the outcome of a chip run.
type Result struct {
	// PerSM holds each SM's counters.
	PerSM []*stats.Counters
	// Total aggregates all SMs.
	Total stats.Counters
	// Cycles is the chip runtime: the slowest SM's cycle count.
	Cycles int64
	// DRAMReadBytes/DRAMWriteBytes are the shared system's totals.
	DRAMReadBytes, DRAMWriteBytes int64
	// OutOfOrder is the shared system's timestamp-ordering diagnostic.
	OutOfOrder int64
	// PerSMKernel names each SM's kernel (MultiKernel.Name; empty for
	// the unnamed kernel of New).
	PerSMKernel []string
}

// TraceSource mirrors sm.TraceSource.
type TraceSource = sm.TraceSource

// shardSource deals a grid's CTAs round-robin across SMs, the way the
// hardware work distributor does.
type shardSource struct {
	src          TraceSource
	smIndex, nSM int
	ctas         int
	warps        int
}

func (s *shardSource) Grid() (int, int) { return s.ctas, s.warps }

func (s *shardSource) WarpTrace(cta, warp int) []isa.WarpInst {
	return s.src.WarpTrace(cta*s.nSM+s.smIndex, warp)
}

// Chip is a configured multi-SM machine.
type Chip struct {
	cfg Config
	sms []*sm.SM
	mem *dram.System
	// names labels each SM's kernel.
	names []string
}

// New builds a chip running the grid of src under memCfg on every SM:
// the one-kernel case of NewMulti. The grid is dealt round-robin: SM i
// executes CTAs i, i+N, i+2N, ... residentCTAs is the per-SM CTA
// residency (from internal/occupancy).
func New(cfg Config, memCfg config.MemConfig, params sm.Params, src TraceSource, residentCTAs int) (*Chip, error) {
	return NewMulti(cfg, memCfg, params, []MultiKernel{{Source: src, ResidentCTAs: residentCTAs}})
}

// MultiKernel is one kernel of a chip run.
type MultiKernel struct {
	// Name labels the kernel in results.
	Name string
	// Source supplies the kernel's grid.
	Source TraceSource
	// ResidentCTAs is the kernel's per-SM CTA residency.
	ResidentCTAs int
}

// NewMulti builds a chip running one or more kernels concurrently by
// partitioning the SMs among them — the work distributor's
// concurrent-kernel scheduling on real chips. Kernel j owns SMs j,
// j+K, j+2K, ...; its grid is dealt round-robin across its own SM
// subset (with one kernel, across the whole chip). All kernels share
// the channel-interleaved DRAM system, so co-tenants contend in memory
// even though they never share an SM.
func NewMulti(cfg Config, memCfg config.MemConfig, params sm.Params, kernels []MultiKernel) (*Chip, error) {
	if cfg.NumSMs < 1 {
		return nil, fmt.Errorf("chip: need at least one SM")
	}
	if len(kernels) == 0 {
		return nil, fmt.Errorf("chip: need at least one kernel")
	}
	if cfg.NumSMs < len(kernels) {
		return nil, fmt.Errorf("chip: %d SMs cannot host %d concurrent kernels", cfg.NumSMs, len(kernels))
	}
	if cfg.Mem.Channels == 0 {
		cfg.Mem = dram.DefaultSystemConfig(cfg.NumSMs)
	}
	c := &Chip{cfg: cfg, mem: dram.NewSystem(cfg.Mem)}
	k := len(kernels)
	for i := 0; i < cfg.NumSMs; i++ {
		mk := kernels[i%k]
		label := mk.Name
		if label == "" {
			label = "kernel"
		}
		// This SM is member m of its kernel's subset of size n.
		m, n := i/k, cfg.NumSMs/k
		if i%k < cfg.NumSMs%k {
			n++
		}
		totalCTAs, warps := mk.Source.Grid()
		if totalCTAs < n {
			return nil, fmt.Errorf("chip: %s grid of %d CTAs cannot feed its %d SMs", label, totalCTAs, n)
		}
		share := totalCTAs / n
		if m < totalCTAs%n {
			share++
		}
		shard := &shardSource{src: mk.Source, smIndex: m, nSM: n, ctas: share, warps: warps}
		machine, err := sm.NewSM(sm.Spec{
			Config: memCfg, Params: params, Source: shard,
			ResidentCTAs: mk.ResidentCTAs, Memory: c.mem,
		})
		if err != nil {
			return nil, fmt.Errorf("chip: SM %d (%s): %w", i, label, err)
		}
		c.sms = append(c.sms, machine)
		c.names = append(c.names, mk.Name)
	}
	return c, nil
}

// Run executes all SMs to completion in conservative global-time order.
func (c *Chip) Run() (*Result, error) {
	for i, m := range c.sms {
		m.StartAt(int64(i) * c.cfg.LaunchStagger)
	}
	live := len(c.sms)
	for live > 0 {
		// Step the SM with the smallest local clock.
		var next *sm.SM
		for _, m := range c.sms {
			if m.Done() {
				continue
			}
			if next == nil || m.Cycle() < next.Cycle() {
				next = m
			}
		}
		if next == nil {
			break
		}
		if err := next.Step(); err != nil {
			return nil, err
		}
		if next.Done() {
			live--
		}
	}
	res := &Result{
		DRAMReadBytes:  c.mem.ReadBytes(),
		DRAMWriteBytes: c.mem.WriteBytes(),
		OutOfOrder:     c.mem.OutOfOrder(),
		PerSMKernel:    c.names,
	}
	for _, m := range c.sms {
		counters := m.Finish()
		res.PerSM = append(res.PerSM, counters)
		res.Total.Add(counters)
		if counters.Cycles > res.Cycles {
			res.Cycles = counters.Cycles
		}
	}
	return res, nil
}

// NumSMs returns the SM count.
func (c *Chip) NumSMs() int { return c.cfg.NumSMs }
