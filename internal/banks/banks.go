// Package banks models SM local-memory bank mapping and the per-warp-
// instruction conflict model of Section 6.1 of the paper.
//
// For every warp instruction we count the accesses each bank receives from
// the instruction's MRF operand reads and its shared-memory or cache data
// accesses, then charge one extra issue cycle for each access beyond the
// first to the most-contended bank. In the partitioned design, register
// banks and shared/cache banks live in disjoint structures, so the two
// kinds of access can never collide; in the unified design they share the
// same 32 banks and additionally compete for the single 16-byte port each
// cluster drives onto the crossbar (arbitration conflicts).
package banks

import (
	"repro/internal/config"
	"repro/internal/isa"
)

// Outcome summarizes the bank behaviour of one warp instruction. Its
// fields are byte-sized: an instruction's worst bank or port holds at
// most its three MRF operand reads plus one access per lane (see
// maxAccesses), so an Outcome costs 4 bytes in the trace cache's
// per-instruction memo.
type Outcome struct {
	// MaxPerBank is the maximum number of accesses any single bank (or,
	// in the unified design, any single cluster port) received. Table 5
	// buckets this value.
	MaxPerBank uint8
	// ExtraCycles is the issue serialization penalty: MaxPerBank - 1
	// (zero for conflict-free instructions).
	ExtraCycles uint8
	// Arbitration reports that, in the unified design, a register operand
	// read and a shared/cache data access contended for the same bank.
	Arbitration bool
	// MemAccesses is the number of distinct memory bank granules touched
	// (shared-memory words/granules or cache lines); used for access-energy
	// and throughput accounting.
	MemAccesses uint8
}

// maxAccesses bounds MaxPerBank: three MRF sources on one bank slot plus
// every lane on one bank. The array below fails to compile if the bound
// outgrows Outcome's byte-sized fields.
const maxAccesses = 3 + isa.WarpSize

var _ [255 - maxAccesses]struct{}

// Model evaluates bank conflicts for one design. A Model holds scratch
// buffers and is not safe for concurrent use; each simulated SM owns one.
type Model struct {
	design     config.Design
	aggressive bool

	bankReg [config.NumBanks]uint8 // register read accesses per bank
	bankMem [config.NumBanks]uint8 // memory data accesses per bank
	port    [config.NumClusters]uint8
	granule [isa.WarpSize]uint32 // dedupe scratch
	// trivial marks that the last Evaluate took the no-bank-traffic fast
	// path and left the scratch tallies stale; HeatInto must contribute
	// nothing for such an instruction.
	trivial bool
}

// New returns a conflict model for the given design. The FermiLike design
// uses partitioned banking (its flexibility is capacity-only).
func New(d config.Design) *Model {
	return &Model{design: d}
}

// NewAggressive returns the unified-design variant of Section 4.2 that
// allows multiple banks within a cluster to be accessed per cycle for
// scatter/gather (still limited to 16 bytes per cluster onto the
// crossbar). The paper measured a 0.5% average improvement over the
// simple single-bank-per-cluster design and used the simple one for its
// results; this variant exists for the ablation benchmark.
func NewAggressive(d config.Design) *Model {
	return &Model{design: d, aggressive: true}
}

// Design returns the design the model evaluates.
func (m *Model) Design() config.Design { return m.design }

// Outcomes evaluates every instruction of a trace under one bank-model
// variant. An Outcome is a pure function of the instruction and the
// variant, so the result can be memoized and replayed across runs (the
// trace cache in internal/workloads does exactly that).
func Outcomes(design config.Design, aggressive bool, insts []isa.WarpInst) []Outcome {
	m := New(design)
	if aggressive {
		m = NewAggressive(design)
	}
	out := make([]Outcome, len(insts))
	for i := range insts {
		out[i] = m.Evaluate(&insts[i])
	}
	return out
}

// unified reports whether register and memory accesses share banks.
func (m *Model) unified() bool { return m.design == config.Unified }

// Evaluate computes the bank outcome of one warp instruction.
func (m *Model) Evaluate(wi *isa.WarpInst) Outcome {
	// Fast path: an instruction with no MRF operand reads and no memory
	// addresses touches no bank at all — its outcome is fixed, and the
	// scratch tallies can stay stale (HeatInto checks m.trivial).
	if !(wi.Op.IsMemory() && wi.Addrs != nil) &&
		!(wi.Srcs[0].Space == isa.SpaceMRF && wi.Srcs[0].Valid()) &&
		!(wi.Srcs[1].Space == isa.SpaceMRF && wi.Srcs[1].Valid()) &&
		!(wi.Srcs[2].Space == isa.SpaceMRF && wi.Srcs[2].Valid()) {
		m.trivial = true
		return Outcome{MaxPerBank: 1}
	}
	m.trivial = false
	for i := range m.bankReg {
		m.bankReg[i] = 0
		m.bankMem[i] = 0
	}
	for i := range m.port {
		m.port[i] = 0
	}

	// MRF operand reads. Register r maps to bank r mod 4 within each
	// cluster; every cluster reads its own copy for its 4 lanes, so one
	// MRF source adds one access to the same bank slot of all clusters.
	for _, src := range wi.Srcs {
		if src.Valid() && src.Space == isa.SpaceMRF {
			slot := int(src.Reg) % config.BanksPerCluster
			for c := 0; c < config.NumClusters; c++ {
				m.bankReg[c*config.BanksPerCluster+slot]++
			}
		}
	}

	memAccesses := 0
	if wi.Op.IsMemory() && wi.Addrs != nil {
		if wi.Op.IsShared() {
			memAccesses = m.addShared(wi)
		} else {
			memAccesses = m.addGlobal(wi)
		}
	}

	worst, arbitration := 0, false
	if m.unified() {
		// Shared banks: register and memory accesses sum per bank, and
		// shared/cache traffic also contends for the per-cluster port.
		for b := 0; b < config.NumBanks; b++ {
			worst = max(worst, int(m.bankReg[b])+int(m.bankMem[b]))
			if m.bankReg[b] > 0 && m.bankMem[b] > 0 {
				arbitration = true
			}
		}
		if !m.aggressive {
			// Simple design: one bank per cluster reaches the crossbar
			// per cycle, so distinct granules in one cluster serialize
			// even across different banks. The aggressive design muxes
			// any bank onto the port, leaving only true per-bank
			// conflicts (counted above).
			for c := 0; c < config.NumClusters; c++ {
				worst = max(worst, int(m.port[c]))
			}
		}
	} else {
		// Disjoint structures: the worst bank of either space decides.
		for b := 0; b < config.NumBanks; b++ {
			worst = max(worst, int(m.bankReg[b]), int(m.bankMem[b]))
		}
	}
	worst = max(worst, 1)
	return Outcome{
		MaxPerBank:  uint8(worst),
		ExtraCycles: uint8(worst - 1),
		Arbitration: arbitration,
		MemAccesses: uint8(memAccesses),
	}
}

// HeatInto adds the bank footprint of the most recently Evaluated
// instruction to the per-bank access and conflict accumulators (the
// observability layer's heatmap). A bank's conflict count is the
// serialized accesses beyond its first in one instruction. Must be
// called after Evaluate and before the next one; it performs no
// allocation.
func (m *Model) HeatInto(access, conflict *[config.NumBanks]int64) {
	if m.trivial {
		// The last instruction touched no bank; the tallies are stale.
		return
	}
	for b := range m.bankReg {
		n := int64(m.bankReg[b]) + int64(m.bankMem[b])
		if n == 0 {
			continue
		}
		access[b] += n
		if n > 1 {
			conflict[b] += n - 1
		}
	}
}

// addShared files the shared-memory accesses of the instruction and
// returns the number of distinct bank granules touched.
//
// Partitioned: banks are 4 bytes wide, bank = (addr/4) mod 32; accesses to
// the same word broadcast and count once.
//
// Unified: banks are 16 bytes wide and the shared address space stripes
// 16-byte granules across the 8 clusters (cluster = (addr/16) mod 8,
// bank-in-cluster = (addr/128) mod 4). One 16-byte granule is served by a
// single bank access, but each cluster can route only one bank onto the
// crossbar per cycle, so distinct granules in the same cluster serialize
// even when they live in different banks.
func (m *Model) addShared(wi *isa.WarpInst) int {
	n := 0
	for t := 0; t < isa.WarpSize; t++ {
		if wi.Mask&(1<<uint(t)) == 0 {
			continue
		}
		addr := wi.Addrs[t]
		var g uint32
		if m.unified() {
			g = addr / config.UnifiedBankWidth
		} else {
			g = addr / config.PartitionedShmemBankWidth
		}
		if m.seen(g, n) {
			continue
		}
		m.granule[n] = g
		n++
		if m.unified() {
			cluster := int(g) % config.NumClusters
			slot := int(addr/config.CacheLineBytes) % config.BanksPerCluster
			m.bankMem[cluster*config.BanksPerCluster+slot]++
			m.port[cluster]++
		} else {
			m.bankMem[g%config.NumBanks]++
		}
	}
	return n
}

// addGlobal files the cache-line accesses of a global memory instruction
// and returns the number of distinct lines touched.
//
// A 128-byte line spans banks in both designs: all 32 4-byte banks in the
// partitioned design, or 8 16-byte unified banks, one per cluster, with
// bank-in-cluster = (line) mod 4. Distinct lines are already serialized by
// the single-ported tag array (one lookup per cycle, modeled by the SM),
// so lines never collide with each other within an instruction; the only
// unified-specific hazard is a line's data access landing in the same bank
// an MRF operand of the same instruction reads (an arbitration conflict,
// at most one extra cycle). Each line access is therefore filed as one
// access to its bank slot, capped at one per slot.
func (m *Model) addGlobal(wi *isa.WarpInst) int {
	n := 0
	var slotUsed [config.BanksPerCluster]bool
	for t := 0; t < isa.WarpSize; t++ {
		if wi.Mask&(1<<uint(t)) == 0 {
			continue
		}
		line := wi.Addrs[t] / config.CacheLineBytes
		if m.seen(line, n) {
			continue
		}
		m.granule[n] = line
		n++
		if m.unified() {
			slot := int(line) % config.BanksPerCluster
			if !slotUsed[slot] {
				slotUsed[slot] = true
				for c := 0; c < config.NumClusters; c++ {
					m.bankMem[c*config.BanksPerCluster+slot]++
				}
			}
		}
		// Partitioned cache lines use dedicated banks; nothing to file.
	}
	return n
}

// seen reports whether g is among the first n recorded granules. The
// scan runs newest-first: adjacent threads usually land in the granule
// recorded last (coalesced accesses), making the common duplicate an
// O(1) hit instead of a full scan.
func (m *Model) seen(g uint32, n int) bool {
	for i := n - 1; i >= 0; i-- {
		if m.granule[i] == g {
			return true
		}
	}
	return false
}
