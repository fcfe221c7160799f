package isa

import "unsafe"

// Issue is the dense issue-time view of one WarpInst: everything the
// timing core's operand-readiness check and per-instruction charge read,
// packed into 8 bytes. It depends only on the instruction (never on the
// memory design), so one record table per warp trace serves every
// simulation of it; IssueRecords builds that table.
type Issue struct {
	// Src holds the source registers (Operand.Reg of each WarpInst
	// source, copied verbatim); an entry equal to NoReg is absent.
	Src [3]uint8
	// Dst is the destination register, or NoReg.
	Dst uint8
	// Op is the operation class.
	Op Op
	// Threads is the number of active threads.
	Threads uint8
	// Tally packs the register-hierarchy accesses and the spill flag.
	Tally Tally
}

// Tally packs one instruction's register-hierarchy operand accesses —
// reads and writes per MRF/ORF/LRF space, two bits each — and its spill
// flag into one word. An instruction reads at most three operands from
// one space and writes each space at most once, so two bits never
// overflow.
type Tally uint16

const (
	tallyWriteShift = 6  // reads occupy bits 0-5, writes bits 6-11
	tallySpill      = 12 // the spill flag
)

// Reads returns the number of source operands read from space s.
func (t Tally) Reads(s RegSpace) int64 { return int64(t>>(2*(s-SpaceMRF))) & 3 }

// Writes returns the number of result writes into space s.
func (t Tally) Writes(s RegSpace) int64 {
	return int64(t>>(tallyWriteShift+2*(s-SpaceMRF))) & 3
}

// Spills returns 1 for an instruction inserted by the register
// allocator (a spill store or fill load), else 0.
func (t Tally) Spills() int64 { return int64(t>>tallySpill) & 1 }

// tallyOf is the register-hierarchy access rule of one instruction:
// each valid source reads its space, a valid destination writes its
// space, and a DstMRFWrite result not already placed in the MRF also
// writes through to it. Operands in an unknown space count nowhere.
func tallyOf(wi *WarpInst) Tally {
	var t Tally
	for _, src := range wi.Srcs {
		if src.Valid() && src.Space <= SpaceLRF {
			t += 1 << (2 * (src.Space - SpaceMRF))
		}
	}
	if wi.Dst.Valid() {
		if wi.Dst.Space <= SpaceLRF {
			t += 1 << (tallyWriteShift + 2*(wi.Dst.Space-SpaceMRF))
		}
		if wi.DstMRFWrite && wi.Dst.Space != SpaceMRF {
			t += 1 << tallyWriteShift
		}
	}
	if wi.Spill {
		t |= 1 << tallySpill
	}
	return t
}

// IssueRecords builds the issue record of every instruction of a
// trace, index-aligned with it. It is the one place the
// register-access tally rule lives.
func IssueRecords(insts []WarpInst) []Issue {
	out := make([]Issue, len(insts))
	for i := range insts {
		wi := &insts[i]
		out[i] = Issue{
			Src:     [3]uint8{wi.Srcs[0].Reg, wi.Srcs[1].Reg, wi.Srcs[2].Reg},
			Dst:     wi.Dst.Reg,
			Op:      wi.Op,
			Threads: uint8(wi.ActiveThreads()),
			Tally:   tallyOf(wi),
		}
	}
	return out
}

// Size guards. Traces and their issue records are the bulk of the
// workloads trace cache, and so of a long sweep's live heap, which
// simbench's heap_live_mb metric bounds (at most 10% above the previous
// commit). The 8-byte
// record is paid for by packing WarpInst from 32 to 24 bytes (Spill in
// the padding before Mask); either array fails to compile if its type
// grows past that budget.
var (
	_ [24 - unsafe.Sizeof(WarpInst{})]struct{}
	_ [8 - unsafe.Sizeof(Issue{})]struct{}
)
