// Package config describes the SM local-memory organizations evaluated in
// the paper and implements the Section 4.5 allocation algorithm that
// partitions a unified memory among register file, shared memory, and cache
// on a per-kernel basis.
package config

import (
	"errors"
	"fmt"
)

// ErrDoesNotFit marks allocation failures in which a kernel cannot fit
// even one CTA in the available capacity. Allocate wraps it into its
// errors, and core.FitError matches it, so errors.Is(err, ErrDoesNotFit)
// is the single infeasibility test across the stack.
var ErrDoesNotFit = errors.New("kernel does not fit the available capacity")

// Machine constants shared by all designs (Table 2 of the paper).
const (
	// NumBanks is the number of local-memory banks per SM. Both the
	// partitioned and the unified design expose 32 banks to keep
	// bandwidth constant.
	NumBanks = 32
	// NumClusters is the number of 4-wide SIMT lane clusters per SM.
	NumClusters = 8
	// BanksPerCluster is the number of MRF (or unified) banks per cluster.
	BanksPerCluster = NumBanks / NumClusters
	// MaxThreadsPerSM is the architectural thread residency limit.
	MaxThreadsPerSM = 1024
	// MaxWarpsPerSM is the warp residency limit.
	MaxWarpsPerSM = MaxThreadsPerSM / 32
	// ActiveWarps is the active-set size of the two-level warp scheduler.
	ActiveWarps = 8
	// CacheLineBytes is the primary data cache line size.
	CacheLineBytes = 128
	// CacheWays is the cache associativity.
	CacheWays = 4
	// UnifiedBankWidth is the width of one unified bank in bytes.
	UnifiedBankWidth = 16
	// PartitionedShmemBankWidth is the width of one baseline shared
	// memory or cache bank in bytes.
	PartitionedShmemBankWidth = 4

	// BaselineRFBytes is the baseline partitioned register file capacity.
	BaselineRFBytes = 256 << 10
	// BaselineSharedBytes is the baseline shared memory capacity.
	BaselineSharedBytes = 64 << 10
	// BaselineCacheBytes is the baseline cache capacity.
	BaselineCacheBytes = 64 << 10
	// BaselineTotalBytes is the total baseline local storage (384 KB).
	BaselineTotalBytes = BaselineRFBytes + BaselineSharedBytes + BaselineCacheBytes
)

// Design enumerates the three local-memory organizations compared in the
// paper.
type Design uint8

const (
	// Partitioned is the baseline: dedicated 16-byte MRF banks plus
	// dedicated 4-byte shared-memory and cache banks with fixed capacity.
	Partitioned Design = iota
	// Unified merges register file, shared memory, and cache into 32
	// uniform 16-byte banks whose capacity split is set per kernel.
	Unified
	// FermiLike keeps a fixed register file but allows the remaining
	// storage to be split between shared memory and cache in two preset
	// ratios (the Fermi 16/48 and 48/16 choice, scaled to capacity).
	FermiLike
)

// String names the design.
func (d Design) String() string {
	switch d {
	case Partitioned:
		return "partitioned"
	case Unified:
		return "unified"
	case FermiLike:
		return "fermi-like"
	}
	return fmt.Sprintf("Design(%d)", uint8(d))
}

// MemConfig is a fully resolved SM local-memory configuration: the design
// style plus the concrete capacity assigned to each function for the kernel
// about to run.
type MemConfig struct {
	// Design selects the bank organization and conflict model.
	Design Design
	// RFBytes is the register file capacity in bytes.
	RFBytes int
	// SharedBytes is the shared-memory capacity in bytes.
	SharedBytes int
	// CacheBytes is the primary data cache capacity in bytes.
	CacheBytes int
	// MaxThreads caps resident threads (used by the thread-count sweeps
	// in Figures 2-4; 0 means the architectural limit).
	MaxThreads int
}

// TotalBytes returns the aggregate local storage of the configuration.
func (m MemConfig) TotalBytes() int { return m.RFBytes + m.SharedBytes + m.CacheBytes }

// ThreadLimit returns the effective resident-thread cap.
func (m MemConfig) ThreadLimit() int {
	if m.MaxThreads <= 0 || m.MaxThreads > MaxThreadsPerSM {
		return MaxThreadsPerSM
	}
	return m.MaxThreads
}

// BankBytes returns the capacity of one bank for the structure sizes of
// this configuration: (rf, shared, cache) bank sizes for the partitioned
// design, or the single unified bank size repeated for the unified design.
func (m MemConfig) BankBytes() (rf, shared, cache int) {
	switch m.Design {
	case Unified:
		u := m.TotalBytes() / NumBanks
		return u, u, u
	default:
		return m.RFBytes / NumBanks, m.SharedBytes / NumBanks, m.CacheBytes / NumBanks
	}
}

// String renders the configuration compactly, e.g. "unified rf=228K shm=67K $=89K".
func (m MemConfig) String() string {
	return fmt.Sprintf("%s rf=%dK shm=%dK $=%dK", m.Design,
		m.RFBytes>>10, m.SharedBytes>>10, m.CacheBytes>>10)
}

// Validate checks structural invariants of the configuration.
func (m MemConfig) Validate() error {
	if m.RFBytes < 0 || m.SharedBytes < 0 || m.CacheBytes < 0 {
		return errors.New("config: negative capacity")
	}
	if m.TotalBytes() == 0 {
		return errors.New("config: zero total capacity")
	}
	if m.Design == Unified && m.TotalBytes()%NumBanks != 0 {
		return fmt.Errorf("config: unified capacity %d not divisible by %d banks",
			m.TotalBytes(), NumBanks)
	}
	if m.CacheBytes > 0 && m.CacheBytes%(CacheLineBytes*CacheWays) != 0 {
		return fmt.Errorf("config: cache capacity %d not divisible by way*line", m.CacheBytes)
	}
	return nil
}

// Baseline returns the baseline partitioned 256/64/64 KB configuration.
func Baseline() MemConfig {
	return MemConfig{
		Design:      Partitioned,
		RFBytes:     BaselineRFBytes,
		SharedBytes: BaselineSharedBytes,
		CacheBytes:  BaselineCacheBytes,
	}
}

// KernelRequirements captures what the programming system knows about a
// kernel when the Section 4.5 allocation runs.
type KernelRequirements struct {
	// RegsPerThread is the compiler-computed register count that avoids
	// spills (Table 1, column 2).
	RegsPerThread int
	// SharedBytesPerCTA is the programmer-declared shared memory per CTA.
	SharedBytesPerCTA int
	// ThreadsPerCTA is the CTA size.
	ThreadsPerCTA int
}

// BytesPerThread returns the per-thread register file footprint (4-byte
// registers).
func (k KernelRequirements) BytesPerThread() int { return k.RegsPerThread * 4 }

// SharedBytesPerThread returns the per-thread shared-memory footprint.
func (k KernelRequirements) SharedBytesPerThread() float64 {
	if k.ThreadsPerCTA == 0 {
		return 0
	}
	return float64(k.SharedBytesPerCTA) / float64(k.ThreadsPerCTA)
}

// Allocate implements the Section 4.5 automatic partitioning of a
// unified memory of totalBytes among one or more co-resident kernels:
//
//  1. the compiler supplies registers per thread to avoid spills,
//  2. the programmer supplies shared memory per CTA,
//  3. the scheduler maximizes resident threads (CTA granular, admitted
//     round-robin across kernels by Admit) under the capacity, and
//  4. all remaining storage becomes primary data cache.
//
// threadCap, if non-zero, limits joint resident threads below the
// architectural maximum (used for autotuned thread counts). Every kernel
// must admit at least one CTA alongside its co-tenants; otherwise
// Allocate fails with ErrDoesNotFit.
func Allocate(totalBytes, threadCap int, reqs ...KernelRequirements) (MemConfig, error) {
	if len(reqs) == 0 {
		return MemConfig{}, errors.New("config: no kernels to allocate for")
	}
	for i, req := range reqs {
		if req.ThreadsPerCTA <= 0 {
			return MemConfig{}, fmt.Errorf("config: %sThreadsPerCTA must be positive", kernelPrefix(i, len(reqs)))
		}
		if req.ThreadsPerCTA%32 != 0 {
			return MemConfig{}, fmt.Errorf("config: %sThreadsPerCTA %d not a multiple of the warp size",
				kernelPrefix(i, len(reqs)), req.ThreadsPerCTA)
		}
	}
	limit := MaxThreadsPerSM
	if threadCap > 0 && threadCap < limit {
		limit = threadCap
	}
	ctas, _ := Admit(reqs, Capacity{Threads: limit, RFBytes: totalBytes, SharedBytes: totalBytes, PoolBytes: totalBytes})
	cfg := MemConfig{Design: Unified}
	for i, req := range reqs {
		perCTABytes := req.BytesPerThread()*req.ThreadsPerCTA + req.SharedBytesPerCTA
		switch {
		case ctas[i] > 0:
		case len(reqs) > 1:
			return MemConfig{}, fmt.Errorf("config: stream %d does not fit alongside its co-tenants in %d bytes: %w",
				i, totalBytes, ErrDoesNotFit)
		case perCTABytes > totalBytes:
			return MemConfig{}, fmt.Errorf("config: one CTA needs %d bytes, unified memory has %d: %w",
				perCTABytes, totalBytes, ErrDoesNotFit)
		default:
			return MemConfig{}, fmt.Errorf("config: CTA size %d exceeds thread limit %d: %w",
				req.ThreadsPerCTA, limit, ErrDoesNotFit)
		}
		cfg.RFBytes += ctas[i] * req.ThreadsPerCTA * req.BytesPerThread()
		cfg.SharedBytes += ctas[i] * req.SharedBytesPerCTA
		cfg.MaxThreads += ctas[i] * req.ThreadsPerCTA
	}
	cfg.CacheBytes = totalBytes - cfg.RFBytes - cfg.SharedBytes
	// Round the cache down to a whole number of sets so the tag array is
	// well formed; the remainder is left unused (sub-set slack is below
	// one bank's granularity and does not affect the model).
	cfg.CacheBytes -= cfg.CacheBytes % (CacheLineBytes * CacheWays)
	return cfg, nil
}

// kernelPrefix names kernel i in a requirement error, but only when
// several kernels share the allocation.
func kernelPrefix(i, n int) string {
	if n == 1 {
		return ""
	}
	return fmt.Sprintf("stream %d: ", i)
}

// FermiSplits returns the two shared/cache splits offered by the Fermi-like
// limited design for a given non-register capacity: (3/4, 1/4) and
// (1/4, 3/4), mirroring Fermi's 48/16 KB choice scaled to capacity.
func FermiSplits(nonRFBytes int) [2]MemConfig {
	large := nonRFBytes * 3 / 4
	small := nonRFBytes - large
	return [2]MemConfig{
		{Design: FermiLike, RFBytes: BaselineRFBytes, SharedBytes: large, CacheBytes: small},
		{Design: FermiLike, RFBytes: BaselineRFBytes, SharedBytes: small, CacheBytes: large},
	}
}

// ChooseFermi picks the better of the two Fermi-like splits for one or
// more co-resident kernels: the split that admits the most joint
// resident threads (Admit under the split's fixed register-file and
// shared-memory capacities), breaking ties toward the larger cache.
func ChooseFermi(nonRFBytes, threadCap int, reqs ...KernelRequirements) MemConfig {
	splits := FermiSplits(nonRFBytes)
	best := splits[1] // prefer the larger cache on ties
	if residentThreads(reqs, splits[0], threadCap) > residentThreads(reqs, splits[1], threadCap) {
		best = splits[0]
	}
	best.MaxThreads = threadCap
	return best
}

// residentThreads counts the joint resident threads Admit grants the
// kernels under a fixed configuration.
func residentThreads(reqs []KernelRequirements, cfg MemConfig, threadCap int) int {
	limit := cfg.ThreadLimit()
	if threadCap > 0 && threadCap < limit {
		limit = threadCap
	}
	ctas, _ := Admit(reqs, Capacity{Threads: limit, RFBytes: cfg.RFBytes, SharedBytes: cfg.SharedBytes})
	threads := 0
	for i, req := range reqs {
		threads += ctas[i] * req.ThreadsPerCTA
	}
	return threads
}

// Capacity is the budget Admit fills. Threads bounds joint resident
// threads; RFBytes and SharedBytes bound the joint register-file and
// shared-memory footprints; PoolBytes, when positive, also bounds their
// sum (the unified design, where both draw from one pool).
type Capacity struct {
	Threads, RFBytes, SharedBytes, PoolBytes int
}

// Budget names the Capacity budget that refused a kernel's next CTA.
type Budget uint8

const (
	// BudgetThreads: the joint thread limit.
	BudgetThreads Budget = iota
	// BudgetRegisters: the register-file capacity.
	BudgetRegisters
	// BudgetShared: the shared-memory capacity.
	BudgetShared
	// BudgetPool: the unified pool both draw from.
	BudgetPool
)

// Admit is the one CTA admission rule of the simulator, for a single
// kernel and for co-resident mixes alike. CTAs are admitted greedily
// round-robin: each round offers every kernel, in index order, one more
// CTA, admitted only if every budget of c still holds (tested in Budget
// order). Footprints only grow, so a kernel refused once is blocked for
// good, and admission ends when every kernel is blocked. The order
// matches the dispatcher's CTA-slot interleave, so slot layout follows
// directly from the result.
//
// Admit returns each kernel's admitted CTAs and the budget that refused
// its next one. A kernel with a non-positive CTA size admits nothing.
func Admit(reqs []KernelRequirements, c Capacity) (ctas []int, refused []Budget) {
	ctas = make([]int, len(reqs))
	refused = make([]Budget, len(reqs))
	blocked := make([]bool, len(reqs))
	threads, rf, shared := 0, 0, 0
	for i, req := range reqs {
		blocked[i] = req.ThreadsPerCTA <= 0
	}
	for progress := true; progress; {
		progress = false
		for i, req := range reqs {
			if blocked[i] {
				continue
			}
			rfPerCTA := req.BytesPerThread() * req.ThreadsPerCTA
			switch {
			case threads+req.ThreadsPerCTA > c.Threads:
				refused[i] = BudgetThreads
			case rf+rfPerCTA > c.RFBytes:
				refused[i] = BudgetRegisters
			case shared+req.SharedBytesPerCTA > c.SharedBytes:
				refused[i] = BudgetShared
			case c.PoolBytes > 0 && rf+rfPerCTA+shared+req.SharedBytesPerCTA > c.PoolBytes:
				refused[i] = BudgetPool
			default:
				ctas[i]++
				threads += req.ThreadsPerCTA
				rf += rfPerCTA
				shared += req.SharedBytesPerCTA
				progress = true
				continue
			}
			blocked[i] = true
		}
	}
	return ctas, refused
}
