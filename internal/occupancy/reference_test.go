package occupancy_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/occupancy"
	"repro/internal/workloads"
)

// The closed-form single-kernel rules below are the pre-unification
// implementations of config.Allocate, config.ChooseFermi, and
// occupancy.Compute, kept as references: the round-robin admission rule
// (config.Admit) must reproduce them exactly for one kernel.

func refAllocate(req config.KernelRequirements, totalBytes, threadCap int) (config.MemConfig, error) {
	if req.ThreadsPerCTA <= 0 {
		return config.MemConfig{}, errors.New("config: ThreadsPerCTA must be positive")
	}
	if req.ThreadsPerCTA%32 != 0 {
		return config.MemConfig{}, fmt.Errorf("config: ThreadsPerCTA %d not a multiple of the warp size", req.ThreadsPerCTA)
	}
	limit := config.MaxThreadsPerSM
	if threadCap > 0 && threadCap < limit {
		limit = threadCap
	}
	perCTABytes := req.BytesPerThread()*req.ThreadsPerCTA + req.SharedBytesPerCTA
	if perCTABytes > totalBytes {
		return config.MemConfig{}, fmt.Errorf("config: one CTA needs %d bytes, unified memory has %d: %w",
			perCTABytes, totalBytes, config.ErrDoesNotFit)
	}
	maxCTAs := limit / req.ThreadsPerCTA
	if maxCTAs < 1 {
		return config.MemConfig{}, fmt.Errorf("config: CTA size %d exceeds thread limit %d: %w",
			req.ThreadsPerCTA, limit, config.ErrDoesNotFit)
	}
	if byCapacity := totalBytes / perCTABytes; byCapacity < maxCTAs {
		maxCTAs = byCapacity
	}
	cfg := config.MemConfig{
		Design:      config.Unified,
		RFBytes:     maxCTAs * req.ThreadsPerCTA * req.BytesPerThread(),
		SharedBytes: maxCTAs * req.SharedBytesPerCTA,
		MaxThreads:  maxCTAs * req.ThreadsPerCTA,
	}
	cfg.CacheBytes = totalBytes - cfg.RFBytes - cfg.SharedBytes
	cfg.CacheBytes -= cfg.CacheBytes % (config.CacheLineBytes * config.CacheWays)
	return cfg, nil
}

func refChooseFermi(req config.KernelRequirements, nonRFBytes, threadCap int) config.MemConfig {
	splits := config.FermiSplits(nonRFBytes)
	best := splits[1]
	if req.SharedBytesPerCTA > 0 {
		if refResidentThreads(req, splits[0], threadCap) > refResidentThreads(req, splits[1], threadCap) {
			best = splits[0]
		}
	}
	best.MaxThreads = threadCap
	return best
}

func refResidentThreads(req config.KernelRequirements, cfg config.MemConfig, threadCap int) int {
	limit := cfg.ThreadLimit()
	if threadCap > 0 && threadCap < limit {
		limit = threadCap
	}
	ctas := limit / req.ThreadsPerCTA
	if req.SharedBytesPerCTA > 0 {
		if byShmem := cfg.SharedBytes / req.SharedBytesPerCTA; byShmem < ctas {
			ctas = byShmem
		}
	}
	if rfPerCTA := req.BytesPerThread() * req.ThreadsPerCTA; rfPerCTA > 0 {
		if byRF := cfg.RFBytes / rfPerCTA; byRF < ctas {
			ctas = byRF
		}
	}
	return ctas * req.ThreadsPerCTA
}

func refCompute(req config.KernelRequirements, cfg config.MemConfig, regsAllocated int) occupancy.Result {
	if regsAllocated <= 0 {
		regsAllocated = req.RegsPerThread
	}
	if req.ThreadsPerCTA <= 0 {
		return occupancy.Result{Limiter: occupancy.LimitNone}
	}
	ctas := cfg.ThreadLimit() / req.ThreadsPerCTA
	limiter := occupancy.LimitThreads
	rfPerCTA := regsAllocated * 4 * req.ThreadsPerCTA
	if rfPerCTA > 0 {
		if byRF := cfg.RFBytes / rfPerCTA; byRF < ctas {
			ctas, limiter = byRF, occupancy.LimitRegisters
		}
	}
	if req.SharedBytesPerCTA > 0 {
		if byShmem := cfg.SharedBytes / req.SharedBytesPerCTA; byShmem < ctas {
			ctas, limiter = byShmem, occupancy.LimitShared
		}
	}
	if ctas <= 0 {
		return occupancy.Result{Limiter: occupancy.LimitNone}
	}
	return occupancy.Result{
		CTAs:            ctas,
		Threads:         ctas * req.ThreadsPerCTA,
		Warps:           ctas * req.ThreadsPerCTA / 32,
		Limiter:         limiter,
		RFBytesUsed:     ctas * rfPerCTA,
		SharedBytesUsed: ctas * req.SharedBytesPerCTA,
	}
}

// sameErr reports whether two allocation errors agree: both nil, or
// both non-nil with identical text and the same ErrDoesNotFit class.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, config.ErrDoesNotFit) == errors.Is(b, config.ErrDoesNotFit)
}

// TestAdmissionMatchesClosedForm checks the unified admission rule
// against the closed-form references for every registry kernel, every
// ThreadSweep cap (plus the uncapped and a below-one-CTA cap), and the
// three designs: the partitioned baseline, the §4.5 unified allocation,
// and the Fermi-like split. Capacities below the 384 KB default cover
// the does-not-fit paths and their error text.
func TestAdmissionMatchesClosedForm(t *testing.T) {
	caps := append([]int{0, 128}, core.ThreadSweep...)
	totals := []int{config.BaselineTotalBytes, 320 << 10, 64 << 10, 32 << 10}
	infeasible := 0
	var limiters [occupancy.LimitNone + 1]int
	for _, k := range workloads.All() {
		req := k.Requirements()
		for _, threadCap := range caps {
			for _, total := range totals {
				got, gotErr := config.Allocate(total, threadCap, req)
				want, wantErr := refAllocate(req, total, threadCap)
				if got != want || !sameErr(gotErr, wantErr) {
					t.Errorf("%s Allocate(%d, cap %d) = %v, %v; want %v, %v", k.Name, total, threadCap, got, gotErr, want, wantErr)
				}
				if wantErr != nil {
					infeasible++
				}
				if total > config.BaselineRFBytes {
					nonRF := total - config.BaselineRFBytes
					if got, want := config.ChooseFermi(nonRF, threadCap, req), refChooseFermi(req, nonRF, threadCap); got != want {
						t.Errorf("%s ChooseFermi(%d, cap %d) = %v, want %v", k.Name, nonRF, threadCap, got, want)
					}
				}
			}
			base := config.Baseline()
			base.MaxThreads = threadCap
			fermi := config.ChooseFermi(config.BaselineTotalBytes-config.BaselineRFBytes, threadCap, req)
			cfgs := []config.MemConfig{base, fermi, {Design: config.Partitioned, RFBytes: 16 << 10, SharedBytes: 8 << 10, CacheBytes: 8 << 10, MaxThreads: threadCap}}
			if uni, err := config.Allocate(config.BaselineTotalBytes, threadCap, req); err == nil {
				cfgs = append(cfgs, uni)
			}
			for _, cfg := range cfgs {
				for _, regs := range []int{0, k.RegsNeeded / 2} {
					got, want := occupancy.Compute(req, cfg, regs), refCompute(req, cfg, regs)
					if got != want {
						t.Errorf("%s Compute(%v, regs %d) = %+v, want %+v", k.Name, cfg, regs, got, want)
					}
					limiters[want.Limiter]++
				}
			}
		}
	}
	for l, n := range limiters {
		if n == 0 {
			t.Errorf("no case exercised limiter %v", occupancy.Limiter(l))
		}
	}
	if infeasible == 0 {
		t.Error("no case exercised an ErrDoesNotFit allocation")
	}
}

// TestFitErrorMatchesClosedForm checks that a run the reference rule
// admits no CTA fails with a *core.FitError naming the reference
// limiter, and that the error matches config.ErrDoesNotFit.
func TestFitErrorMatchesClosedForm(t *testing.T) {
	cfg := config.MemConfig{Design: config.Partitioned, RFBytes: 16 << 10, SharedBytes: 1 << 10, CacheBytes: 8 << 10}
	r := core.NewRunner()
	checked := 0
	for _, k := range workloads.All() {
		want := refCompute(k.Requirements(), cfg, 0)
		if want.CTAs > 0 {
			continue
		}
		_, err := r.Run(core.RunSpec{Kernel: k, Config: cfg})
		var fit *core.FitError
		if !errors.As(err, &fit) || fit.Limiter != want.Limiter || fit.Kernel != k.Name {
			t.Errorf("%s: Run error %v, want a FitError with limiter %v", k.Name, err, want.Limiter)
		}
		if !errors.Is(err, config.ErrDoesNotFit) {
			t.Errorf("%s: %v does not match ErrDoesNotFit", k.Name, err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no registry kernel is infeasible under the tiny configuration")
	}
}
