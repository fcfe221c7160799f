// Package api is the simulation service's public surface: the
// request/response DTOs of every smserve endpoint, the unified error
// envelope with its machine-readable codes, the async job objects, and
// a thin HTTP client — so callers (cmd/sweep -submit, the httptest
// suites, external tooling) share one set of types instead of
// hand-rolling JSON.
//
// Endpoints (implemented by internal/serve, wired by cmd/smserve):
//
//	POST   /v1/run             one simulation               -> RunResponse
//	POST   /v1/batch           many simulations             -> BatchResponse
//	POST   /v1/experiment      a named paper experiment     -> ExperimentResponse
//	POST   /v1/jobs            submit an async job          -> Job (202)
//	GET    /v1/jobs            list jobs                    -> []Job
//	GET    /v1/jobs/{id}       poll status and progress     -> Job
//	GET    /v1/jobs/{id}/events  live progress stream          (SSE, JobEvent)
//	GET    /v1/jobs/{id}/result  final result bytes         -> RunResponse/BatchResponse/...
//	DELETE /v1/jobs/{id}       cancel                       -> Job
//	GET    /v1/kernels         the benchmark registry       -> []KernelInfo
//	GET    /healthz            liveness
//	GET    /metrics            counters and histograms      -> Snapshot
//
// Every non-2xx response from these handlers is an ErrorBody envelope;
// see Error for the code vocabulary. Response bodies are deterministic:
// identical requests produce byte-identical bytes, the property the
// service's caching, job resume, and the differential test suites all
// lean on.
package api

import (
	"encoding/json"

	"repro/internal/machine"
	"repro/internal/stats"
)

// RunRequest describes one kernel simulation. Exactly the smsim surface:
// a registry kernel, a machine description (zero-valued fields take the
// paper's defaults), and optional overrides.
type RunRequest struct {
	// Kernel is the benchmark name (GET /v1/kernels lists them).
	Kernel string `json:"kernel"`
	// BF selects a needle blocking-factor variant; 0 is the kernel's
	// default. Ignored by kernels without a blocking factor.
	BF int `json:"bf,omitempty"`
	// Machine is the machine description, as in a -machine JSON file.
	Machine machine.Description `json:"machine,omitempty"`
	// AllocTotalKB, when positive, replaces the machine's design and
	// capacities with the §4.5 automatic allocation of a unified memory
	// of this many KB (the machine's max_threads caps residency).
	AllocTotalKB int `json:"alloc_total_kb,omitempty"`
	// FermiTotalKB, when positive, replaces them with the Fermi-like
	// limited design of this many KB instead: a fixed 256 KB register
	// file plus the better of the two preset shared/cache splits for the
	// kernel. Mutually exclusive with AllocTotalKB.
	FermiTotalKB int `json:"fermi_total_kb,omitempty"`
	// RegsPerThread overrides the per-thread register allocation; 0 (or
	// anything at or above the kernel's demand) is the spill-free value.
	RegsPerThread int `json:"regs_per_thread,omitempty"`
	// Seed perturbs per-warp random streams; 0 means the default seed.
	Seed uint64 `json:"seed,omitempty"`
	// Probe attaches the cycle-level observability probe and returns
	// its byte-deterministic NDJSON profile in the response.
	Probe bool `json:"probe,omitempty"`
	// ProbeIntervalCycles is the probe sampling interval (0 = default).
	ProbeIntervalCycles int64 `json:"probe_interval_cycles,omitempty"`
	// TimeoutMS bounds the simulation's wall time (0 = server default).
	// Not part of the cache key: it bounds work, never results.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Streams runs several kernels co-resident on one SM (multi-tenant
	// concurrent-kernel execution) instead of a single kernel. Mutually
	// exclusive with Kernel/BF/RegsPerThread/Seed; a single-entry list
	// is the same run as the plain request, so both spellings share one
	// cache key and response. AllocTotalKB/FermiTotalKB then partition
	// jointly for the whole mix.
	Streams []StreamRequest `json:"streams,omitempty"`
}

// StreamList returns the request's co-resident kernels: Streams, or the
// plain Kernel/BF/RegsPerThread/Seed fields as a one-entry list (the
// same run). Rejecting a request that mixes both spellings is the
// caller's job.
func (r RunRequest) StreamList() []StreamRequest {
	if len(r.Streams) > 0 {
		return r.Streams
	}
	return []StreamRequest{{Kernel: r.Kernel, BF: r.BF, RegsPerThread: r.RegsPerThread, Seed: r.Seed}}
}

// StreamRequest is one co-resident kernel (stream) of a multi-tenant
// RunRequest.
type StreamRequest struct {
	// Kernel is the stream's benchmark name (GET /v1/kernels lists them).
	Kernel string `json:"kernel"`
	// BF selects a needle blocking-factor variant for this stream; 0 is
	// the kernel's default. Ignored by kernels without a blocking factor.
	BF int `json:"bf,omitempty"`
	// RegsPerThread overrides the stream's per-thread register
	// allocation; 0 (or anything at or above the kernel's demand) is the
	// spill-free value.
	RegsPerThread int `json:"regs_per_thread,omitempty"`
	// Seed perturbs the stream's per-warp random streams; 0 means the
	// default seed.
	Seed uint64 `json:"seed,omitempty"`
}

// StreamResult is one stream's attributed share of a multi-tenant
// RunResponse.
type StreamResult struct {
	// Kernel names the stream's resolved workload.
	Kernel string `json:"kernel"`
	// BF echoes the stream's blocking-factor variant when it has one.
	BF int `json:"bf,omitempty"`
	// Occupancy is the stream's share of the joint residency admitted by
	// the round-robin CTA interleave.
	Occupancy OccupancyInfo `json:"occupancy"`
	// Counters are the stream's attributed event counts: every additive
	// category sums exactly to the aggregate Counters across streams,
	// and Cycles is the cycle the stream's last warp exited.
	Counters *stats.Counters `json:"counters"`
	// IPC is the stream's thread instructions per its own cycle count.
	IPC float64 `json:"ipc"`
	// WarpIPC is the warp-granular variant of IPC.
	WarpIPC float64 `json:"warp_ipc"`
}

// ConfigInfo is the resolved local-memory configuration of a response.
type ConfigInfo struct {
	// Design is the memory design ("partitioned", "unified", "fermi-like").
	Design string `json:"design"`
	// RFBytes is the register-file capacity in bytes.
	RFBytes int `json:"rf_bytes"`
	// SharedBytes is the shared-memory capacity in bytes.
	SharedBytes int `json:"shared_bytes"`
	// CacheBytes is the primary data cache capacity in bytes.
	CacheBytes int `json:"cache_bytes"`
	// MaxThreads is the resident thread cap (0 = architectural limit).
	MaxThreads int `json:"max_threads"`
}

// OccupancyInfo is the residency a configuration admitted.
type OccupancyInfo struct {
	// CTAs is the number of concurrently resident CTAs.
	CTAs int `json:"ctas"`
	// Threads is the resident thread count.
	Threads int `json:"threads"`
	// Warps is the resident warp count.
	Warps int `json:"warps"`
	// Limiter names the resource that bound residency.
	Limiter string `json:"limiter"`
}

// EnergyInfo is the Section 5.2 energy breakdown in joules.
type EnergyInfo struct {
	// MRF is main-register-file access energy.
	MRF float64 `json:"mrf"`
	// ORF is operand-register-file access energy.
	ORF float64 `json:"orf"`
	// LRF is last-result-file access energy.
	LRF float64 `json:"lrf"`
	// Shared is shared-memory access energy.
	Shared float64 `json:"shared"`
	// Cache is cache data-array access energy.
	Cache float64 `json:"cache"`
	// Tags is cache tag-lookup energy.
	Tags float64 `json:"tags"`
	// Other is the SM's remaining dynamic energy.
	Other float64 `json:"other"`
	// Leak is SRAM and SM leakage energy.
	Leak float64 `json:"leak"`
	// DRAM is off-chip traffic energy.
	DRAM float64 `json:"dram"`
	// Total sums every component.
	Total float64 `json:"total"`
}

// RunResponse is the structured result of one simulation — the same
// numbers cmd/smsim prints, as JSON. Bodies are deterministic: two
// identical requests yield byte-identical responses whether simulated,
// served from the in-memory cache, or replayed from the persistent
// store.
type RunResponse struct {
	// Key is the canonical cache key of the request — the SHA-256 that
	// also addresses the result in the persistent store.
	Key string `json:"key"`
	// Kernel echoes the resolved workload (for a multi-tenant run, the
	// "+"-joined stream label).
	Kernel string `json:"kernel"`
	// BF echoes the resolved blocking-factor variant when there is one.
	BF int `json:"bf,omitempty"`
	// Config is the resolved configuration the run executed under.
	Config ConfigInfo `json:"config"`
	// Occupancy is the admitted residency.
	Occupancy OccupancyInfo `json:"occupancy"`
	// Counters are the raw simulation event counts (stats.Counters).
	Counters *stats.Counters `json:"counters"`
	// IPC is thread instructions per cycle — an absolute metric (see
	// internal/core's package comment on absolute versus ratio-only
	// metrics).
	IPC float64 `json:"ipc"`
	// WarpIPC is the warp-granular variant of IPC.
	WarpIPC float64 `json:"warp_ipc"`
	// Energy is the energy breakdown in joules.
	Energy EnergyInfo `json:"energy"`
	// ProbeNDJSON is the probe profile when the request asked for one.
	ProbeNDJSON string `json:"probe_ndjson,omitempty"`
	// WarmCycles reports that the run was forked from a shared warm
	// prefix at this cycle (batch warm_cycles; see BatchRequest).
	WarmCycles int64 `json:"warm_cycles,omitempty"`
	// Streams holds the per-stream attribution of a multi-tenant run, in
	// request stream order; omitted for single-kernel runs. The
	// top-level Kernel is then the "+"-joined stream label.
	Streams []StreamResult `json:"streams,omitempty"`
}

// BatchRequest is a set of independent runs executed as one admitted
// request, fanned out through the parallel engine.
type BatchRequest struct {
	// Runs are the batch's items, executed independently in order.
	Runs []RunRequest `json:"runs"`
	// WarmCycles, when positive, switches the batch to warm-prefix
	// sharing: items whose canonical requests agree on every
	// prefix-defining field (kernel, configuration, registers, seed,
	// scheduler policy and active-set size, scatter variant) share ONE
	// simulation warmed to this cycle under the default divergable
	// timing, copy-on-write forked per item (internal/snapshot). The
	// semantics are "switch timing parameters at cycle WarmCycles", so
	// results differ from cycle-0 runs and are cached under keys that
	// include the warm cycle. Probed items always take the exact
	// cycle-0 path (probes observe from the first cycle).
	WarmCycles int64 `json:"warm_cycles,omitempty"`
}

// BatchItem is one batch entry's outcome: exactly one of Result or
// Error is set. Items keep request order.
type BatchItem struct {
	// Result is the item's RunResponse on success.
	Result *RunResponse `json:"result,omitempty"`
	// Error is the item's failure (e.g. an infeasible configuration).
	Error *Error `json:"error,omitempty"`
	// Status is the failure's HTTP-equivalent status code.
	Status int `json:"status,omitempty"`
}

// BatchResponse is the ordered outcomes of a batch.
type BatchResponse struct {
	// Results holds one raw BatchItem per request item, in order.
	Results []json.RawMessage `json:"results"`
}

// Items decodes the batch's raw entries.
func (b *BatchResponse) Items() ([]BatchItem, error) {
	items := make([]BatchItem, len(b.Results))
	for i, raw := range b.Results {
		if err := json.Unmarshal(raw, &items[i]); err != nil {
			return nil, err
		}
	}
	return items, nil
}

// ExperimentRequest names a paper experiment to regenerate (the
// cmd/paper surface).
type ExperimentRequest struct {
	// Name is the experiment ("table1" ... "figure11", "validation",
	// "ablation").
	Name string `json:"name"`
	// Scheduler optionally re-renders under a non-default warp
	// scheduler ("twolevel" or "gto").
	Scheduler string `json:"scheduler,omitempty"`
}

// ExperimentResponse carries one experiment's rendered table in the
// three formats the CLIs print.
type ExperimentResponse struct {
	// Name echoes the experiment name.
	Name string `json:"name"`
	// Scheduler is the warp-scheduling policy the tables ran under.
	Scheduler string `json:"scheduler"`
	// Text is the rendered plain-text table.
	Text string `json:"text"`
	// CSV is the same table as comma-separated values.
	CSV string `json:"csv"`
	// Markdown is the same table as a markdown table.
	Markdown string `json:"markdown"`
}

// KernelInfo is one registry benchmark.
type KernelInfo struct {
	// Name is the registry name (e.g. "needle").
	Name string `json:"name"`
	// Suite is the originating benchmark suite.
	Suite string `json:"suite"`
	// Category is the Table 1 resource category.
	Category string `json:"category"`
	// Description is the one-line workload summary.
	Description string `json:"description"`
	// RegsNeeded is the spill-free per-thread register demand.
	RegsNeeded int `json:"regs_needed"`
	// ThreadsPerCTA is the CTA geometry.
	ThreadsPerCTA int `json:"threads_per_cta"`
	// SharedBytesPerCTA is the per-CTA scratchpad footprint.
	SharedBytesPerCTA int `json:"shared_bytes_per_cta"`
	// GridCTAs is the kernel's grid size in CTAs.
	GridCTAs int `json:"grid_ctas"`
	// BF is the blocking-factor variant when there is one.
	BF int `json:"bf,omitempty"`
}
