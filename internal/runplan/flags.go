package runplan

import (
	"errors"
	"fmt"
	"strings"

	"repro/api"
	"repro/internal/machine"
)

// Flags are the run flags the smsim and smprof commands share. Request
// maps them to the api.RunRequest they mean, so a command-line run
// resolves and simulates exactly as the same request does in the
// service.
type Flags struct {
	// Kernel and Streams are the -kernel/-streams pair (KernelNames).
	Kernel, Streams string
	// Design is "partitioned", "unified" or "fermi". A partitioned run
	// takes the RFKB/SharedKB/CacheKB split (all zero = the paper's
	// baseline); unified and fermi runs size a TotalKB memory for the
	// kernels.
	Design                           string
	RFKB, SharedKB, CacheKB, TotalKB int
	// Threads caps resident threads (0 = architectural limit).
	Threads int
	// Regs is a plain kernel's per-thread register allocation (0 =
	// spill-free); the streams of a mix use their spill-free demand.
	Regs int
	// Sched names the warp scheduler ("" = the machine's).
	Sched string
	// Machine, when non-empty, is a machine description file that
	// replaces Design, the capacities and Threads.
	Machine string
}

// KernelNames parses a -kernel/-streams flag pair into kernel names:
// one plain kernel, or a "+"-joined mix of at least two co-resident
// kernels.
func KernelNames(kernel, streams string) ([]string, error) {
	switch {
	case streams != "" && kernel != "":
		return nil, errors.New("-kernel and -streams are mutually exclusive")
	case streams != "":
		names := strings.Split(streams, "+")
		if len(names) < 2 {
			return nil, fmt.Errorf("-streams wants at least two \"+\"-joined kernels, got %q", streams)
		}
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		return names, nil
	case kernel == "":
		return nil, errors.New("-kernel is required (try smsim -list)")
	}
	return []string{kernel}, nil
}

// Description is the machine the flags describe before any -design
// override: the -machine file, or the partitioned -rf/-shm/-cache
// split capped at -threads. -sched overrides the scheduler either way.
func (f Flags) Description() (machine.Description, error) {
	var d machine.Description
	if f.Machine != "" {
		var err error
		if d, err = machine.Load(f.Machine); err != nil {
			return d, err
		}
	} else {
		d.Design = "partitioned"
		d.RFKB, d.SharedKB, d.CacheKB, d.MaxThreads = f.RFKB, f.SharedKB, f.CacheKB, f.Threads
	}
	if f.Sched != "" {
		d.Timing.Scheduler = f.Sched
	}
	return d, nil
}

// Request maps the flags to the run request they mean. Errors are the
// caller's (a command exits 2 on them, as the service answers 400).
func (f Flags) Request() (api.RunRequest, error) {
	var req api.RunRequest
	names, err := KernelNames(f.Kernel, f.Streams)
	if err != nil {
		return req, err
	}
	if len(names) == 1 {
		req.Kernel, req.RegsPerThread = names[0], f.Regs
	} else {
		for _, name := range names {
			req.Streams = append(req.Streams, api.StreamRequest{Kernel: name})
		}
	}
	if req.Machine, err = f.Description(); err != nil {
		return req, err
	}
	if f.Machine != "" {
		return req, nil // the machine file replaces -design
	}
	switch f.Design {
	case "partitioned":
	case "unified", "fermi":
		if f.TotalKB <= 0 {
			return req, fmt.Errorf("-total must be positive, got %d", f.TotalKB)
		}
		if f.Design == "unified" {
			req.AllocTotalKB = f.TotalKB
		} else {
			req.FermiTotalKB = f.TotalKB
		}
	default:
		return req, fmt.Errorf("unknown design %q (want partitioned | unified | fermi)", f.Design)
	}
	return req, nil
}
