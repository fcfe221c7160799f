package core_test

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workloads"
)

// Example runs the paper's headline comparison for one kernel: needle
// under the baseline partitioned SM and under the unified design's §4.5
// allocation.
func Example() {
	kernel, err := workloads.ByName("needle")
	if err != nil {
		panic(err)
	}
	runner := core.NewRunner()

	baseline, err := runner.Run(core.RunSpec{Kernel: kernel, Config: config.Baseline()})
	if err != nil {
		panic(err)
	}
	unifiedCfg, err := config.Allocate(config.BaselineTotalBytes, 0, kernel.Requirements())
	if err != nil {
		panic(err)
	}
	unified, err := runner.Run(core.RunSpec{Kernel: kernel, Config: unifiedCfg})
	if err != nil {
		panic(err)
	}

	fmt.Println("baseline threads:", baseline.Occupancy.Threads)
	fmt.Println("unified threads:", unified.Occupancy.Threads)
	fmt.Println("unified faster:", unified.Counters.Cycles < baseline.Counters.Cycles)
	// Output:
	// baseline threads: 224
	// unified threads: 1024
	// unified faster: true
}
