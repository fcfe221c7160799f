package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/stats"
)

// defaultSeed is the seed the committed digests were recorded with.
const defaultSeed = 1

// simSeed maps a benchmark seed to the workload seed of the simulated
// runs (RunSpec.Seed, api.RunRequest.Seed). It never returns 1, the
// seed core.Runner calibrates its baselines with, so every benchmark
// seed builds the same number of trace families.
func simSeed(seed uint64) uint64 { return seed + 2 }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// tally counts operations attempted and failed. A run that errors or
// fails a correctness check is one failed operation.
type tally struct {
	attempted, failed atomic.Int64
}

// check records one attempted operation that failed when err != nil,
// logging the failure to standard error.
func (t *tally) check(err error) {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
		fmt.Fprintln(os.Stderr, "simbench: failed:", err)
	}
}

// counterHash hashes every field of a run's counters.
func counterHash(c *stats.Counters) string {
	b, err := json.Marshal(c)
	if err != nil {
		panic(err) // Counters holds only integers
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digest folds an ordered list of hashes into one.
func digest(hashes []string) string {
	h := sha256.New()
	for _, s := range hashes {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// heapLiveMB collects garbage and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// fingerprint describes the host, so that numbers are only ever compared
// between runs on the same machine.
func fingerprint() map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_rev":    rev,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// Clocks. The host is a virtual machine; for minutes at a time the
// hypervisor takes vCPUs away while they are runnable (the steal column
// of /proc/stat). The sweeps run one busy goroutine, so their timings
// are the process's CPU time (every thread, so garbage collection
// counts), which the kernel accounts without the stolen time
// (CONFIG_PARAVIRT_TIME_ACCOUNTING). serve-mixed's latencies are wall
// time as a client sees it, stolen time included. Every run reports the
// steal share per vCPU of its timed phase beside the metrics, so that a
// run taken during a stretch of steal can be recognized.

// cpuTime returns the CPU time all of the process's threads have run.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHZ is the unit of /proc/stat counters.
const userHZ = 100

// stealSeconds returns the CPU time stolen from all vCPUs so far, or 0
// where /proc/stat has no steal column.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / userHZ
}

// stealMeter measures the steal share of an interval.
type stealMeter struct {
	t     time.Time
	steal float64
}

func startSteal() stealMeter { return stealMeter{time.Now(), stealSeconds()} }

// share returns the CPU time stolen since m as a share of the wall time
// of all vCPUs.
func (m stealMeter) share() float64 {
	return ratio(stealSeconds()-m.steal, time.Since(m.t).Seconds()*float64(runtime.NumCPU()))
}

// noteSteal warns on standard error when a run's timed phase lost more
// than a tenth of the host's CPU time to the hypervisor.
func noteSteal(name string, share float64) {
	if share > 0.1 {
		fmt.Fprintf(os.Stderr, "simbench: %s: %.0f%% of the vCPUs' time was stolen during the timed phase\n", name, 100*share)
	}
}
