package runplan

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/config"
	"repro/internal/machine"
	"repro/internal/sched"
)

// cliFlags are the smsim/smprof flag defaults.
func cliFlags() Flags {
	return Flags{Design: "partitioned", RFKB: 256, SharedKB: 64, CacheKB: 64, TotalKB: 384}
}

// TestFlagsMeanTheServiceRequest checks that each flag spelling resolves
// to the same run — the same cache key — as the request a service
// client would send for it.
func TestFlagsMeanTheServiceRequest(t *testing.T) {
	mf := filepath.Join(t.TempDir(), "m.json")
	d := machine.Default()
	d.Design, d.RFKB, d.SharedKB, d.CacheKB = "unified", 128, 128, 128
	if err := machine.Save(mf, d); err != nil {
		t.Fatal(err)
	}
	gto := machine.Description{}
	gto.Timing.Scheduler = "gto"
	threads := machine.Description{MaxThreads: 512}
	fileGTO := d
	fileGTO.Timing.Scheduler = "gto"
	mix := []api.StreamRequest{{Kernel: "needle"}, {Kernel: "matrixmul"}}

	for _, c := range []struct {
		name string
		edit func(*Flags)
		want api.RunRequest
	}{
		{"baseline", func(f *Flags) { f.Kernel = "needle" }, api.RunRequest{Kernel: "needle"}},
		{"zero split is the baseline", func(f *Flags) { f.Kernel, f.RFKB, f.SharedKB, f.CacheKB = "needle", 0, 0, 0 },
			api.RunRequest{Kernel: "needle"}},
		{"partitioned split", func(f *Flags) { f.Kernel, f.RFKB, f.Regs = "dgemm", 128, 24 },
			api.RunRequest{Kernel: "dgemm", RegsPerThread: 24,
				Machine: machine.Description{RFKB: 128, SharedKB: 64, CacheKB: 64}}},
		{"unified", func(f *Flags) { f.Kernel, f.Design, f.Threads = "dgemm", "unified", 512 },
			api.RunRequest{Kernel: "dgemm", AllocTotalKB: 384, Machine: threads}},
		{"fermi", func(f *Flags) { f.Kernel, f.Design, f.TotalKB = "bfs", "fermi", 320 },
			api.RunRequest{Kernel: "bfs", FermiTotalKB: 320}},
		{"scheduler", func(f *Flags) { f.Kernel, f.Sched = "bfs", "gto" },
			api.RunRequest{Kernel: "bfs", Machine: gto}},
		{"streams", func(f *Flags) { f.Streams, f.Design, f.Regs = "needle + matrixmul", "unified", 12 },
			api.RunRequest{Streams: mix, AllocTotalKB: 384}},
		{"machine file", func(f *Flags) { f.Kernel, f.Machine, f.Design, f.Threads = "pcr", mf, "unified", 512 },
			api.RunRequest{Kernel: "pcr", Machine: d}},
		{"machine file with scheduler", func(f *Flags) { f.Kernel, f.Machine, f.Sched = "pcr", mf, "gto" },
			api.RunRequest{Kernel: "pcr", Machine: fileGTO}},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := cliFlags()
			c.edit(&f)
			req, err := f.Request()
			if err != nil {
				t.Fatal(err)
			}
			got, err := Resolve(req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Resolve(c.want)
			if err != nil {
				t.Fatal(err)
			}
			if got.Key != want.Key || got.Config != want.Config {
				t.Errorf("flags resolve to %v (key %s), the service request to %v (key %s)",
					got.Config, got.Key, want.Config, want.Key)
			}
		})
	}
}

// TestFlagsErrors checks the flag combinations a command rejects with
// exit status 2.
func TestFlagsErrors(t *testing.T) {
	for _, c := range []struct {
		edit func(*Flags)
		want string
	}{
		{func(f *Flags) {}, "-kernel is required"},
		{func(f *Flags) { f.Kernel, f.Streams = "bfs", "needle+nn" }, "mutually exclusive"},
		{func(f *Flags) { f.Streams = "needle" }, "at least two"},
		{func(f *Flags) { f.Kernel, f.Design = "bfs", "hybrid" }, "unknown design"},
		{func(f *Flags) { f.Kernel, f.Design, f.TotalKB = "bfs", "unified", 0 }, "-total must be positive"},
		{func(f *Flags) { f.Kernel, f.Machine = "bfs", filepath.Join(t.TempDir(), "missing.json") }, "missing.json"},
	} {
		f := cliFlags()
		c.edit(&f)
		if _, err := f.Request(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want it to mention %q", f, err, c.want)
		}
	}
}

// TestFlagsDescription checks the machine a trace replay runs under: the
// partitioned split and thread cap whatever -design says, and the
// -sched override.
func TestFlagsDescription(t *testing.T) {
	f := cliFlags()
	f.Design, f.RFKB, f.Threads, f.Sched = "unified", 128, 256, "gto"
	d, err := f.Description()
	if err != nil {
		t.Fatal(err)
	}
	cfg, params, _, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := config.MemConfig{Design: config.Partitioned, RFBytes: 128 << 10,
		SharedBytes: 64 << 10, CacheBytes: 64 << 10, MaxThreads: 256}
	if cfg != want || params.Scheduler != sched.GTO {
		t.Errorf("trace machine = %v scheduler %q, want %v scheduler gto", cfg, params.Scheduler, want)
	}
}
