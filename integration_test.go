package repro_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runTool executes one of the module's commands via `go run`.
func runTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// cliPins are run-CLI invocations whose stdout is pinned byte for byte
// under testdata/cli/<name>.txt: one per smsim design and report shape
// (plain kernel and mix, flags and machine file) and both chipsim
// shapes. "MACHINE" stands for the default machine file smsim
// -emit-machine writes.
var cliPins = []struct {
	name string
	tool string
	args []string
}{
	{"smsim-baseline", "smsim", []string{"-kernel", "needle"}},
	{"smsim-unified", "smsim", []string{"-kernel", "needle", "-design", "unified"}},
	{"smsim-fermi", "smsim", []string{"-kernel", "bfs", "-design", "fermi"}},
	{"smsim-streams", "smsim", []string{"-streams", "vectoradd+dwthaar1d", "-design", "unified"}},
	{"smsim-machine-roundtrip", "smsim", []string{"-kernel", "pcr", "-machine", "MACHINE"}},
	{"chipsim", "chipsim", []string{"-kernel", "vectoradd", "-sms", "2"}},
	{"chipsim-streams", "chipsim", []string{"-streams", "vectoradd+needle", "-sms", "4"}},
}

// TestCLISmoke exercises every command end to end. It compiles and runs
// each tool, so it is skipped in -short mode.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "bin")
	if out, err := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/smsim", "./cmd/smprof", "./cmd/chipsim").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// run executes a built tool, returning its stdout, its stderr, and
	// its exit status.
	run := func(t *testing.T, tool string, args ...string) (stdout, stderr string, status int) {
		t.Helper()
		var so, se bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		cmd.Stdout, cmd.Stderr = &so, &se
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case errors.As(err, &exit):
			status = exit.ExitCode()
		case err != nil:
			t.Fatalf("%s: %v", tool, err)
		}
		return so.String(), se.String(), status
	}
	machineFile := filepath.Join(tmp, "machine.json")
	if _, stderr, status := run(t, "smsim", "-emit-machine", machineFile); status != 0 {
		t.Fatalf("smsim -emit-machine: exit %d\n%s", status, stderr)
	}

	t.Run("smsim-list", func(t *testing.T) {
		out, _, _ := run(t, "smsim", "-list")
		for _, want := range []string{"needle", "dgemm", "register limited"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in -list output", want)
			}
		}
	})

	for _, pin := range cliPins {
		t.Run(pin.name, func(t *testing.T) {
			args := append([]string(nil), pin.args...)
			for i, a := range args {
				if a == "MACHINE" {
					args[i] = machineFile
				}
			}
			got, stderr, status := run(t, pin.tool, args...)
			if status != 0 {
				t.Fatalf("%s %s: exit %d\n%s", pin.tool, strings.Join(args, " "), status, stderr)
			}
			path := filepath.Join("testdata", "cli", pin.name+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s %s diverged from %s\n--- got ---\n%s--- want ---\n%s",
					pin.tool, strings.Join(args, " "), path, got, want)
			}
		})
	}

	// A Fermi-like total at or below the fixed register file leaves no
	// shared memory or cache: the CLIs reject it as the service does.
	for _, c := range []struct{ name, tool, total string }{
		{"smsim-fermi-rejected", "smsim", "200"},
		{"smprof-fermi-rejected", "smprof", "256"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, stderr, status := run(t, c.tool, "-kernel", "bfs", "-design", "fermi", "-total", c.total)
			const want = "fermi_total_kb must exceed the fixed 256KB register file"
			if status != 2 || !strings.Contains(stderr, want) {
				t.Errorf("%s -total %s: exit %d, stderr %q; want exit 2 and %q\n%s",
					c.tool, c.total, status, stderr, want, out)
			}
		})
	}

	t.Run("paper-figure8", func(t *testing.T) {
		out := runTool(t, "./cmd/paper", "figure8")
		if !strings.Contains(out, "228K") { // dgemm's register file
			t.Errorf("figure8 output missing the dgemm allocation:\n%s", out)
		}
	})

	t.Run("paper-csv", func(t *testing.T) {
		out := runTool(t, "./cmd/paper", "-csv", "table4")
		if !strings.HasPrefix(out, "structure,") || !strings.Contains(out, "12.1") {
			t.Errorf("CSV output wrong:\n%s", out)
		}
	})

	t.Run("sweep", func(t *testing.T) {
		out := runTool(t, "./cmd/sweep", "-kernel", "nn", "-resource", "cache", "-from", "32", "-to", "64")
		if !strings.Contains(out, "32K") || !strings.Contains(out, "64K") {
			t.Errorf("sweep output missing points:\n%s", out)
		}
	})

	t.Run("trace-workflow", func(t *testing.T) {
		tf := filepath.Join(tmp, "vec.trc")
		out := runTool(t, "./cmd/tracegen", "-kernel", "vectoradd", "-o", tf)
		if !strings.Contains(out, "instructions") {
			t.Errorf("tracegen output: %s", out)
		}
		out = runTool(t, "./cmd/tracestat", tf)
		if !strings.Contains(out, "Instruction mix") || !strings.Contains(out, "LDG") {
			t.Errorf("tracestat output:\n%s", out)
		}
		out, _, _ = run(t, "smsim", "-trace", tf, "-resident", "4")
		if !strings.Contains(out, "replayed") {
			t.Errorf("replay output:\n%s", out)
		}
	})
}
