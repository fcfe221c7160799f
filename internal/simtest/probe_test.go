package simtest

import (
	"bytes"
	"testing"

	"repro/internal/probe"
	"repro/internal/sm"
)

// TestProbeStreamAcrossSnapshot pins the observability contract across a
// snapshot boundary: the NDJSON stream of (parent run to K, fork runs to
// completion) concatenated is byte-identical to the stream of a fresh
// probed run from cycle 0 — meta record, every interval record, and the
// summary. The snapshot cycle is deliberately not interval-aligned, so
// the partially filled window must cross the boundary intact.
func TestProbeStreamAcrossSnapshot(t *testing.T) {
	t.Parallel()
	c := Case{Kernel: "matrixmul", SnapCycle: 1333}
	spec, err := c.Spec()
	if err != nil {
		t.Fatal(err)
	}
	const interval = 512

	// Fresh probed run, cycle 0 to completion.
	var freshBuf bytes.Buffer
	freshSpec := spec
	freshSpec.Probe = probe.New(interval, &freshBuf)
	fresh, err := sm.NewSM(freshSpec)
	if err != nil {
		t.Fatal(err)
	}
	freshCounters, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := freshSpec.Probe.WriteErr(); err != nil {
		t.Fatal(err)
	}

	// Probed parent to K, snapshot, probed fork to completion.
	var parentBuf, forkBuf bytes.Buffer
	parentSpec := spec
	parentSpec.Probe = probe.New(interval, &parentBuf)
	parent, err := sm.NewSM(parentSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.RunTo(c.SnapCycle); err != nil {
		t.Fatal(err)
	}
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Probe == nil {
		t.Fatal("snapshot of a probed run carries no probe state")
	}
	forkSpec := spec
	forkSpec.Probe = probe.Restore(snap.Probe, &forkBuf)
	fork, err := sm.Fork(forkSpec, snap)
	if err != nil {
		t.Fatal(err)
	}
	forkCounters, err := fork.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := forkSpec.Probe.WriteErr(); err != nil {
		t.Fatal(err)
	}

	if d := DiffCounters(freshCounters, forkCounters); d != "" {
		t.Errorf("probed fork counters diverged from fresh probed run: %s", d)
	}
	joined := append(append([]byte(nil), parentBuf.Bytes()...), forkBuf.Bytes()...)
	if !bytes.Equal(freshBuf.Bytes(), joined) {
		t.Errorf("NDJSON stream across snapshot boundary is not byte-identical to fresh stream:\nfresh (%d bytes):\n%s\nparent+fork (%d+%d bytes):\n%s",
			freshBuf.Len(), freshBuf.String(), parentBuf.Len(), forkBuf.Len(), joined)
	}
	if parentBuf.Len() == 0 {
		t.Error("parent emitted no NDJSON before the snapshot (boundary not exercised)")
	}
	// The probe's in-memory time series must agree too: the fork's
	// restored probe accumulates the parent's closed intervals plus its
	// own continuation.
	fi, ki := freshSpec.Probe.Intervals(), forkSpec.Probe.Intervals()
	if len(fi) != len(ki) {
		t.Fatalf("interval series lengths differ: fresh %d, fork %d", len(fi), len(ki))
	}
	for i := range fi {
		if fi[i] != ki[i] {
			t.Errorf("interval %d differs: fresh %+v, fork %+v", i, fi[i], ki[i])
		}
	}
	// The per-stream tallies carry across the snapshot too.
	if f, k := freshSpec.Probe.StreamIssued(0), forkSpec.Probe.StreamIssued(0); f != k || k != forkSpec.Probe.Issued() {
		t.Errorf("stream 0 issued: fresh %d, fork %d (fork total %d)", f, k, forkSpec.Probe.Issued())
	}
	if f, k := freshSpec.Probe.StreamStalls(0), forkSpec.Probe.StreamStalls(0); f != k {
		t.Errorf("stream 0 stalls: fresh %v, fork %v", f, k)
	}
}

// TestForkProbednessGuard pins the probe/fork interlock: a probed
// snapshot cannot be forked unprobed (the stream would silently
// truncate) and an unprobed snapshot cannot grow a probe (its first
// intervals would be missing).
func TestForkProbednessGuard(t *testing.T) {
	t.Parallel()
	c := Case{Kernel: "vectoradd", SnapCycle: 200}
	spec, err := c.Spec()
	if err != nil {
		t.Fatal(err)
	}
	parent, err := sm.NewSM(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.RunTo(c.SnapCycle); err != nil {
		t.Fatal(err)
	}
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	probed := spec
	probed.Probe = probe.New(0, nil)
	if _, err := sm.Fork(probed, snap); err == nil {
		t.Error("Fork attached a probe to an unprobed snapshot")
	}
}
