package dispatch

import (
	"math/rand/v2"
	"testing"

	"repro/internal/stats"
)

// bruteMinReady is MinReady/MinReadyOf by a full scan over the warp
// slots in mask: the Ready warp with the oldest wake at or before now,
// lowest slot breaking ties.
func bruteMinReady(d *Dispatcher, now int64, mask uint64) (int, bool) {
	best := -1
	for i := range d.warps {
		if mask>>uint(i)&1 == 0 || d.warps[i].Status != Ready || d.wake[i] > now {
			continue
		}
		if best < 0 || d.wake[i] < d.wake[best] {
			best = i
		}
	}
	return best, best >= 0
}

// bruteMinFutureWake is MinFutureWake by a full scan.
func bruteMinFutureWake(d *Dispatcher, now int64) int64 {
	future := noWake
	for i := range d.warps {
		if d.warps[i].Status == Ready && d.wake[i] > now && d.wake[i] < future {
			future = d.wake[i]
		}
	}
	return future
}

// checkWakeQueries compares every wake query against the brute-force
// scans at cycles around now.
func checkWakeQueries(t *testing.T, d *Dispatcher, now int64, step int) {
	t.Helper()
	for _, at := range []int64{now - 3, now, now + 1, now + 7, now + 40} {
		gotW, gotOK := d.MinReady(at)
		wantW, wantOK := bruteMinReady(d, at, ^uint64(0))
		if gotW != wantW || gotOK != wantOK {
			t.Fatalf("step %d: MinReady(%d) = %d, %v; scan says %d, %v", step, at, gotW, gotOK, wantW, wantOK)
		}
		for s := range d.streams {
			gotW, gotOK := d.MinReadyOf(at, s)
			wantW, wantOK := bruteMinReady(d, at, d.streams[s].mask)
			if gotW != wantW || gotOK != wantOK {
				t.Fatalf("step %d: MinReadyOf(%d, %d) = %d, %v; scan says %d, %v", step, at, s, gotW, gotOK, wantW, wantOK)
			}
		}
		if got, want := d.MinFutureWake(at), bruteMinFutureWake(d, at); got != want {
			t.Fatalf("step %d: MinFutureWake(%d) = %d; scan says %d", step, at, got, want)
		}
	}
}

// pick returns a random warp slot in the given status, or -1.
func pick(r *rand.Rand, d *Dispatcher, status Status) int {
	var slots []int
	for i := range d.warps {
		if d.warps[i].Status == status {
			slots = append(slots, i)
		}
	}
	if len(slots) == 0 {
		return -1
	}
	return slots[r.IntN(len(slots))]
}

// TestWakeQueriesMatchScan drives random launch, Park, Activate,
// Barrier, Exit, and Restore sequences and checks after every step that
// the cached-minimum wake queries answer exactly what a scan over warp
// status and wake cycles does. Single-stream dispatchers exercise
// Restore (into a fresh fork); two-stream ones exercise MinReadyOf.
func TestWakeQueriesMatchScan(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewPCG(seed, 7))
		streams := 1 + int(seed%2)
		specs := make([]StreamSpec, streams)
		for s := range specs {
			specs[s] = StreamSpec{
				Source:       &fakeSource{ctas: 2 + r.IntN(6), warpsPer: 1 + r.IntN(4)},
				ResidentCTAs: 1 + r.IntN(3),
				Counters:     &stats.Counters{},
			}
		}
		d, err := NewMulti(specs)
		if err != nil {
			t.Fatal(err)
		}
		now := int64(r.IntN(5))
		d.Start(now)
		checkWakeQueries(t, d, now, 0)
		var snap *State
		for step := 1; step <= 400 && !d.Done(); step++ {
			now += int64(r.IntN(4))
			switch op := r.IntN(10); {
			case op < 3: // promote like Refill: the oldest due warp
				if w, ok := d.MinReady(now); ok {
					d.Activate(w)
				}
			case op < 4: // promote any ready warp, due or not
				if w := pick(r, d, Ready); w >= 0 {
					d.Activate(w)
				}
			case op < 6:
				if w := pick(r, d, Active); w >= 0 {
					d.Park(w, now+int64(r.IntN(30))-5)
				}
			case op < 7:
				if w := pick(r, d, Active); w >= 0 {
					d.Barrier(w, now)
				}
			case op < 9:
				if w := pick(r, d, Active); w >= 0 {
					d.Exit(w, now)
				}
			default:
				if streams > 1 {
					continue
				}
				if snap == nil || r.IntN(2) == 0 {
					snap = d.Snapshot()
					continue
				}
				fork, err := NewMulti(specs)
				if err != nil {
					t.Fatal(err)
				}
				if err := fork.Restore(snap); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				d = fork
			}
			checkWakeQueries(t, d, now, step)
		}
	}
}
