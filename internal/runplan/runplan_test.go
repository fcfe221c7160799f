package runplan

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/parallel"
)

// pinRequests are the request bodies whose keys, bodies, and error
// texts internal/serve pins; they seed the resolver fuzzer's corpus.
var pinRequests = []string{
	`{"kernel":"vectoradd"}`,
	`{"streams":[{"kernel":"vectoradd"}]}`,
	`{"streams":[{"kernel":"vectoradd"},{"kernel":"dwthaar1d"}]}`,
	`{"streams":[{"kernel":"vectoradd"},{"kernel":"dwthaar1d"}],"alloc_total_kb":384}`,
	`{"streams":[{"kernel":"vectoradd"},{"kernel":"dwthaar1d"}],"fermi_total_kb":384}`,
	`{"kernel":"nope"}`,
	`{}`,
	`{"streams":[{"kernel":"nope"}]}`,
	`{"streams":[{}]}`,
	`{"kernel":"dgemm","alloc_total_kb":32}`,
	`{"kernel":"dgemm","alloc_total_kb":384}`,
	`{"kernel":"dgemm","alloc_total_kb":384,"machine":{"max_threads":128}}`,
	`{"streams":[{"kernel":"dgemm"}],"alloc_total_kb":32}`,
	`{"kernel":"needle","machine":{"rf_kb":1,"shared_kb":1,"cache_kb":1}}`,
	`{"kernel":"needle","fermi_total_kb":200}`,
	`{"kernel":"needle","fermi_total_kb":384,"alloc_total_kb":384}`,
	`{"streams":[{"kernel":"vectoradd"},{"kernel":"dgemm"}],"alloc_total_kb":64}`,
	`{"streams":[{"kernel":"needle"},{"kernel":"needle"}],"machine":{"rf_kb":1,"shared_kb":1,"cache_kb":1}}`,
	`{"kernel":"needle","bf":32,"regs_per_thread":12,"seed":7,"probe":true}`,
	`{"kernel":"needle","machine":{"design":"unified","rf_kb":128,"shared_kb":64,"cache_kb":192,"timing":{"scheduler":"gto","max_mshrs":8}}}`,
}

// describe spells a resolved run back as a request: the canonical
// machine description (machine.Describe) with the overrides already
// applied, and each stream's resolved kernel, clamped registers, and
// defaulted seed.
func describe(run *Run) api.RunRequest {
	req := api.RunRequest{Machine: run.Canon, Probe: run.Probe, ProbeIntervalCycles: run.ProbeInterval}
	streams := make([]api.StreamRequest, len(run.Streams))
	for i, st := range run.Streams {
		streams[i] = api.StreamRequest{Kernel: st.Kernel.Name, BF: st.Kernel.BF, RegsPerThread: st.Regs, Seed: st.Seed}
	}
	if len(streams) == 1 {
		sr := streams[0]
		req.Kernel, req.BF, req.RegsPerThread, req.Seed = sr.Kernel, sr.BF, sr.RegsPerThread, sr.Seed
	} else {
		req.Streams = streams
	}
	return req
}

// FuzzResolve checks the resolver's contract on arbitrary bodies: a
// request either fails to resolve with an error or yields a key that
// survives resolve -> describe -> resolve unchanged, and resolution
// never panics.
func FuzzResolve(f *testing.F) {
	for _, body := range pinRequests {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var req api.RunRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		run, err := Resolve(req)
		if err != nil {
			return
		}
		again, err := Resolve(describe(run))
		if err != nil {
			t.Fatalf("%s: the described request no longer resolves: %v", body, err)
		}
		if again.Key != run.Key {
			t.Fatalf("%s: key %s, %s after resolve -> describe -> resolve", body, run.Key, again.Key)
		}
	})
}

// TestExecuteMatchesWorkerCount pins the executor's determinism: the
// same matrix (warm-forked items, an infeasible cell, a mix) yields
// identical items under one worker and under eight.
func TestExecuteMatchesWorkerCount(t *testing.T) {
	batch, _, err := Sweep(api.SweepRequest{Kernel: "bfs", Resource: "dramlat", From: 200, To: 400, Step: "100", WarmCycles: 5000})
	if err != nil {
		t.Fatal(err)
	}
	tiny := api.RunRequest{Kernel: "needle"}
	tiny.Machine.RFKB, tiny.Machine.SharedKB, tiny.Machine.CacheKB = 1, 1, 1
	mix := api.RunRequest{Streams: []api.StreamRequest{{Kernel: "vectoradd"}, {Kernel: "dwthaar1d"}}, AllocTotalKB: 384}
	batch.Runs = append(batch.Runs, tiny, mix)

	defer parallel.SetWorkers(parallel.Workers())
	var outs [2]string
	for i, w := range []int{1, 8} {
		parallel.SetWorkers(w)
		runs, err := ResolveBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		items, err := Execute(runs)
		if err != nil {
			t.Fatal(err)
		}
		if got := items[len(items)-2]; got.Error == nil || got.Error.Code != api.CodeInfeasible {
			t.Fatalf("1KB machine item = %+v, want infeasible", got)
		}
		if got := items[0].Result; got == nil || got.WarmCycles != 5000 {
			t.Fatalf("first sweep point = %+v, want a warm fork", items[0])
		}
		b, err := json.Marshal(items)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = string(b)
	}
	if outs[0] != outs[1] {
		t.Error("executor items differ between 1 and 8 workers")
	}
}
