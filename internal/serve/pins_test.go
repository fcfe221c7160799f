package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/runplan"
)

// TestCanonicalKeyPins pins the literal SHA-256 cache keys of the plain
// and stream spellings. Stored results (the persistent store, job
// resume) are addressed by these keys, so a refactor of request
// resolution must reproduce them exactly or every stored body misses.
func TestCanonicalKeyPins(t *testing.T) {
	for _, tc := range []struct{ body, key string }{
		{`{"kernel":"vectoradd"}`,
			"91fd1036ba484869dbca361d2b2590aafdd5c7fc9ab787dcfc2e87e98118de20"},
		{`{"streams":[{"kernel":"vectoradd"}]}`,
			"91fd1036ba484869dbca361d2b2590aafdd5c7fc9ab787dcfc2e87e98118de20"},
		{`{"streams":[{"kernel":"vectoradd"},{"kernel":"dwthaar1d"}]}`,
			"ec29917c6469f7eebbd1f7543b941c74fb506ab016c65cb644d8338ab2cea19f"},
		{`{"streams":[{"kernel":"vectoradd"},{"kernel":"dwthaar1d"}],"alloc_total_kb":384}`,
			"d8ea4e105b3073363dac5a131a917d5a7517e8db2c350f84be6bdd4fa42efb03"},
		{`{"streams":[{"kernel":"vectoradd"},{"kernel":"dwthaar1d"}],"fermi_total_kb":384}`,
			"656c68faa6a673bcede48455e3f4bc9510e0de277113ea23599633b0fcfbb97f"},
	} {
		var req api.RunRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatal(err)
		}
		rr, err := runplan.Resolve(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if rr.Key != tc.key {
			t.Errorf("%s: key %s, want %s", tc.body, rr.Key, tc.key)
		}
	}
}

// TestRunErrorText pins the exact 4xx bodies of single-kernel requests
// (in both spellings) and of mix-level allocation failures.
func TestRunErrorText(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct {
		body   string
		status int
		want   string
	}{
		{`{"kernel":"nope"}`, 400,
			`{"error":{"code":"bad_request","message":"workloads: unknown benchmark \"nope\""}}`},
		{`{}`, 400,
			`{"error":{"code":"bad_request","message":"missing \"kernel\" (GET /v1/kernels lists the registry)"}}`},
		{`{"streams":[{"kernel":"nope"}]}`, 400,
			`{"error":{"code":"bad_request","message":"workloads: unknown benchmark \"nope\""}}`},
		{`{"streams":[{}]}`, 400,
			`{"error":{"code":"bad_request","message":"missing \"kernel\" (GET /v1/kernels lists the registry)"}}`},
		{`{"kernel":"dgemm","alloc_total_kb":32}`, 400,
			`{"error":{"code":"bad_request","message":"config: one CTA needs 75392 bytes, unified memory has 32768: kernel does not fit the available capacity"}}`},
		{`{"kernel":"dgemm","alloc_total_kb":384,"machine":{"max_threads":128}}`, 400,
			`{"error":{"code":"bad_request","message":"config: CTA size 256 exceeds thread limit 128: kernel does not fit the available capacity"}}`},
		{`{"streams":[{"kernel":"dgemm"}],"alloc_total_kb":32}`, 400,
			`{"error":{"code":"bad_request","message":"config: one CTA needs 75392 bytes, unified memory has 32768: kernel does not fit the available capacity"}}`},
		{`{"kernel":"needle","machine":{"rf_kb":1,"shared_kb":1,"cache_kb":1}}`, 422,
			`{"error":{"code":"infeasible","message":"core: needle does not fit partitioned rf=1K shm=1K $=1K (limiter none-fit)"}}`},
		{`{"kernel":"needle","fermi_total_kb":200}`, 400,
			`{"error":{"code":"bad_request","message":"fermi_total_kb must exceed the fixed 256KB register file"}}`},
		{`{"kernel":"needle","fermi_total_kb":384,"alloc_total_kb":384}`, 400,
			`{"error":{"code":"bad_request","message":"at most one of alloc_total_kb and fermi_total_kb"}}`},
		{`{"streams":[{"kernel":"vectoradd"},{"kernel":"dgemm"}],"alloc_total_kb":64}`, 400,
			`{"error":{"code":"bad_request","message":"config: stream 1 does not fit alongside its co-tenants in 65536 bytes: kernel does not fit the available capacity"}}`},
		{`{"streams":[{"kernel":"needle"},{"kernel":"needle"}],"machine":{"rf_kb":1,"shared_kb":1,"cache_kb":1}}`, 422,
			`{"error":{"code":"infeasible","message":"core: needle does not fit partitioned rf=1K shm=1K $=1K (limiter none-fit)"}}`},
	} {
		resp, body := do(t, ts, http.MethodPost, "/v1/run", tc.body)
		if got := strings.TrimSuffix(string(body), "\n"); resp.StatusCode != tc.status || got != tc.want {
			t.Errorf("%s:\n got %d %s\nwant %d %s", tc.body, resp.StatusCode, got, tc.status, tc.want)
		}
	}
}

// TestResponseBodyPins pins the SHA-256 of whole response bodies: the
// plain response shape (no streams field), a probed single-kernel run
// under the unified design (energy calibrated on the kernel's baseline),
// and two-stream mixes (per-stream records, self-calibrated energy).
func TestResponseBodyPins(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct{ body, sum string }{
		{`{"kernel":"vectoradd"}`,
			"b53ad570eda132a33a16aefd798bb256c33241fbad75b4de6b26ec07bc506a02"},
		{`{"kernel":"needle","probe":true,"alloc_total_kb":384}`,
			"eea7a4f97d2e541cb8e75e98387bef4d078ca1136483aa63f57032e12d1012c5"},
		{`{"streams":[{"kernel":"vectoradd"},{"kernel":"dwthaar1d"}],"probe":true}`,
			"d43c6bb9246c5776848631f2d572eeeb77c79aea74aee7468d862ec399ae3587"},
		{`{"streams":[{"kernel":"vectoradd"},{"kernel":"dwthaar1d"}],"fermi_total_kb":384}`,
			"3c387a6861a42204fed1fe5e98966a1e4c402ffb1b9b2cb86ce75cd49ea23e40"},
	} {
		resp, body := do(t, ts, http.MethodPost, "/v1/run", tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", tc.body, resp.StatusCode, body)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(body)); got != tc.sum {
			t.Errorf("%s: body sha256 %s, want %s\n%s", tc.body, got, tc.sum, body)
		}
	}
}
