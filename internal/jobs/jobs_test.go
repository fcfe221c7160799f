package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/api"
)

// testSpec is the synthetic job request the test callbacks understand.
type testSpec struct {
	N    int   `json:"n"`
	Fail []int `json:"fail,omitempty"` // item indexes that settle 422
}

// testResolve builds an N-item plan whose final body joins item bodies.
func testResolve(request []byte) (Plan, error) {
	var spec testSpec
	if err := json.Unmarshal(request, &spec); err != nil {
		return Plan{}, err
	}
	if spec.N < 1 {
		return Plan{}, fmt.Errorf("bad spec: n must be positive")
	}
	items := make([]Item, spec.N)
	for i := range items {
		items[i] = Item{Index: i, Key: fmt.Sprintf("key-%d", i)}
	}
	return Plan{
		Type:  "batch",
		Note:  fmt.Sprintf("test batch of %d", spec.N),
		Items: items,
		Assemble: func(statuses []int, bodies [][]byte) (int, []byte) {
			return http.StatusOK, bytes.Join(bodies, []byte(","))
		},
	}, nil
}

// plainExec settles items instantly; failSet items settle 422.
func plainExec(failSet map[int]bool) Exec {
	return func(ctx context.Context, it Item, ic *ItemContext) (int, []byte, string) {
		if failSet[it.Index] {
			return http.StatusUnprocessableEntity, []byte(fmt.Sprintf("err%d", it.Index)), "miss"
		}
		return http.StatusOK, []byte(fmt.Sprintf("b%d", it.Index)), "miss"
	}
}

func submitSpec(t *testing.T, e *Engine, spec testSpec) api.Job {
	t.Helper()
	body, _ := json.Marshal(spec)
	job, err := e.Submit(body)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func waitTerminal(t *testing.T, e *Engine, id string) api.Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := e.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return api.Job{}
}

func TestJobLifecycle(t *testing.T) {
	e, err := New(Options{Resolve: testResolve, Exec: plainExec(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	job := submitSpec(t, e, testSpec{N: 3})
	if job.State != api.JobQueued || job.Progress.Total != 3 {
		t.Fatalf("submit view = %+v", job)
	}
	done := waitTerminal(t, e, job.ID)
	if done.State != api.JobDone || done.Progress.Done != 3 || done.Error != nil {
		t.Fatalf("terminal view = %+v", done)
	}
	status, body, err := e.Result(job.ID)
	if err != nil || status != http.StatusOK {
		t.Fatalf("Result = %d, %v", status, err)
	}
	if string(body) != "b0,b1,b2" {
		t.Errorf("result body = %q", body)
	}
	stats := e.Stats()
	if stats.Submitted != 1 || stats.Done != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestItemErrorsCountButDontFailBatch(t *testing.T) {
	e, err := New(Options{Resolve: testResolve, Exec: plainExec(map[int]bool{1: true})})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	job := submitSpec(t, e, testSpec{N: 3})
	done := waitTerminal(t, e, job.ID)
	if done.State != api.JobDone || done.Progress.Errors != 1 {
		t.Fatalf("terminal view = %+v, want done with 1 item error", done)
	}
	_, body, _ := e.Result(job.ID)
	if string(body) != "b0,err1,b2" {
		t.Errorf("result body = %q", body)
	}
}

func TestSubmitRejectsBadSpec(t *testing.T) {
	e, err := New(Options{Resolve: testResolve, Exec: plainExec(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Submit([]byte(`{"n":0}`)); err == nil {
		t.Fatal("Submit of an invalid spec succeeded")
	}
	if len(e.List()) != 0 {
		t.Error("rejected submit left a job behind")
	}
	if _, ok := e.Get("j1"); ok {
		t.Error("rejected submit is Gettable")
	}
}

// TestEventOrderDeterministic pins the reorder buffer: item events
// arrive in index order with monotone done counts even though execution
// finishes in reverse.
func TestEventOrderDeterministic(t *testing.T) {
	const n = 6
	release := make(chan struct{})
	exec := func(ctx context.Context, it Item, ic *ItemContext) (int, []byte, string) {
		<-release
		// Higher indexes return sooner.
		time.Sleep(time.Duration(n-it.Index) * 3 * time.Millisecond)
		return http.StatusOK, []byte(fmt.Sprintf("b%d", it.Index)), "miss"
	}
	e, err := New(Options{Resolve: testResolve, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	job := submitSpec(t, e, testSpec{N: n})
	sub, ok := e.Subscribe(job.ID)
	if !ok {
		t.Fatal("Subscribe failed")
	}
	defer sub.Close()
	close(release)

	var items []api.JobItemEvent
	collect := func(ev Event) {
		if ev.Type != api.EventItem {
			return
		}
		var ie api.JobItemEvent
		if err := json.Unmarshal(ev.Data, &ie); err != nil {
			t.Fatal(err)
		}
		items = append(items, ie)
	}
	for _, ev := range sub.Replay {
		collect(ev)
	}
	for ev := range sub.C {
		collect(ev)
	}
	if len(items) != n {
		t.Fatalf("saw %d item events, want %d", len(items), n)
	}
	for i, ie := range items {
		if ie.Index != i || ie.Done != i+1 || ie.Total != n {
			t.Errorf("item event %d = %+v, want index %d done %d", i, ie, i, i+1)
		}
	}
}

func TestSubscribeReplaysTerminalJob(t *testing.T) {
	e, err := New(Options{Resolve: testResolve, Exec: plainExec(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	job := submitSpec(t, e, testSpec{N: 2})
	waitTerminal(t, e, job.ID)
	sub, ok := e.Subscribe(job.ID)
	if !ok {
		t.Fatal("Subscribe failed")
	}
	defer sub.Close()
	if _, open := <-sub.C; open {
		t.Error("terminal job's live channel not closed")
	}
	var last Event
	for _, ev := range sub.Replay {
		last = ev
	}
	if last.Type != api.EventDone {
		t.Errorf("replay ends with %q, want done", last.Type)
	}
}

func TestCancel(t *testing.T) {
	started := make(chan struct{}, 1)
	exec := func(ctx context.Context, it Item, ic *ItemContext) (int, []byte, string) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return http.StatusRequestTimeout, []byte("cancelled"), "miss"
	}
	e, err := New(Options{Resolve: testResolve, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	job := submitSpec(t, e, testSpec{N: 1})
	<-started
	if _, ok := e.Cancel(job.ID); !ok {
		t.Fatal("Cancel failed")
	}
	done := waitTerminal(t, e, job.ID)
	if done.State != api.JobCancelled {
		t.Fatalf("state = %s, want cancelled", done.State)
	}
	if done.Error == nil || done.Error.Code != api.CodeCancelled {
		t.Errorf("error = %+v, want cancelled envelope", done.Error)
	}
	if e.Stats().Cancelled != 1 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func TestResultNotReady(t *testing.T) {
	block := make(chan struct{})
	exec := func(ctx context.Context, it Item, ic *ItemContext) (int, []byte, string) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return http.StatusOK, []byte("b"), "miss"
	}
	e, err := New(Options{Resolve: testResolve, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	job := submitSpec(t, e, testSpec{N: 1})
	if _, _, err := e.Result(job.ID); err != ErrNotReady {
		t.Errorf("Result while running = %v, want ErrNotReady", err)
	}
	if _, _, err := e.Result("j999"); err != ErrNotFound {
		t.Errorf("Result of unknown = %v, want ErrNotFound", err)
	}
	close(block)
	waitTerminal(t, e, job.ID)
}

// TestKillResume is the engine-level durability contract: an engine
// closed mid-job leaves a resumable record; a new engine on the same
// directory re-enters the job and finishes it.
func TestKillResume(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	blockingExec := func(ctx context.Context, it Item, ic *ItemContext) (int, []byte, string) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done() // block until the engine aborts us
		return http.StatusRequestTimeout, []byte("killed"), "miss"
	}
	e1, err := New(Options{Dir: dir, Resolve: testResolve, Exec: blockingExec})
	if err != nil {
		t.Fatal(err)
	}
	job := submitSpec(t, e1, testSpec{N: 2})
	<-started
	e1.Close() // the "SIGKILL": abandon without terminal state

	// The record must still say running (not a terminal state).
	data, err := os.ReadFile(filepath.Join(dir, job.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"state":"running"`) {
		t.Fatalf("abandoned record = %s, want state running", data)
	}

	e2, err := New(Options{Dir: dir, Resolve: testResolve, Exec: plainExec(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Stats().Resumed != 1 {
		t.Fatalf("stats after reopen = %+v, want 1 resumed", e2.Stats())
	}
	done := waitTerminal(t, e2, job.ID)
	if done.State != api.JobDone || done.Resumes != 1 {
		t.Fatalf("resumed job = %+v, want done with resumes=1", done)
	}
	status, body, err := e2.Result(job.ID)
	if err != nil || status != http.StatusOK || string(body) != "b0,b1" {
		t.Fatalf("resumed result = %d %q %v", status, body, err)
	}

	// A third engine sees the terminal record as history, result intact.
	e3, err := New(Options{Dir: dir, Resolve: testResolve, Exec: plainExec(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if e3.Stats().Resumed != 0 {
		t.Error("terminal job resumed again")
	}
	status, body, err = e3.Result(job.ID)
	if err != nil || status != http.StatusOK || string(body) != "b0,b1" {
		t.Fatalf("history result = %d %q %v", status, body, err)
	}
}

// TestResultWriteFailureResumes pins finish's commit order under a
// failed result write: the job completes in memory, but its record must
// stay non-terminal, so a restarted engine resumes it and serves the
// result instead of reporting done with an unreadable result.
func TestResultWriteFailureResumes(t *testing.T) {
	dir := t.TempDir()
	// A directory where the result file goes makes its write fail.
	blocked := filepath.Join(dir, "j1.result.json")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	e1, err := New(Options{Dir: dir, Resolve: testResolve, Exec: plainExec(nil)})
	if err != nil {
		t.Fatal(err)
	}
	job := submitSpec(t, e1, testSpec{N: 2})
	if job.ID != "j1" {
		t.Fatalf("job id = %s, want j1", job.ID)
	}
	if done := waitTerminal(t, e1, job.ID); done.State != api.JobDone {
		t.Fatalf("job = %+v, want done", done)
	}
	if status, body, err := e1.Result(job.ID); err != nil || status != http.StatusOK || string(body) != "b0,b1" {
		t.Fatalf("in-memory result = %d %q %v", status, body, err)
	}
	e1.Close()
	data, err := os.ReadFile(filepath.Join(dir, job.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"state":"running"`) {
		t.Fatalf("record after failed result write = %s, want state running", data)
	}

	if err := os.RemoveAll(blocked); err != nil {
		t.Fatal(err)
	}
	e2, err := New(Options{Dir: dir, Resolve: testResolve, Exec: plainExec(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Stats().Resumed != 1 {
		t.Fatalf("stats after reopen = %+v, want 1 resumed", e2.Stats())
	}
	if done := waitTerminal(t, e2, job.ID); done.State != api.JobDone {
		t.Fatalf("resumed job = %+v, want done", done)
	}
	if status, body, err := e2.Result(job.ID); err != nil || status != http.StatusOK || string(body) != "b0,b1" {
		t.Fatalf("resumed result = %d %q %v", status, body, err)
	}
}

// TestNewJobIDsContinueAfterRestart pins id allocation across restarts:
// ids never collide with persisted jobs.
func TestNewJobIDsContinueAfterRestart(t *testing.T) {
	dir := t.TempDir()
	e1, err := New(Options{Dir: dir, Resolve: testResolve, Exec: plainExec(nil)})
	if err != nil {
		t.Fatal(err)
	}
	j1 := submitSpec(t, e1, testSpec{N: 1})
	waitTerminal(t, e1, j1.ID)
	e1.Close()

	e2, err := New(Options{Dir: dir, Resolve: testResolve, Exec: plainExec(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	j2 := submitSpec(t, e2, testSpec{N: 1})
	if j2.ID == j1.ID {
		t.Fatalf("restarted engine reused job id %s", j2.ID)
	}
	if jobNum(j2.ID) <= jobNum(j1.ID) {
		t.Errorf("job ids not monotone across restart: %s then %s", j1.ID, j2.ID)
	}
}

func TestSingleItemFailureFailsJob(t *testing.T) {
	resolve := func(request []byte) (Plan, error) {
		return Plan{
			Type:     "run",
			Items:    []Item{{Index: 0, Key: "k"}},
			Assemble: func(st []int, bd [][]byte) (int, []byte) { return st[0], bd[0] },
		}, nil
	}
	body := []byte(`{"error":{"code":"infeasible","message":"does not fit"}}`)
	exec := func(ctx context.Context, it Item, ic *ItemContext) (int, []byte, string) {
		return http.StatusUnprocessableEntity, body, "miss"
	}
	e, err := New(Options{Resolve: resolve, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	job, err := e.Submit([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, e, job.ID)
	if done.State != api.JobFailed {
		t.Fatalf("state = %s, want failed", done.State)
	}
	if done.Error == nil || done.Error.Code != api.CodeInfeasible {
		t.Errorf("error = %+v, want the item's envelope code", done.Error)
	}
	status, got, err := e.Result(job.ID)
	if err != nil || status != http.StatusUnprocessableEntity || !bytes.Equal(got, body) {
		t.Fatalf("Result = %d %q %v, want the item's bytes", status, got, err)
	}
}
