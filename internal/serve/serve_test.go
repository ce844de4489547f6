package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"dpflow/internal/exec"
)

// newTestServer spins up a server on a dedicated 2-worker executor so
// goroutine accounting stays local to the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	ex := exec.New(2)
	cfg.Executor = ex
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		ex.Close()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec JobSpec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	if out["id"] == "" {
		t.Fatal("submit returned no job id")
	}
	return out["id"]
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	return st
}

func isTerminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

func waitJob(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if isTerminal(st.State) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Status{}
}

func TestSubmitRegistryJob(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := submit(t, ts, JobSpec{Tenant: "t1", Benchmark: "ge", N: 64, Base: 16, MemoryBytes: 1 << 20})
	st := waitJob(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	if !st.Verified {
		t.Fatal("job finished but not verified")
	}
	if st.Stats == nil || st.Stats.StepsDone == 0 {
		t.Fatalf("stats missing or empty: %+v", st.Stats)
	}
	if st.Tenant != "t1" {
		t.Fatalf("tenant = %q", st.Tenant)
	}
	// The server keeps finished jobs for status queries; it must not keep
	// their graphs (item stores and all) alive with them.
	j := s.jobByID(id)
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.haveFinal || j.graph != nil {
		t.Fatalf("finished job: haveFinal=%v, still holds its graph: %v", j.haveFinal, j.graph != nil)
	}
}

// Every variant token runs through the service, fork-join included (the
// pool leases from the same shared executor).
func TestAllVariants(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, variant := range []string{"cnc", "tuner", "manual", "nonblocking", "openmp", "serial_rdp"} {
		id := submit(t, ts, JobSpec{Benchmark: "ge", Variant: variant, N: 32, Base: 8})
		st := waitJob(t, ts, id)
		if st.State != StateDone || !st.Verified {
			t.Fatalf("variant %s: state=%s verified=%v err=%q", variant, st.State, st.Verified, st.Error)
		}
	}
}

// A dynamic fork-join spec expands into concurrently running children —
// different benchmarks and execution models in one submission — and the
// root completes when all children verify.
func TestDynamicForkJoinSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := submit(t, ts, JobSpec{
		Tenant: "t1",
		Fork: []JobSpec{
			{Benchmark: "ge", N: 32, Base: 8, MemoryBytes: 1 << 18},
			{Benchmark: "sw", N: 32, Base: 8, Variant: "openmp"},
			{Fork: []JobSpec{ // nested fork node
				{Benchmark: "fw", N: 32, Base: 8, Variant: "tuner"},
			}},
		},
	})
	st := waitJob(t, ts, id)
	if st.State != StateDone || !st.Verified {
		t.Fatalf("root state=%s verified=%v err=%q", st.State, st.Verified, st.Error)
	}
	if len(st.Children) != 3 {
		t.Fatalf("children = %d, want 3", len(st.Children))
	}
	for _, c := range st.Children {
		if c.State != StateDone || !c.Verified {
			t.Fatalf("child %s: state=%s verified=%v err=%q", c.ID, c.State, c.Verified, c.Error)
		}
		if c.Tenant != "t1" {
			t.Fatalf("child %s did not inherit tenant: %q", c.ID, c.Tenant)
		}
	}
}

func TestBadSpecsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A fork of maxJobs leaves is maxJobs+1 jobs, one over the cap.
	leaves := strings.TrimSuffix(strings.Repeat(`{"benchmark":"ge","n":32},`, maxJobs), ",")
	for _, bad := range []struct{ spec, names string }{
		{`{"benchmark":"nope","n":32}`, ""},                   // unknown benchmark
		{`{"benchmark":"ge"}`, "n 0"},                         // missing n
		{`{"benchmark":"ge","n":100}`, "n 100"},               // n no benchmark can split
		{`{"benchmark":"ge","n":32,"variant":"what"}`, ""},    // unknown variant
		{`{"benchmark":"ge","n":32,"variant":"serial"}`, ""},  // a variant the registry does not drive
		{`{"benchmark":"ge","n":32,"fork":[{"n":1}]}`, ""},    // leaf and fork at once
		{`{"fork":[{"benchmark":"ge"}]}`, "n 0"},              // child missing n
		{`{"benchmark":"ge","n":32,"unknown_field":"x"}`, ""}, // unknown field
		{`{"benchmark":"ge","n":32,"workers":-1}`, "workers"},
		{`{"benchmark":"ge","n":32,"deadline_ms":-1}`, "deadline_ms"},
		{`{"benchmark":"ge","n":32,"memory_bytes":-1}`, "memory_bytes"},
		{`{"benchmark":"ge","n":32,"base":-1}`, "base"},
		{`{"fork":[` + leaves + `]}`, "more than 256 jobs"},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(bad.spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %s accepted with status %d", bad.spec, resp.StatusCode)
		}
		if !strings.Contains(string(body), bad.names) {
			t.Fatalf("spec %s refused with %q, which does not name %q", bad.spec, body, bad.names)
		}
	}
	// Nothing was registered.
	resp, _ := http.Get(ts.URL + "/jobs")
	var jobs []Status
	json.NewDecoder(resp.Body).Decode(&jobs)
	resp.Body.Close()
	if len(jobs) != 0 {
		t.Fatalf("rejected specs left %d jobs behind", len(jobs))
	}
}

func TestCancelJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Big enough to still be running when the cancel lands.
	id := submit(t, ts, JobSpec{Benchmark: "ge", N: 512, Base: 8})
	resp, err := http.Post(ts.URL+"/jobs/"+id+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitJob(t, ts, id)
	// The job may have won the race and finished; both are valid terminal
	// outcomes, but a cancel that landed must report StateCancelled.
	if st.State != StateCancelled && st.State != StateDone {
		t.Fatalf("state after cancel = %s (err %q)", st.State, st.Error)
	}
}

func TestDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := submit(t, ts, JobSpec{Benchmark: "ge", N: 512, Base: 8, DeadlineMS: 1})
	st := waitJob(t, ts, id)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed (deadline)", st.State)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", st.Error)
	}
}

// opaqueCtx is a parent context the context package cannot see into, so
// every context derived from it holds a goroutine until one of the two is
// done: a derived context left uncancelled shows up as a goroutine.
type opaqueCtx struct{ done chan struct{} }

func (opaqueCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c opaqueCtx) Done() <-chan struct{}     { return c.done }
func (c opaqueCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}
func (opaqueCtx) Value(any) any { return nil }

// A job with a deadline derives one context from its parent and cancels it
// when it finishes: nothing it derived stays registered on the parent.
func TestDeadlineJobReleasesItsContext(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	parent := opaqueCtx{done: make(chan struct{})}
	defer close(parent.done)
	spec := JobSpec{Benchmark: "ge", N: 16, Base: 8, DeadlineMS: 60_000}
	var count int
	if err := s.validate(&spec, &count); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		s.mu.Lock()
		j := s.buildLocked(spec)
		s.mu.Unlock()
		j.run(parent)
		if j.state != StateDone {
			t.Fatalf("job %d: state %s (err %v)", i, j.state, j.err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after 5 deadline jobs, %d before: a derived context was never cancelled",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Two jobs whose reservations cannot coexist under the budget both finish:
// the second waits for the first's release (backpressure, not failure).
func TestAdmissionSerialisesOverBudgetJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Budget: 100})
	a := submit(t, ts, JobSpec{Tenant: "a", Benchmark: "ge", N: 64, Base: 16, MemoryBytes: 60})
	b := submit(t, ts, JobSpec{Tenant: "b", Benchmark: "ge", N: 64, Base: 16, MemoryBytes: 60})
	sa, sb := waitJob(t, ts, a), waitJob(t, ts, b)
	if sa.State != StateDone || sb.State != StateDone {
		t.Fatalf("states = %s/%s, want done/done", sa.State, sb.State)
	}
	as := s.Admission().Stats()
	if as.Admitted != 2 || as.Released != 2 || as.Reserved != 0 {
		t.Fatalf("admission stats: %+v", as)
	}
	if as.Degradations != 0 {
		t.Fatalf("in-budget jobs degraded: %+v", as)
	}
}

// A reservation larger than the budget still runs — force-admitted once
// the process drains, and the degradation is visible in the job status
// and the metrics.
func TestOversizedJobDegrades(t *testing.T) {
	_, ts := newTestServer(t, Config{Budget: 100})
	id := submit(t, ts, JobSpec{Benchmark: "ge", N: 32, Base: 8, MemoryBytes: 500})
	st := waitJob(t, ts, id)
	if st.State != StateDone || !st.Verified {
		t.Fatalf("state=%s verified=%v err=%q", st.State, st.Verified, st.Error)
	}
	if !st.Degraded {
		t.Fatal("over-budget admission not reported as degraded")
	}
	body := scrapeMetrics(t, ts)
	if !strings.Contains(body, "dpserve_admission_degradations_total 1") {
		t.Fatalf("metrics missing the degradation:\n%s", body)
	}
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Budget: 8 << 20})
	id := submit(t, ts, JobSpec{Tenant: "t1", Benchmark: "ge", N: 64, Base: 16, MemoryBytes: 4 << 20})
	waitJob(t, ts, id)
	body := scrapeMetrics(t, ts)
	for _, want := range []string{
		`dpserve_jobs{state="done"} 1`,
		"dpserve_admission_budget_bytes 8388608",
		"dpserve_admission_reserved_bytes 0",
		"dpserve_admission_queue_depth 0",
		"dpserve_admission_admitted_total 1",
		"dpserve_admission_released_total 1",
		`dpserve_admission_tenant_reserved_bytes{tenant="t1"} 0`,
		"dpserve_executor_workers 2",
		`dpserve_graph_jobs{tenant="t1"} 1`,
		`dpserve_graph_steps_done_total{tenant="t1"}`,
		`dpserve_graph_peak_live_bytes{tenant="t1"}`,
		`dpserve_graph_backpressure_stalls_total{tenant="t1"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// Every metric line parses as name{labels} value.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed metric line %q", line)
		}
		if _, err := fmt.Sscanf(fields[1], "%f", new(float64)); err != nil {
			t.Fatalf("metric value in %q not numeric: %v", line, err)
		}
	}
}

func TestStatusNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// The watchdog cancels a job whose progress counters stop moving, and the
// stall is visible in the status — a wedged tenant releases its admission
// reservation instead of holding it forever.
func TestWatchdogCancelsStalledJob(t *testing.T) {
	_, ts := newTestServer(t, Config{StallWindow: 50 * time.Millisecond})
	// An undersized deadline would also kill it; use a plain big job and
	// trust the watchdog only if it genuinely fires. A stall cannot be
	// provoked through the public API with healthy benchmarks — that path
	// is exercised by the chaos suite — so here we only check that healthy
	// jobs are NOT killed by a tight watchdog window.
	id := submit(t, ts, JobSpec{Benchmark: "ge", N: 128, Base: 8})
	st := waitJob(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("healthy job killed under tight watchdog: state=%s stalled=%v err=%q",
			st.State, st.Stalled, st.Error)
	}
}
