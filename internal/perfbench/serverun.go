package perfbench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/exec"
	"dpflow/internal/serve"
)

const (
	pollEvery   = time.Millisecond
	rootTimeout = 30 * time.Second
	// leafRefReps is how many Serial_RDP references each leaf spec gets per
	// round, run with the clients quiet.
	leafRefReps = 5
)

// serveSample is the serve-specific part of a sample: what one client saw
// of one root job.
type serveSample struct {
	submit        time.Duration   // POST round trip
	status        []time.Duration // each GET /jobs/{id} round trip
	serverElapsed time.Duration   // Status.elapsed_ms of the terminal root
	queued        time.Duration   // root observed queued
	running       time.Duration   // root observed running
	leafWaits     []time.Duration // per leaf: observed queued for admission
	verified      int             // leaves done and verified
	stats         serve.Metrics   // summed over leaves
}

// serveFixture is what a serve round sets up and tears down.
type serveFixture struct {
	ex  *exec.Executor
	srv *serve.Server
	ts  *httptest.Server
}

func newServeFixture(w *Workload, workers int) *serveFixture {
	fx := &serveFixture{ex: exec.New(workers)}
	fx.srv = serve.New(serve.Config{Executor: fx.ex, Budget: w.Budget})
	fx.ts = httptest.NewServer(fx.srv.Handler())
	return fx
}

func (fx *serveFixture) close() {
	fx.ts.Close()
	fx.srv.Close()
	fx.ex.Close()
}

// runServe measures one pass of a serve workload: a closed loop of
// `workers` clients, one connection each, against an in-process dpserve on
// loopback. Each op POSTs one fork spec and polls it to a terminal state.
// reps is roots per client.
func runServe(ctx context.Context, w *Workload, workers int, seed int64, reps int, rec *Recorder) *pass {
	p := &pass{w: w, workers: workers, rec: rec}

	warm := NewPlan(seed, w, passWarmup, warmupOps)
	fx := newServeFixture(w, workers)
	scratch := &pass{w: w, workers: workers}
	wc := newClient()
	for i := range warm.Ops {
		serveOp(ctx, scratch, fx.ts.URL, wc, warm.Ops[i], i, 0, 0)
	}
	wc.CloseIdleConnections()
	fx.close()

	var cur liveExecutor
	roots := reps * workers
	plan := p.plan(seed, roots)
	p.measured(cur.leases, func() {
		for first := 0; first < roots; {
			round := roundOf(first, roots)
			last := first
			for last < roots && roundOf(last, roots) == round {
				last++
			}
			p.serveRound(ctx, plan, first, last, round, &cur)
			first = last
		}
	})
	return p
}

// serveRound runs roots [first, last) of the plan as one round: a fresh
// server, `workers` clients taking roots in turn from a shared cursor, then
// — with the clients quiet — the leaves' Serial_RDP references and the
// server's own census.
func (p *pass) serveRound(ctx context.Context, plan Plan, first, last, round int, cur *liveExecutor) {
	roundStart := time.Now()
	fx := newServeFixture(p.w, p.workers)
	cur.Store(fx.ex)

	out := make([]sample, last-first)
	var cursor atomic.Int64
	cursor.Store(int64(first))
	var wg sync.WaitGroup
	ex0, proc0 := fx.ex.Stats(), readProc()
	windowStart := time.Now()
	for c := 0; c < p.workers; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= last {
					return
				}
				out[i-first] = serveOp(ctx, p, fx.ts.URL, client, plan.Ops[i], i, round, lane)
			}
		}(c + 1)
	}
	wg.Wait()
	window := time.Since(windowStart)
	proc1, ex1 := readProc(), fx.ex.Stats()
	n := uint64(len(out))
	exd := execDelta(ex0, ex1)
	for i := range out {
		// The window's process and executor deltas belong to all of its
		// roots at once (they overlap); each gets an even share.
		out[i].alloc, out[i].mallocs = (proc1.alloc-proc0.alloc)/n, (proc1.mallocs-proc0.mallocs)/n
		out[i].ex = exec.Stats{Claims: exd.Claims / n, Units: exd.Units / n, Parks: exd.Parks / n, Wakeups: exd.Wakeups / n}
	}
	p.samples = append(p.samples, out...)
	p.roundWindow = append(p.roundWindow, window)

	refs, refTotal := leafReferences(ctx, p, plan.Ops[first])
	p.leafRef = append(p.leafRef, refs)
	p.scrapeMetrics(ctx, fx, len(out))
	cur.Store(nil)
	fx.close()
	p.roundSetup = append(p.roundSetup, time.Since(roundStart)-window-refTotal)
}

// newClient is one load-generating client: a single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// leafReferences times Serial_RDP through the bench API for every leaf
// spec of the workload (overhead_x's denominator is their sum).
func leafReferences(ctx context.Context, p *pass, op OpPlan) (refs [][]time.Duration, total time.Duration) {
	refs = make([][]time.Duration, len(p.w.Fork))
	for rep := 0; rep < leafRefReps; rep++ {
		for l, leaf := range p.w.Fork {
			wall, _, err := timedRun(ctx, mustBench(leaf.Bench), leaf.N, leaf.Base, op.LeafSeeds[l]+int64(rep), core.SerialRDP, bench.RunOpts{})
			refs[l] = append(refs[l], wall)
			total += wall
			if err != nil {
				p.failf(&p.samples[len(p.samples)-1], "%s: Serial_RDP reference of leaf %s: %v", p.w.Name, leaf.Bench, err)
			}
		}
	}
	return refs, total
}

// scrapeMetrics reads /metrics and the admission snapshot at the end of a
// round and cross-checks the server's own job census against the client's.
func (p *pass) scrapeMetrics(ctx context.Context, fx *serveFixture, roots int) {
	last := &p.samples[len(p.samples)-1]
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fx.ts.URL+"/metrics", nil)
	if err != nil {
		p.failf(last, "%s: /metrics: %v", p.w.Name, err)
		return
	}
	client := newClient()
	defer client.CloseIdleConnections()
	t := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		p.failf(last, "%s: /metrics: %v", p.w.Name, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	p.scrape = append(p.scrape, time.Since(t))
	if err != nil || resp.StatusCode != http.StatusOK {
		p.failf(last, "%s: /metrics: status %d, %v", p.w.Name, resp.StatusCode, err)
		return
	}
	states := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), `dpserve_jobs{state="`); ok {
			if state, val, ok := strings.Cut(rest, `"} `); ok {
				states[state], _ = strconv.ParseFloat(val, 64)
			}
		}
	}
	want := float64(roots * (1 + len(p.w.Fork)))
	if states[serve.StateDone] != want {
		p.failf(last, "%s: /metrics reports %v jobs done, clients saw %v", p.w.Name, states[serve.StateDone], want)
	}
	p.jobsDone += states[serve.StateDone]
	p.jobsFailed += states[serve.StateFailed] + states[serve.StateCancelled]
	as := fx.srv.Admission().Stats()
	p.admitted += as.Admitted
	p.degradations += as.Degradations
	if as.MaxQueueDepth > p.queueDepthMax {
		p.queueDepthMax = as.MaxQueueDepth
	}
}

// serveOp submits one root and polls it to a terminal state, as client
// `lane`.
func serveOp(ctx context.Context, p *pass, base string, client *http.Client, op OpPlan, id, round, lane int) sample {
	s := sample{round: round, sv: &serveSample{}}
	w := p.w
	ctx, cancel := context.WithTimeout(ctx, rootTimeout)
	defer cancel()

	spec := serve.JobSpec{Tenant: "dpperf"}
	for _, l := range op.LeafOrder {
		leaf := w.Fork[l]
		spec.Fork = append(spec.Fork, serve.JobSpec{
			Benchmark: leaf.Bench, Variant: leaf.Variant, N: leaf.N, Base: leaf.Base,
			Seed: op.LeafSeeds[l], MemoryBytes: w.MemoryBytes,
		})
	}
	body, err := json.Marshal(spec)
	if err != nil {
		p.failf(&s, "%s op %d: %v", w.Name, id, err)
		return s
	}

	root := -1
	span := func(name string, start, end time.Duration) {}
	if p.rec != nil {
		root = p.rec.Begin(w.Name, id, -1, lane)
		defer p.rec.End(root)
		span = func(name string, start, end time.Duration) {
			p.rec.Add(Span{Name: name, Op: id, Parent: root, Lane: lane, Start: start, End: end})
		}
	}
	// offset places wall-clock observations on the recorder's time line.
	offset := func(t time.Time) time.Duration {
		if p.rec == nil {
			return 0
		}
		return t.Sub(p.rec.epoch)
	}

	start := time.Now()
	var created struct {
		ID string `json:"id"`
	}
	if err := doJSON(ctx, client, http.MethodPost, base+"/jobs", body, http.StatusAccepted, &created); err != nil {
		p.failf(&s, "%s op %d: submit: %v", w.Name, id, err)
		return s
	}
	submitted := time.Now()
	s.sv.submit = submitted.Sub(start)
	span("serve.submit", offset(start), offset(submitted))

	// First observation of the root leaving queued / the leaves leaving
	// queued, for the derived serve.queued, serve.running and admission
	// waits.
	var rootRunning time.Time
	leafQueued := make([]bool, len(spec.Fork))
	leafAdmitted := make([]time.Time, len(spec.Fork))
	var st serve.Status
	for {
		time.Sleep(pollEvery)
		t := time.Now()
		st = serve.Status{}
		if err := doJSON(ctx, client, http.MethodGet, base+"/jobs/"+created.ID, nil, http.StatusOK, &st); err != nil {
			p.failf(&s, "%s op %d: status: %v", w.Name, id, err)
			return s
		}
		seen := time.Now()
		s.sv.status = append(s.sv.status, seen.Sub(t))
		span("serve.poll", offset(t), offset(seen))
		if st.State != serve.StateQueued && rootRunning.IsZero() {
			rootRunning = seen
		}
		for i := range st.Children {
			switch {
			case i >= len(leafQueued):
			case st.Children[i].State == serve.StateQueued:
				leafQueued[i] = true
			case leafAdmitted[i].IsZero():
				leafAdmitted[i] = seen
			}
		}
		if st.State == serve.StateDone || st.State == serve.StateFailed || st.State == serve.StateCancelled {
			break
		}
	}
	done := time.Now()
	s.wall = done.Sub(start)
	s.sv.serverElapsed = time.Duration(st.ElapsedMS) * time.Millisecond
	s.sv.queued, s.sv.running = rootRunning.Sub(submitted), done.Sub(rootRunning)
	span("serve.queued", offset(submitted), offset(rootRunning))
	span("serve.running", offset(rootRunning), offset(done))

	if st.State != serve.StateDone || !st.Verified {
		p.failf(&s, "%s op %d: root %s ended %s verified=%v: %s", w.Name, id, st.ID, st.State, st.Verified, st.Error)
	}
	if len(st.Children) != len(spec.Fork) {
		p.failf(&s, "%s op %d: root %s has %d children, submitted %d", w.Name, id, st.ID, len(st.Children), len(spec.Fork))
	}
	for i, c := range st.Children {
		if c.State == serve.StateDone && c.Verified {
			s.sv.verified++
		}
		if c.Degraded {
			p.failf(&s, "%s op %d: leaf %s admitted degraded", w.Name, id, c.ID)
		}
		if m := c.Stats; m != nil {
			t := &s.sv.stats
			t.TagsPut += m.TagsPut
			t.ItemsPut += m.ItemsPut
			t.StepsDone += m.StepsDone
			t.Steals += m.Steals
			t.Wakeups += m.Wakeups
			t.PeakLiveBytes += m.PeakLiveBytes
			t.BackpressureStalls += m.BackpressureStalls
			t.BackpressureWaits += m.BackpressureWaits
		}
		if i < len(leafQueued) {
			var wait time.Duration
			if leafQueued[i] && !leafAdmitted[i].IsZero() {
				wait = leafAdmitted[i].Sub(submitted)
			}
			s.sv.leafWaits = append(s.sv.leafWaits, wait)
		}
	}
	return s
}

// doJSON does one request and decodes the JSON reply into out.
func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte, wantStatus int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	// Read to EOF so the keep-alive connection is reused.
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(reply, out)
}
