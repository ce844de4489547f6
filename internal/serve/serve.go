// Package serve is the long-running job service behind cmd/dpserve: an
// HTTP server that accepts dynamic-programming jobs, multiplexes them onto
// one shared exec.Executor, and arbitrates their memory through
// cross-tenant admission control (internal/exec/admission).
//
// A job is either a leaf — a registry benchmark id plus instance
// parameters — or a dynamic fork-join node: a list of child specs expanded
// at submission time into concurrently running children (the Conductor
// FORK_JOIN_DYNAMIC shape: the fan-out is data, not code). Leaves reserve
// their declared MemoryBytes with the admission controller before running
// and hand the granted reservation to the graph as its WithMemoryLimit, so
// the per-graph accountant and the process-level controller compose: the
// aggregate PeakLiveBytes of everything running stays within the process
// budget whenever nothing stalled or degraded.
//
// Orchestration runs on plain goroutines, never on executor workers: a
// graph run blocks until quiescence, and an executor worker that blocks on
// a *different* graph's completion would deadlock the pool (see
// internal/exec). The HTTP handler goroutines and the per-job goroutines
// spawned here are exactly the "O(jobs)" goroutine overhead the shared
// executor design budgets for.
//
// Every job gets a cooperative cancellation context (POST
// /jobs/{id}/cancel), an optional deadline, and runs inside bench.Check:
// a watchdog on the job's own progress counter — a faulty or wedged job is
// cancelled instead of holding its admission reservation forever, which is
// what keeps one tenant's bad job from starving another tenant's queue
// position — then verification, the leak rider and, under memory_bytes,
// the peak rider.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/cnc"
	"dpflow/internal/core"
	"dpflow/internal/exec"
	"dpflow/internal/exec/admission"
	"dpflow/internal/forkjoin"
	"dpflow/internal/matrix"
)

// Config configures a Server. The zero value serves on the process-wide
// executor with an unlimited memory budget.
type Config struct {
	// Executor is the shared pool jobs lease logical workers from; nil
	// means exec.Default().
	Executor *exec.Executor
	// Budget is the process memory budget in bytes handed to the admission
	// controller; 0 = unlimited (admission is then quota-only).
	Budget int64
	// DefaultQuota is every tenant's byte quota; 0 = unlimited.
	DefaultQuota int64
	// StallWindow is the per-job watchdog window (bench.Check): a running
	// job whose progress counter — items put by its CnC graph, tasks
	// executed by its fork-join pool — does not move for this long is
	// cancelled as stalled. A NonBlocking re-put livelock retires steps and
	// puts tags forever but puts no item, so it stalls too. 0 defaults to
	// 10s; negative disables the watchdog.
	StallWindow time.Duration
}

// maxJobs caps the number of jobs one submission may expand to (fork-join
// specs are trees).
const maxJobs = 256

// JobSpec is the submission body of POST /jobs. Exactly one of Benchmark
// (a leaf job) or Fork (a dynamic fork-join node whose children are
// expanded at submission) must be set.
type JobSpec struct {
	// Tenant attributes the job's admission reservation and metrics;
	// empty means "default".
	Tenant string `json:"tenant,omitempty"`

	// Benchmark is the registry id (chol, fw, ge, sw) of a leaf job.
	Benchmark string `json:"benchmark,omitempty"`
	// Variant is the series label or alias (cnc, tuner, manual, openmp,
	// nonblocking, serial_rdp); empty means cnc.
	Variant string `json:"variant,omitempty"`
	// N is the problem size (required for leaves, a power of two); Base
	// the base-case size (default 16); Seed the instance seed.
	N    int   `json:"n,omitempty"`
	Base int   `json:"base,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Workers is the job's logical-concurrency cap: dispatch lanes leased
	// from the shared executor, not goroutines. 0 means the executor's
	// physical worker count. Negative values of it, DeadlineMS and
	// MemoryBytes are refused at submit.
	Workers int `json:"workers,omitempty"`

	// DeadlineMS bounds the job (admission wait included); 0 = none.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// MemoryBytes is the job's admission reservation and the graph's
	// WithMemoryLimit; 0 skips memory arbitration for this job.
	MemoryBytes int64 `json:"memory_bytes,omitempty"`

	// Fork makes this a fork-join node: the children run concurrently and
	// the node completes when all of them do (fails on the first failure).
	Fork []JobSpec `json:"fork,omitempty"`
}

// Job states reported by GET /jobs/{id}.
const (
	StateQueued    = "queued"    // waiting for admission
	StateRunning   = "running"   // graph in flight (or children running)
	StateDone      = "done"      // completed and verified
	StateFailed    = "failed"    // run, verify or deadline failure
	StateCancelled = "cancelled" // cancelled via the API or a parent
)

// Status is the JSON shape of GET /jobs/{id}.
type Status struct {
	ID        string   `json:"id"`
	Tenant    string   `json:"tenant"`
	State     string   `json:"state"`
	Benchmark string   `json:"benchmark,omitempty"`
	Variant   string   `json:"variant,omitempty"`
	Error     string   `json:"error,omitempty"`
	Verified  bool     `json:"verified"`
	Degraded  bool     `json:"degraded,omitempty"`
	Stalled   bool     `json:"stalled,omitempty"`
	ElapsedMS int64    `json:"elapsed_ms"`
	Stats     *Metrics `json:"stats,omitempty"`
	Children  []Status `json:"children,omitempty"`
}

// Metrics is the per-job runtime counter snapshot exposed in Status.
type Metrics struct {
	TagsPut            uint64 `json:"tags_put"`
	ItemsPut           uint64 `json:"items_put"`
	StepsDone          uint64 `json:"steps_done"`
	Steals             uint64 `json:"steals"`
	Wakeups            uint64 `json:"wakeups"`
	LiveBytes          int64  `json:"live_bytes"`
	PeakLiveBytes      int64  `json:"peak_live_bytes"`
	BackpressureStalls int64  `json:"backpressure_stalls"`
	BackpressureWaits  int64  `json:"backpressure_waits"`
}

// Server is the job service. Create with New, mount Handler, Close when
// done (cancels running jobs and waits for them).
type Server struct {
	cfg Config
	ex  *exec.Executor
	ctl *admission.Controller

	baseCtx  context.Context
	shutdown context.CancelFunc
	wg       sync.WaitGroup

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission order, for stable listings
	seq   int
}

// Job is one node of a submitted job tree.
type Job struct {
	s    *Server
	id   string
	spec JobSpec

	children []*Job
	cancel   context.CancelFunc

	mu        sync.Mutex
	state     string
	err       error
	verified  bool
	degraded  bool
	stalled   bool
	requested bool // cancel endpoint hit (distinguishes from deadline)
	started   time.Time
	finished  time.Time
	graph     *cnc.Graph // the live graph, captured via RunOpts.Tune
	pool      *forkjoin.Pool
	final     cnc.Stats
	haveFinal bool
}

// New creates a Server.
func New(cfg Config) *Server {
	if cfg.StallWindow == 0 {
		cfg.StallWindow = 10 * time.Second
	}
	ex := cfg.Executor
	if ex == nil {
		ex = exec.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		ex:       ex,
		ctl:      admission.New(cfg.Budget),
		baseCtx:  ctx,
		shutdown: cancel,
		jobs:     make(map[string]*Job),
	}
}

// Admission returns the server's admission controller (metrics, tests).
func (s *Server) Admission() *admission.Controller { return s.ctl }

// Close cancels every running job and waits for their goroutines. The
// executor is not closed — it is shared and typically process-wide.
func (s *Server) Close() {
	s.shutdown()
	s.wg.Wait()
}

func (s *Server) tenantFor(name string) *admission.Tenant {
	if name == "" {
		name = "default"
	}
	return s.ctl.Tenant(name, s.cfg.DefaultQuota)
}

// parseVariant resolves a submission's variant token.
func parseVariant(name string) (core.Variant, error) {
	switch strings.ToLower(name) {
	case "", "cnc", "native":
		return core.NativeCnC, nil
	case "cnc_tuner", "tuner":
		return core.TunerCnC, nil
	case "cnc_manual", "manual":
		return core.ManualCnC, nil
	case "cnc_nonblocking", "nonblocking":
		return core.NonBlockingCnC, nil
	case "openmp", "omp", "forkjoin":
		return core.OMPTasking, nil
	case "serial_rdp":
		return core.SerialRDP, nil
	}
	return 0, fmt.Errorf("unknown variant %q", name)
}

// validate checks a spec tree and counts its jobs.
func (s *Server) validate(spec *JobSpec, count *int) error {
	*count++
	if *count > maxJobs {
		return fmt.Errorf("spec expands to more than %d jobs", maxJobs)
	}
	// Zero means "executor default", "no deadline" and "unsized"; a
	// negative value means nothing, and is refused rather than read as zero.
	switch {
	case spec.Workers < 0:
		return fmt.Errorf("workers %d must not be negative", spec.Workers)
	case spec.DeadlineMS < 0:
		return fmt.Errorf("deadline_ms %d must not be negative", spec.DeadlineMS)
	case spec.MemoryBytes < 0:
		return fmt.Errorf("memory_bytes %d must not be negative", spec.MemoryBytes)
	}
	if len(spec.Fork) > 0 {
		if spec.Benchmark != "" {
			return errors.New("a job is either a benchmark leaf or a fork node, not both")
		}
		for i := range spec.Fork {
			// Children inherit the parent's tenant unless they name their own.
			if spec.Fork[i].Tenant == "" {
				spec.Fork[i].Tenant = spec.Tenant
			}
			if err := s.validate(&spec.Fork[i], count); err != nil {
				return err
			}
		}
		return nil
	}
	if spec.Benchmark == "" {
		return errors.New("leaf job needs a benchmark id")
	}
	if _, err := bench.ByName(spec.Benchmark); err != nil {
		return err
	}
	if _, err := parseVariant(spec.Variant); err != nil {
		return err
	}
	// Every registered benchmark recurses by halving: refuse here what
	// NewInstance would refuse after admission.
	if !matrix.IsPow2(spec.N) {
		return fmt.Errorf("n %d must be a positive power of two", spec.N)
	}
	if spec.Base == 0 {
		spec.Base = 16
	}
	if spec.Base < 0 {
		return errors.New("base must be positive")
	}
	return nil
}

// Submit expands a spec into a job tree, registers it, and starts the root
// on a plain goroutine. It returns the root job.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	count := 0
	if err := s.validate(&spec, &count); err != nil {
		return nil, err
	}
	s.mu.Lock()
	root := s.buildLocked(spec)
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		root.run(s.baseCtx)
	}()
	return root, nil
}

// buildLocked allocates the job tree and registers every node. Caller
// holds s.mu.
func (s *Server) buildLocked(spec JobSpec) *Job {
	s.seq++
	j := &Job{s: s, id: fmt.Sprintf("job-%d", s.seq), spec: spec, state: StateQueued}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for _, child := range spec.Fork {
		j.children = append(j.children, s.buildLocked(child))
	}
	return j
}

// ID returns the job's id.
func (j *Job) ID() string { return j.id }

// run executes the job tree node to completion. It runs on a plain
// goroutine — NEVER on an executor worker: a graph run blocks until
// quiescence, and blocking an executor worker on another graph's progress
// deadlocks the shared pool.
func (j *Job) run(parent context.Context) {
	var ctx context.Context
	var cancel context.CancelFunc
	if j.spec.DeadlineMS > 0 {
		ctx, cancel = context.WithTimeout(parent, time.Duration(j.spec.DeadlineMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	j.started = time.Now()
	j.mu.Unlock()

	var err error
	var verified bool
	if len(j.children) > 0 {
		verified, err = j.runFork(ctx)
	} else {
		verified, err = j.runLeaf(ctx)
	}

	j.mu.Lock()
	j.err = err
	j.verified = verified
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
	case j.requested || errors.Is(err, context.Canceled):
		j.state = StateCancelled
	default:
		j.state = StateFailed
	}
	j.mu.Unlock()
}

// runFork runs the children concurrently (plain goroutines) and joins
// them: done when all are done, failed on the first failure.
func (j *Job) runFork(ctx context.Context) (bool, error) {
	j.setState(StateRunning)
	var wg sync.WaitGroup
	for _, c := range j.children {
		wg.Add(1)
		go func(c *Job) {
			defer wg.Done()
			c.run(ctx)
		}(c)
	}
	wg.Wait()
	verified := true
	var firstErr error
	for _, c := range j.children {
		c.mu.Lock()
		if c.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("child %s: %w", c.id, c.err)
		}
		verified = verified && c.verified
		c.mu.Unlock()
	}
	return verified && firstErr == nil, firstErr
}

// runLeaf admits, runs and verifies one benchmark instance.
func (j *Job) runLeaf(ctx context.Context) (bool, error) {
	s := j.s
	spec := j.spec

	// Admission first: the job holds StateQueued until its reservation is
	// granted, so GET /jobs distinguishes "waiting for memory" from
	// "computing". The context carries the deadline, so a job cannot hold
	// a queue slot past it.
	tenant := s.tenantFor(spec.Tenant)
	grant, err := tenant.Admit(ctx, spec.MemoryBytes)
	if err != nil {
		return false, fmt.Errorf("admission: %w", err)
	}
	defer grant.Release()
	j.mu.Lock()
	j.degraded = grant.Degraded()
	j.state = StateRunning
	j.mu.Unlock()

	b, err := bench.ByName(spec.Benchmark)
	if err != nil {
		return false, err
	}
	inst, err := b.NewInstance(spec.N, spec.Base, spec.Seed)
	if err != nil {
		return false, err
	}
	variant, err := parseVariant(spec.Variant)
	if err != nil {
		return false, err
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = s.ex.Workers()
	}

	opts := bench.RunOpts{Workers: workers}
	switch {
	case variant == core.OMPTasking:
		pool := forkjoin.NewPool(forkjoin.Config{Workers: workers, Executor: s.ex})
		defer pool.Close()
		j.mu.Lock()
		j.pool = pool
		j.mu.Unlock()
		opts.Pool = pool
	case variant.IsCnC():
		opts.Tune = func(g *cnc.Graph) {
			g.WithExecutor(s.ex)
			if grant.Bytes() > 0 {
				g.WithMemoryLimit(grant.Bytes())
			}
			j.mu.Lock()
			j.graph = g
			j.mu.Unlock()
		}
	}

	// The envelope's watchdog watches the job's own progress counter and
	// cancels it on a stall — a wedged job releases its reservation instead
	// of starving the admission queue. Serial variants have no counter to
	// watch; their bound is the deadline.
	c := bench.Check{StallWindow: s.cfg.StallWindow}.Run(ctx, inst, variant, opts)
	j.mu.Lock()
	j.final = c.Stats
	j.haveFinal = true
	j.graph = nil // final stands in from here on; a finished job must not pin its item stores
	j.stalled = c.Stalled
	j.mu.Unlock()
	return c.Err == nil, c.Err
}

func (j *Job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// Cancel requests cooperative cancellation of the job and its children.
func (j *Job) Cancel() {
	j.mu.Lock()
	j.requested = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	for _, c := range j.children {
		c.Cancel()
	}
}

// metrics snapshots the job's runtime counters: the final stats once the
// run finished, a live graph scrape while it is in flight.
func (j *Job) metrics() Metrics {
	j.mu.Lock()
	defer j.mu.Unlock()
	var st cnc.Stats
	if j.haveFinal {
		st = j.final
	} else if j.graph != nil {
		st = j.graph.Stats()
	}
	if j.pool != nil {
		ps := j.pool.Stats()
		st.StepsDone += ps.Executed
		st.Steals += ps.Steals
	}
	return Metrics{
		TagsPut:            st.TagsPut,
		ItemsPut:           st.ItemsPut,
		StepsDone:          st.StepsDone,
		Steals:             st.Steals,
		Wakeups:            st.Wakeups,
		LiveBytes:          st.LiveBytes,
		PeakLiveBytes:      st.PeakLiveBytes,
		BackpressureStalls: st.BackpressureStalls,
		BackpressureWaits:  st.BackpressureWaits,
	}
}

// Status reports the job's current state, including children.
func (j *Job) Status() Status {
	j.mu.Lock()
	tenant := j.spec.Tenant
	if tenant == "" {
		tenant = "default"
	}
	st := Status{
		ID:        j.id,
		Tenant:    tenant,
		State:     j.state,
		Benchmark: j.spec.Benchmark,
		Variant:   j.spec.Variant,
		Verified:  j.verified,
		Degraded:  j.degraded,
		Stalled:   j.stalled,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.ElapsedMS = end.Sub(j.started).Milliseconds()
	}
	j.mu.Unlock()
	if len(j.children) == 0 {
		m := j.metrics()
		st.Stats = &m
	}
	for _, c := range j.children {
		st.Children = append(st.Children, c.Status())
	}
	return st
}

// Handler returns the server's HTTP API:
//
//	POST /jobs             submit a JobSpec; 202 with {"id": ...}
//	GET  /jobs             list all jobs (submission order)
//	GET  /jobs/{id}        one job's status
//	POST /jobs/{id}/cancel cooperative cancellation
//	GET  /metrics          Prometheus text format
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, fmt.Sprintf("bad job spec: %v", err), http.StatusBadRequest)
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": job.ID()})
}

func (s *Server) jobByID(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	j.Cancel()
	w.WriteHeader(http.StatusAccepted)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleMetrics renders the Prometheus text exposition: job states,
// admission controller counters (budget, reservations, queue depth,
// degradations — per tenant included), executor counters, and the
// per-tenant aggregation of every job's graph stats (steals, wakeups,
// live/peak bytes, backpressure stalls).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()

	states := map[string]int{}
	type agg struct {
		m    Metrics
		jobs int
	}
	tenants := map[string]*agg{}
	for _, j := range jobs {
		st := j.Status()
		states[st.State]++
		if len(j.children) > 0 {
			continue // leaves carry the runtime counters
		}
		a := tenants[st.Tenant]
		if a == nil {
			a = &agg{}
			tenants[st.Tenant] = a
		}
		a.jobs++
		m := j.metrics()
		a.m.TagsPut += m.TagsPut
		a.m.ItemsPut += m.ItemsPut
		a.m.StepsDone += m.StepsDone
		a.m.Steals += m.Steals
		a.m.Wakeups += m.Wakeups
		a.m.LiveBytes += m.LiveBytes
		a.m.PeakLiveBytes += m.PeakLiveBytes
		a.m.BackpressureStalls += m.BackpressureStalls
		a.m.BackpressureWaits += m.BackpressureWaits
	}

	var b strings.Builder
	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	counter := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}

	gauge("dpserve_jobs", "jobs by state")
	for _, st := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(&b, "dpserve_jobs{state=%q} %d\n", st, states[st])
	}

	as := s.ctl.Stats()
	gauge("dpserve_admission_budget_bytes", "process memory budget (0 = unlimited)")
	fmt.Fprintf(&b, "dpserve_admission_budget_bytes %d\n", as.Budget)
	gauge("dpserve_admission_reserved_bytes", "live admitted reservations")
	fmt.Fprintf(&b, "dpserve_admission_reserved_bytes %d\n", as.Reserved)
	gauge("dpserve_admission_queue_depth", "jobs waiting for admission")
	fmt.Fprintf(&b, "dpserve_admission_queue_depth %d\n", as.QueueDepth)
	gauge("dpserve_admission_queue_depth_max", "high-water mark of the admission queue")
	fmt.Fprintf(&b, "dpserve_admission_queue_depth_max %d\n", as.MaxQueueDepth)
	counter("dpserve_admission_admitted_total", "reservations granted")
	fmt.Fprintf(&b, "dpserve_admission_admitted_total %d\n", as.Admitted)
	counter("dpserve_admission_released_total", "reservations returned")
	fmt.Fprintf(&b, "dpserve_admission_released_total %d\n", as.Released)
	counter("dpserve_admission_degradations_total", "forced admissions over budget/quota")
	fmt.Fprintf(&b, "dpserve_admission_degradations_total %d\n", as.Degradations)
	sort.Slice(as.Tenants, func(i, k int) bool { return as.Tenants[i].Name < as.Tenants[k].Name })
	gauge("dpserve_admission_tenant_reserved_bytes", "live reservations per tenant")
	for _, t := range as.Tenants {
		fmt.Fprintf(&b, "dpserve_admission_tenant_reserved_bytes{tenant=%q} %d\n", t.Name, t.Reserved)
	}
	counter("dpserve_admission_tenant_degradations_total", "forced admissions per tenant")
	for _, t := range as.Tenants {
		fmt.Fprintf(&b, "dpserve_admission_tenant_degradations_total{tenant=%q} %d\n", t.Name, t.Degradations)
	}

	es := s.ex.Stats()
	gauge("dpserve_executor_workers", "physical worker goroutines in the shared pool")
	fmt.Fprintf(&b, "dpserve_executor_workers %d\n", es.Workers)
	gauge("dpserve_executor_leases", "currently registered leases")
	fmt.Fprintf(&b, "dpserve_executor_leases %d\n", es.Leases)
	counter("dpserve_executor_claims_total", "slot claims that ran work")
	fmt.Fprintf(&b, "dpserve_executor_claims_total %d\n", es.Claims)
	counter("dpserve_executor_units_total", "work units executed")
	fmt.Fprintf(&b, "dpserve_executor_units_total %d\n", es.Units)
	counter("dpserve_executor_parks_total", "physical workers parked")
	fmt.Fprintf(&b, "dpserve_executor_parks_total %d\n", es.Parks)
	counter("dpserve_executor_wakeups_total", "wake tokens handed to parked workers")
	fmt.Fprintf(&b, "dpserve_executor_wakeups_total %d\n", es.Wakeups)

	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	emit := func(name, help, kind string, val func(*agg) int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, tn := range names {
			fmt.Fprintf(&b, "%s{tenant=%q} %d\n", name, tn, val(tenants[tn]))
		}
	}
	emit("dpserve_graph_jobs", "leaf jobs per tenant", "gauge",
		func(a *agg) int64 { return int64(a.jobs) })
	emit("dpserve_graph_steps_done_total", "step/task executions per tenant", "counter",
		func(a *agg) int64 { return int64(a.m.StepsDone) })
	emit("dpserve_graph_items_put_total", "item puts per tenant", "counter",
		func(a *agg) int64 { return int64(a.m.ItemsPut) })
	emit("dpserve_graph_steals_total", "work steals per tenant", "counter",
		func(a *agg) int64 { return int64(a.m.Steals) })
	emit("dpserve_graph_wakeups_total", "dispatch wakeups per tenant", "counter",
		func(a *agg) int64 { return int64(a.m.Wakeups) })
	emit("dpserve_graph_live_bytes", "live accounted bytes per tenant", "gauge",
		func(a *agg) int64 { return a.m.LiveBytes })
	emit("dpserve_graph_peak_live_bytes", "sum of per-job peak live bytes per tenant", "gauge",
		func(a *agg) int64 { return a.m.PeakLiveBytes })
	emit("dpserve_graph_backpressure_stalls_total", "forced over-budget puts per tenant", "counter",
		func(a *agg) int64 { return a.m.BackpressureStalls })
	emit("dpserve_graph_backpressure_waits_total", "throttled puts per tenant", "counter",
		func(a *agg) int64 { return a.m.BackpressureWaits })

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(b.String()))
}
