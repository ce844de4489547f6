package perfbench

import (
	"encoding/json"
	"fmt"
	"io"

	"dpflow/internal/core"
)

// RunSeconds is the run length the committed rep counts are sized for: a
// Workload's Reps is the number of ops one untraced run of RunSeconds does
// on the 2-core reference host. -seconds scales every count linearly, so a
// run's length is a property of the benchmark, never of the code under
// test (rep counts are not tuned at run time).
const RunSeconds = 10

// Rounds is how many times one run sets its fixture up and tears it down
// (executor, pool, server, instances). setup_s is the median round, and the
// round-to-round spread of every end-to-end metric is what -compare uses to
// call a metric unresolved.
const Rounds = 5

// Leaf is one leaf of a serve workload's fork spec.
type Leaf struct {
	Bench   string
	N, Base int
	Variant string // dpserve variant token
}

// Workload is one named set of inputs. Names are fixed; later issues cite
// them.
type Workload struct {
	Name string
	Why  string
	// Reps is subject ops per RunSeconds run (roots per client for serve).
	Reps int

	// Compute and dist workloads: one registry instance per op.
	Bench   string
	N, Base int
	Variant core.Variant
	Shards  int // > 0: driven through dist.Runner

	// Serve workloads: one fork spec per op.
	Fork        []Leaf
	MemoryBytes int64 // per leaf; 0 = no admission
	Budget      int64 // serve.Config.Budget
}

// IsServe reports whether ops are dpserve root jobs.
func (w *Workload) IsServe() bool { return len(w.Fork) > 0 }

// IsDist reports whether ops run through the sharded data plane.
func (w *Workload) IsDist() bool { return w.Shards > 0 }

// Workloads is the benchmark's workload table. Rep counts were sized once
// on the 2-core reference host so an untraced run measures for about
// RunSeconds, and are frozen.
var Workloads = []Workload{
	{
		Name: "ge-cnc-fine", Reps: 50,
		Bench: "ge", N: 512, Base: 16, Variant: core.NativeCnC,
		Why: "data-flow runtime-bound: 11k tiny GE tiles with speculative gets; cnc and exec do most of the work",
	},
	{
		Name: "ge-fj-fine", Reps: 75,
		Bench: "ge", N: 512, Base: 16, Variant: core.OMPTasking,
		Why: "fork-join runtime on the same GE instances: forkjoin spawn/steal/join, cnc does nothing",
	},
	{
		Name: "chol-cnc-coarse", Reps: 20,
		Bench: "chol", N: 512, Base: 64, Variant: core.NativeCnC,
		Why: "kernel-bound: 120 big Cholesky tiles, runtimes nearly free; scheduler work predicts no change here",
	},
	{
		Name: "sw-manual-wave", Reps: 40,
		Bench: "sw", N: 2048, Base: 16, Variant: core.ManualCnC,
		Why: "2-D wavefront with pre-declared deps (depLatch, triggered runs) instead of abort and requeue",
	},
	{
		Name: "dist2-ge-fine", Reps: 20,
		Bench: "ge", N: 512, Base: 16, Variant: core.NativeCnC, Shards: 2,
		Why: "two-shard data plane on the ge-cnc-fine instances: frames, codec, put log, verified reads",
	},
	{
		Name: "serve-open", Reps: 100,
		Fork: []Leaf{
			{"ge", 256, 16, "cnc"},
			{"sw", 1024, 16, "manual"},
			{"fw", 128, 16, "openmp"},
			{"chol", 256, 32, "tuner"},
		},
		Why: "full job life over loopback HTTP, several graphs and a pool on one executor; admission bypassed",
	},
	{
		Name: "serve-budget", Reps: 60,
		Fork: []Leaf{
			{"ge", 128, 16, "cnc"},
			{"sw", 256, 16, "manual"},
			{"chol", 256, 32, "cnc"},
		},
		MemoryBytes: 8 << 20, Budget: 32 << 20,
		Why: "every leaf carries memory_bytes: admission FIFO queueing and cnc's throttled-put path",
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (*Workload, error) {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("perfbench: unknown workload %q", name)
}

// Metric declares one named metric: the same tables feed -list, the
// emitted results, -compare and BENCHMARK.json, so they cannot drift.
type Metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline it may worsen by
}

// FailedFrac is reported with the end-to-end metrics but gated absolutely
// (any failure fails the run), so it is not a relative-bound metric and the
// manifest carries it as the contract's attempted/failed counts instead.
const FailedFrac = "failed_frac"

// EndToEnd are the metrics a user of the system sees, the same on every
// workload. A bound is about three times the widest spread (inter-quartile
// range over ten seeds, as a share of the median) the metric showed on any
// workload in three ten-seed sets on the 2-core reference host — 8.0% for
// wall_ms_p50, 9.1% for ops_per_s (a mean, so ge-fj-fine's slow tail moves
// it), 8.3% for overhead_x, 1.0% for alloc_mb_per_op, 7.0% for setup_s —
// capped at the contract's 25%.
var EndToEnd = []Metric{
	{"wall_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"overhead_x", "ratio", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer are the single-layer metrics, layer = module. A metric that does
// not apply to a workload is omitted from that workload's result.
var PerLayer = []Metric{
	{"bench.setup_ms_p50", "ms", "lower", 0},
	{"bench.verify_ms_p50", "ms", "lower", 0},
	{"bench.serial_rdp_ms_p50", "ms", "lower", 0},
	{"bench.op_ms_p90", "ms", "lower", 0},
	{"bench.op_tail_pct", "%", "higher", 0},
	{"bench.op_samples", "count", "higher", 0},
	{"bench.op_iqr_frac", "ratio", "lower", 0},
	{"bench.base_tasks", "count", "lower", 0},
	{"bench.mflops", "Mflop/s", "higher", 0},

	{"kernels.calls", "count", "lower", 0},
	{"kernels.busy_ms", "ms", "lower", 0},
	{"kernels.busy_frac", "ratio", "higher", 0},
	{"kernels.call_us_p50", "us", "lower", 0},
	{"kernels.ns_per_flop", "ns", "lower", 0},
	{"kernels.serial_ns_per_flop", "ns", "lower", 0},
	{"kernels.inflation_x", "ratio", "lower", 0},
	{"kernels.micro_ns_per_flop", "ns", "lower", 0},

	{"cnc.steps_started", "count", "lower", 0},
	{"cnc.steps_done", "count", "lower", 0},
	{"cnc.useful_frac", "ratio", "higher", 0},
	{"cnc.aborts", "count", "lower", 0},
	{"cnc.requeues", "count", "lower", 0},
	{"cnc.items_put", "count", "lower", 0},
	{"cnc.tags_put", "count", "lower", 0},
	{"cnc.triggered_runs", "count", "lower", 0},
	{"cnc.inline_runs", "count", "higher", 0},
	{"cnc.steals", "count", "lower", 0},
	{"cnc.failed_probes", "count", "lower", 0},
	{"cnc.steal_hit_frac", "ratio", "higher", 0},
	{"cnc.wakeups", "count", "lower", 0},
	{"cnc.items_freed", "count", "higher", 0},
	{"cnc.peak_live_mb", "MB", "lower", 0},
	{"cnc.backpressure_waits", "count", "lower", 0},
	{"cnc.backpressure_stalls", "count", "lower", 0},
	{"cnc.nonkernel_ms", "ms", "lower", 0},
	{"cnc.nonkernel_us_per_step", "us", "lower", 0},
	{"cnc.step_dispatch_ns", "ns", "lower", 0},
	{"cnc.item_put_ns", "ns", "lower", 0},
	{"cnc.item_get_hit_ns", "ns", "lower", 0},
	{"cnc.get_miss_requeue_ns", "ns", "lower", 0},
	{"cnc.throttled_put_ns", "ns", "lower", 0},
	{"cnc.modelled_ms", "ms", "lower", 0},
	{"cnc.unexplained_frac", "ratio", "lower", 0},

	{"forkjoin.spawned", "count", "lower", 0},
	{"forkjoin.executed", "count", "lower", 0},
	{"forkjoin.steals", "count", "lower", 0},
	{"forkjoin.failed_probes", "count", "lower", 0},
	{"forkjoin.steal_hit_frac", "ratio", "higher", 0},
	{"forkjoin.yields", "count", "lower", 0},
	{"forkjoin.nonkernel_ms", "ms", "lower", 0},
	{"forkjoin.nonkernel_us_per_task", "us", "lower", 0},
	{"forkjoin.spawn_wait_ns", "ns", "lower", 0},

	{"exec.claims", "count", "lower", 0},
	{"exec.units", "count", "lower", 0},
	{"exec.units_per_claim", "ratio", "higher", 0},
	{"exec.parks", "count", "lower", 0},
	{"exec.wakeups", "count", "lower", 0},
	{"exec.parks_per_kunit", "ratio", "lower", 0},
	{"exec.leases_peak", "count", "lower", 0},
	{"exec.notify_to_run_us", "us", "lower", 0},
	{"exec.lease_open_close_us", "us", "lower", 0},

	{"admission.admitted", "count", "higher", 0},
	{"admission.degradations", "count", "lower", 0},
	{"admission.queue_depth_max", "count", "lower", 0},
	{"admission.wait_ms_p50", "ms", "lower", 0},
	{"admission.wait_ms_p90", "ms", "lower", 0},
	{"admission.admit_release_ns", "ns", "lower", 0},

	{"dist.remote_puts", "count", "lower", 0},
	{"dist.put_frames", "count", "lower", 0},
	{"dist.puts_per_frame", "ratio", "higher", 0},
	{"dist.local_gets", "count", "lower", 0},
	{"dist.verified_reads", "count", "lower", 0},
	{"dist.race_retries", "count", "lower", 0},
	{"dist.retries", "count", "lower", 0},
	{"dist.respawns", "count", "lower", 0},
	{"dist.degradations", "count", "lower", 0},
	{"dist.bytes_out", "count", "lower", 0},
	{"dist.bytes_in", "count", "lower", 0},
	{"dist.bytes_per_put", "ratio", "lower", 0},
	{"dist.spawn_ms_p50", "ms", "lower", 0},
	{"dist.over_single_x", "ratio", "lower", 0},
	{"dist.encode_value_ns", "ns", "lower", 0},
	{"dist.decode_value_ns", "ns", "lower", 0},
	{"dist.frame_encode_ns", "ns", "lower", 0},

	{"serve.submit_ms_p50", "ms", "lower", 0},
	{"serve.status_ms_p50", "ms", "lower", 0},
	{"serve.polls_per_job", "ratio", "lower", 0},
	{"serve.client_minus_server_ms_p50", "ms", "lower", 0},
	{"serve.queued_ms_p50", "ms", "lower", 0},
	{"serve.running_ms_p50", "ms", "lower", 0},
	{"serve.metrics_scrape_ms", "ms", "lower", 0},
	{"serve.jobs_done", "count", "higher", 0},
	{"serve.jobs_failed", "count", "lower", 0},

	{"proc.mallocs_per_op", "count", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.goroutines_peak", "count", "lower", 0},
	{"proc.trace_overhead_frac", "ratio", "lower", 0},
}

// DeterministicCounts are the per-layer counts the runtimes make
// deterministic: they must repeat exactly between runs of one commit, and
// -compare fails when they differ.
var DeterministicCounts = []string{
	"kernels.calls", "bench.base_tasks", "cnc.items_put", "forkjoin.spawned", "dist.remote_puts",
}

// WriteList prints the workload and metric names (-list).
func WriteList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range Workloads {
		fmt.Fprintf(w, "  %-16s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics:")
	for _, m := range EndToEnd {
		fmt.Fprintf(w, "  %-34s %-8s %s is better, bound %.0f%%\n", m.Name, m.Unit, m.Better, m.Bound*100)
	}
	fmt.Fprintf(w, "  %-34s %-8s lower is better, bound 0 (absolute)\n", FailedFrac, "ratio")
	fmt.Fprintln(w, "per-layer metrics:")
	for _, m := range PerLayer {
		fmt.Fprintf(w, "  %-34s %-8s %s is better\n", m.Name, m.Unit, m.Better)
	}
}

// Manifest renders BENCHMARK.json from the tables above.
func Manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./cmd/dpperf"},
		Paths:      []string{"cmd/dpperf", "internal/perfbench"},
		RunSeconds: RunSeconds,
	}
	for _, w := range Workloads {
		m.Workloads = append(m.Workloads, workload{w.Name, w.Why})
	}
	for _, e := range EndToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{e.Name, e.Unit, e.Better, e.Bound})
	}
	for _, p := range PerLayer {
		m.PerLayer = append(m.PerLayer, layer{p.Name, p.Unit, p.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
