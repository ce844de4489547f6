package perfbench

import (
	"maps"
	"math"
	"time"
)

const mb = 1 << 20 // "MB" in every metric is 2^20 bytes, like the serve budgets

// column extracts one number per successful sample of the pass, optionally
// of one round only (round < 0: all rounds).
func (p *pass) column(round int, f func(*sample) float64) []float64 {
	var xs []float64
	for i := range p.samples {
		s := &p.samples[i]
		if !s.failed && (round < 0 || s.round == round) {
			xs = append(xs, f(s))
		}
	}
	return xs
}

func (p *pass) med(f func(*sample) float64) float64 { return Median(p.column(-1, f)) }

func (p *pass) sum(f func(*sample) float64) float64 {
	t := 0.0
	for _, x := range p.column(-1, f) {
		t += x
	}
	return t
}

func wallMS(s *sample) float64 { return ms(s.wall) }

// serialRDP is the median Serial_RDP time, in ms, of the op's instance
// parameters over the given round (or all): the reference leg for compute
// and dist, the sum over the root's leaves for serve.
func (p *pass) serialRDP(round int) float64 {
	if !p.w.IsServe() {
		return Median(p.column(round, func(s *sample) float64 { return ms(s.ref) }))
	}
	total := 0.0
	for leaf := range p.w.Fork {
		var xs []time.Duration
		for r, refs := range p.leafRef {
			if round < 0 || r == round {
				xs = append(xs, refs[leaf]...)
			}
		}
		total += Median(msAll(xs))
	}
	return total
}

// endToEnd computes the end-to-end metrics over one round, or over the
// whole pass for round < 0.
func (p *pass) endToEnd(round int) map[string]float64 {
	wall := Median(p.column(round, wallMS))
	var attempted, verified, windows, alloc float64
	for i := range p.samples {
		s := &p.samples[i]
		if round >= 0 && s.round != round {
			continue
		}
		attempted++
		alloc += float64(s.alloc)
		windows += s.wall.Seconds()
		switch {
		case s.sv != nil:
			verified += float64(s.sv.verified)
		case !s.failed:
			verified++
		}
	}
	if p.w.IsServe() {
		// Clients overlap, so the denominator is the measured window.
		windows = 0
		for r, w := range p.roundWindow {
			if round < 0 || r == round {
				windows += w.Seconds()
			}
		}
	}
	setup := Median(msAll(p.roundSetup)) / 1e3
	if round >= 0 {
		setup = p.roundSetup[round].Seconds()
	}
	return map[string]float64{
		"wall_ms_p50":     wall,
		"ops_per_s":       verified / windows,
		"overhead_x":      wall / p.serialRDP(round),
		"alloc_mb_per_op": alloc / attempted / mb,
		"setup_s":         setup,
	}
}

// spreads is, per end-to-end metric, the inter-quartile range of its
// per-round values as a share of their median: the run's own estimate of
// how far the metric moves with nothing changed.
func (p *pass) spreads() map[string]float64 {
	per := map[string][]float64{}
	for r := range p.roundSetup {
		for name, v := range p.endToEnd(r) {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				per[name] = append(per[name], v)
			}
		}
	}
	out := map[string]float64{}
	for name, xs := range per {
		out[name] = IQRFrac(xs)
	}
	return out
}

// perLayer assembles the per-layer metrics of a workload from its untraced
// pass u (op timing, allocation, GC), its traced pass t (counters, kernel
// brackets, client observations) and the micro probes. A metric that does
// not apply to the workload is left out.
func perLayer(u, t *pass, micro map[string]float64) map[string]float64 {
	w := t.w
	out := maps.Clone(micro)

	// Closed forms from the registry.
	var tasks, flops, depGets float64
	leaves := w.Fork
	if !w.IsServe() {
		leaves = []Leaf{{Bench: w.Bench, N: w.N, Base: w.Base}}
	}
	for _, l := range leaves {
		g := geometryOf(mustBench(l.Bench), l.N, l.Base)
		tasks, flops, depGets = tasks+float64(g.tasks), flops+g.flops, depGets+g.depGets
	}

	// bench: the op as the registry's Instance API shows it.
	walls := u.column(-1, wallMS)
	pct := TailPercentile(len(walls))
	out["bench.op_ms_p90"] = Quantile(walls, pct/100)
	out["bench.op_tail_pct"] = pct
	out["bench.op_samples"] = float64(len(walls))
	out["bench.op_iqr_frac"] = IQRFrac(walls)
	out["bench.serial_rdp_ms_p50"] = u.serialRDP(-1)
	out["bench.base_tasks"] = tasks
	out["bench.mflops"] = flops / (Median(walls) * 1e3)
	if !w.IsServe() {
		out["bench.setup_ms_p50"] = u.med(func(s *sample) float64 { return ms(s.setup) })
	}
	if !w.IsServe() && !w.IsDist() {
		out["bench.verify_ms_p50"] = u.med(func(s *sample) float64 { return ms(s.verify) })
	}

	// proc: the Go runtime under every layer.
	out["proc.mallocs_per_op"] = u.sum(func(s *sample) float64 { return float64(s.mallocs) }) / float64(len(walls))
	out["proc.gc_cycles"] = float64(u.gcCycles)
	out["proc.gc_pause_ms"] = ms(u.gcPause)
	out["proc.goroutines_peak"] = float64(t.goroutinesPeak)
	out["proc.trace_overhead_frac"] = t.med(wallMS)/Median(walls) - 1

	// exec: counter deltas of the workload's executor over op windows.
	claims := t.sum(func(s *sample) float64 { return float64(s.ex.Claims) })
	units := t.sum(func(s *sample) float64 { return float64(s.ex.Units) })
	parks := t.sum(func(s *sample) float64 { return float64(s.ex.Parks) })
	out["exec.claims"] = t.med(func(s *sample) float64 { return float64(s.ex.Claims) })
	out["exec.units"] = t.med(func(s *sample) float64 { return float64(s.ex.Units) })
	out["exec.parks"] = t.med(func(s *sample) float64 { return float64(s.ex.Parks) })
	out["exec.wakeups"] = t.med(func(s *sample) float64 { return float64(s.ex.Wakeups) })
	out["exec.units_per_claim"] = units / claims
	out["exec.parks_per_kunit"] = parks / (units / 1e3)
	out["exec.leases_peak"] = float64(t.leasesPeak)

	switch {
	case w.IsServe():
		serveLayers(t, out)
	case w.IsDist():
		distLayers(t, out)
		cncCounters(t, out)
	default:
		computeLayers(t, out, flops, depGets)
	}
	return out
}

// cncCounters reports gep.CnCStats per op.
func cncCounters(t *pass, out map[string]float64) {
	c := func(name string, f func(*sample) float64) { out["cnc."+name] = t.med(f) }
	c("steps_started", func(s *sample) float64 { return float64(s.cnc.StepsStarted) })
	c("steps_done", func(s *sample) float64 { return float64(s.cnc.StepsDone) })
	c("aborts", func(s *sample) float64 { return float64(s.cnc.Aborts) })
	c("requeues", func(s *sample) float64 { return float64(s.cnc.Requeues) })
	c("items_put", func(s *sample) float64 { return float64(s.cnc.ItemsPut) })
	c("tags_put", func(s *sample) float64 { return float64(s.cnc.TagsPut) })
	c("triggered_runs", func(s *sample) float64 { return float64(s.cnc.TriggeredRuns) })
	c("inline_runs", func(s *sample) float64 { return float64(s.cnc.InlineRuns) })
	c("steals", func(s *sample) float64 { return float64(s.cnc.Steals) })
	c("failed_probes", func(s *sample) float64 { return float64(s.cnc.FailedProbes) })
	c("wakeups", func(s *sample) float64 { return float64(s.cnc.Wakeups) })
	c("items_freed", func(s *sample) float64 { return float64(s.cnc.ItemsFreed) })
	c("peak_live_mb", func(s *sample) float64 { return float64(s.cnc.PeakLiveBytes) / mb })
	c("backpressure_waits", func(s *sample) float64 { return float64(s.cnc.BackpressureWaits) })
	c("backpressure_stalls", func(s *sample) float64 { return float64(s.cnc.BackpressureStalls) })
	out["cnc.useful_frac"] = out["cnc.steps_done"] / out["cnc.steps_started"]
	out["cnc.steal_hit_frac"] = out["cnc.steals"] / (out["cnc.steals"] + out["cnc.failed_probes"])
}

// computeLayers reports the kernel brackets of a traced single-process
// pass and splits the rest of the workers' time by runtime.
func computeLayers(t *pass, out map[string]float64, flops, depGets float64) {
	busy := t.med(func(s *sample) float64 { return ms(s.busy) })
	out["kernels.calls"] = t.med(func(s *sample) float64 { return float64(s.calls) })
	out["kernels.busy_ms"] = busy
	out["kernels.busy_frac"] = t.med(func(s *sample) float64 { return float64(s.busy) / float64(s.busy+s.nonkernel) })
	out["kernels.call_us_p50"] = t.med(func(s *sample) float64 { return float64(s.callP50) / 1e3 })
	out["kernels.ns_per_flop"] = busy * 1e6 / flops
	// The serial reference is bracketed like the subject wherever the
	// registry passes Trace to it; where it does not (chol's TiledSerial)
	// the serial run is all kernel and its wall stands in.
	serial := t.med(func(s *sample) float64 {
		if s.refCalls > 0 {
			return ms(s.refBusy)
		}
		return ms(s.ref)
	})
	out["kernels.serial_ns_per_flop"] = serial * 1e6 / flops
	out["kernels.inflation_x"] = busy / serial

	// Worker-time not inside a kernel bracket is bench.run's self time
	// (SelfTime), so kernel and non-kernel time sum to W × wall by
	// construction.
	capacity := t.med(func(s *sample) float64 { return ms(s.busy + s.nonkernel) })
	nonkernel := t.med(func(s *sample) float64 { return ms(s.nonkernel) })
	if !t.w.Variant.IsCnC() {
		out["forkjoin.spawned"] = t.med(func(s *sample) float64 { return float64(s.fj.Spawned) })
		out["forkjoin.executed"] = t.med(func(s *sample) float64 { return float64(s.fj.Executed) })
		out["forkjoin.steals"] = t.med(func(s *sample) float64 { return float64(s.fj.Steals) })
		out["forkjoin.failed_probes"] = t.med(func(s *sample) float64 { return float64(s.fj.FailedProbes) })
		out["forkjoin.yields"] = t.med(func(s *sample) float64 { return float64(s.fj.Yields) })
		out["forkjoin.steal_hit_frac"] = out["forkjoin.steals"] / (out["forkjoin.steals"] + out["forkjoin.failed_probes"])
		out["forkjoin.nonkernel_ms"] = nonkernel
		out["forkjoin.nonkernel_us_per_task"] = nonkernel * 1e3 / out["forkjoin.executed"]
		return
	}
	cncCounters(t, out)
	out["cnc.nonkernel_ms"] = nonkernel
	out["cnc.nonkernel_us_per_step"] = nonkernel * 1e3 / out["cnc.steps_started"]
	// Reconciliation: counts × micro unit costs. A completed step pays one
	// dispatch and its declared gets as hits; every abort pays the miss
	// path (aborted run, park, requeue, re-dispatch).
	modelled := (out["cnc.steps_done"]*out["cnc.step_dispatch_ns"] +
		out["cnc.items_put"]*out["cnc.item_put_ns"] +
		depGets*out["cnc.item_get_hit_ns"] +
		out["cnc.aborts"]*out["cnc.get_miss_requeue_ns"] +
		out["cnc.backpressure_waits"]*out["cnc.throttled_put_ns"]) / 1e6
	out["cnc.modelled_ms"] = modelled
	out["cnc.unexplained_frac"] = 1 - (busy+modelled)/capacity
}

func distLayers(t *pass, out map[string]float64) {
	c := func(name string, f func(*sample) float64) { out["dist."+name] = t.med(f) }
	c("remote_puts", func(s *sample) float64 { return float64(s.counters.RemotePuts) })
	c("put_frames", func(s *sample) float64 { return float64(s.counters.PutFrames) })
	c("local_gets", func(s *sample) float64 { return float64(s.counters.LocalGets) })
	c("verified_reads", func(s *sample) float64 { return float64(s.counters.VerifiedReads) })
	c("race_retries", func(s *sample) float64 { return float64(s.counters.RaceRetries) })
	c("retries", func(s *sample) float64 { return float64(s.counters.Retries) })
	c("respawns", func(s *sample) float64 { return float64(s.counters.Respawns) })
	c("degradations", func(s *sample) float64 { return float64(s.counters.Degradations) })
	c("bytes_out", func(s *sample) float64 { return float64(s.counters.BytesOut) })
	c("bytes_in", func(s *sample) float64 { return float64(s.counters.BytesIn) })
	out["dist.puts_per_frame"] = out["dist.remote_puts"] / out["dist.put_frames"]
	out["dist.bytes_per_put"] = out["dist.bytes_out"] / out["dist.remote_puts"]
	// Drive builds the instance before it spawns; the reference leg built
	// the same instance, so its build time stands in for Drive's.
	c("spawn_ms_p50", func(s *sample) float64 { return ms(s.drive - s.wall - s.setup) })
	out["dist.over_single_x"] = t.med(wallMS) / t.med(func(s *sample) float64 { return ms(s.single) })
}

func serveLayers(t *pass, out map[string]float64) {
	sv := func(name string, f func(*serveSample) float64) {
		out[name] = t.med(func(s *sample) float64 { return f(s.sv) })
	}
	var status, waits []float64
	for i := range t.samples {
		if s := &t.samples[i]; !s.failed {
			status = append(status, msAll(s.sv.status)...)
			waits = append(waits, msAll(s.sv.leafWaits)...)
		}
	}
	sv("serve.submit_ms_p50", func(v *serveSample) float64 { return ms(v.submit) })
	out["serve.status_ms_p50"] = Median(status)
	sv("serve.polls_per_job", func(v *serveSample) float64 { return float64(len(v.status)) })
	out["serve.client_minus_server_ms_p50"] = t.med(func(s *sample) float64 { return ms(s.wall - s.sv.serverElapsed) })
	sv("serve.queued_ms_p50", func(v *serveSample) float64 { return ms(v.queued) })
	sv("serve.running_ms_p50", func(v *serveSample) float64 { return ms(v.running) })
	out["serve.metrics_scrape_ms"] = Median(msAll(t.scrape))
	out["serve.jobs_done"] = t.jobsDone
	out["serve.jobs_failed"] = t.jobsFailed

	out["admission.admitted"] = float64(t.admitted)
	out["admission.degradations"] = float64(t.degradations)
	out["admission.queue_depth_max"] = float64(t.queueDepthMax)
	out["admission.wait_ms_p50"] = Median(waits)
	out["admission.wait_ms_p90"] = Quantile(waits, 0.9)

	// The subset of cnc.Stats a job's Status exposes, summed over a root's
	// leaves (steps_done includes fork-join leaves' executed tasks).
	sv("cnc.steps_done", func(v *serveSample) float64 { return float64(v.stats.StepsDone) })
	sv("cnc.items_put", func(v *serveSample) float64 { return float64(v.stats.ItemsPut) })
	sv("cnc.tags_put", func(v *serveSample) float64 { return float64(v.stats.TagsPut) })
	sv("cnc.steals", func(v *serveSample) float64 { return float64(v.stats.Steals) })
	sv("cnc.wakeups", func(v *serveSample) float64 { return float64(v.stats.Wakeups) })
	sv("cnc.peak_live_mb", func(v *serveSample) float64 { return float64(v.stats.PeakLiveBytes) / mb })
	sv("cnc.backpressure_waits", func(v *serveSample) float64 { return float64(v.stats.BackpressureWaits) })
	sv("cnc.backpressure_stalls", func(v *serveSample) float64 { return float64(v.stats.BackpressureStalls) })
}
