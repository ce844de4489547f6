package chaos

import (
	"context"
	"fmt"

	"dpflow/internal/cnc"
	"dpflow/internal/determinacy"
	"dpflow/internal/exec"
)

// Schedule is one execution schedule for a determinism audit: the worker
// count the run builds its graphs with and the steal policy installed on
// each of them. Varying both between the two audit runs perturbs the order
// steps execute in about as much as the runtime allows without changing the
// program.
type Schedule struct {
	Workers int
	Steal   exec.StealPolicy
}

// AuditRun is a schedule-parameterised workload for DeterminismAudit. It
// must build its graphs with the given worker count, call tune on every
// graph before running it, and keep no state across invocations — the audit
// calls it twice, once per schedule.
type AuditRun func(ctx context.Context, workers int, tune func(*cnc.Graph)) error

// DeterminismAudit replays run under two schedules with discipline checking
// installed and diffs the item-store fingerprints of the two executions. A
// determinate CnC program must put identical item contents under any
// schedule, so any returned difference is a determinism bug; a discipline
// violation or run failure during either replay surfaces as err instead.
// The fingerprint covers every item the last graph of each run put,
// independent of get-count GC (determinacy.DisciplineChecker.Fingerprint).
func DeterminismAudit(ctx context.Context, run AuditRun, a, b Schedule) ([]string, error) {
	fa, err := auditOnce(ctx, run, a)
	if err != nil {
		return nil, fmt.Errorf("chaos: determinism audit baseline schedule (%d workers): %w", a.Workers, err)
	}
	fb, err := auditOnce(ctx, run, b)
	if err != nil {
		return nil, fmt.Errorf("chaos: determinism audit permuted schedule (%d workers): %w", b.Workers, err)
	}
	return determinacy.DiffFingerprints(fa, fb), nil
}

// auditOnce executes run under one schedule and returns the item-store
// fingerprint of its last graph. A fresh checker per graph keeps multi-graph
// runs (tuner probes before the main graph) from polluting the fingerprint
// with probe-sized items.
func auditOnce(ctx context.Context, run AuditRun, s Schedule) (map[string]string, error) {
	var last *determinacy.DisciplineChecker
	err := run(ctx, s.Workers, func(g *cnc.Graph) {
		dc := determinacy.NewDisciplineChecker()
		g.SetStealPolicy(s.Steal)
		g.WithDisciplineCheck(dc)
		last = dc
	})
	if err != nil {
		return nil, err
	}
	if last == nil {
		return nil, fmt.Errorf("run built no graphs: tune never called")
	}
	if verr := last.Err(); verr != nil {
		return nil, verr
	}
	return last.Fingerprint(), nil
}
