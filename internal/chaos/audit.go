package chaos

import (
	"context"
	"fmt"

	"dpflow/internal/cnc"
	"dpflow/internal/determinacy"
)

// AuditRun is a schedule-parameterised workload for DeterminismAudit. It
// must build its graph with the given worker count, call tune on it before
// running it, and keep no state across invocations — the audit calls it
// twice, once per schedule.
type AuditRun func(ctx context.Context, workers int, tune func(*cnc.Graph)) error

// DeterminismAudit replays run with discipline checking installed at two
// worker counts, a and b, and diffs the item-store fingerprints of the two
// executions. A determinate CnC program must put identical item contents
// under any schedule, so any returned difference is a determinism bug; a
// discipline violation or run failure during either replay surfaces as err
// instead. The fingerprint covers every item the run's graph put,
// independent of get-count GC (determinacy.DisciplineChecker.Fingerprint).
func DeterminismAudit(ctx context.Context, run AuditRun, a, b int) ([]string, error) {
	fa, err := auditOnce(ctx, run, a)
	if err != nil {
		return nil, fmt.Errorf("chaos: determinism audit baseline schedule (%d workers): %w", a, err)
	}
	fb, err := auditOnce(ctx, run, b)
	if err != nil {
		return nil, fmt.Errorf("chaos: determinism audit permuted schedule (%d workers): %w", b, err)
	}
	return determinacy.DiffFingerprints(fa, fb), nil
}

// auditOnce executes run at the given worker count and returns the
// item-store fingerprint of the graph it built.
func auditOnce(ctx context.Context, run AuditRun, workers int) (map[string]string, error) {
	dc := determinacy.NewDisciplineChecker()
	tuned := false
	err := run(ctx, workers, func(g *cnc.Graph) {
		g.WithDisciplineCheck(dc)
		tuned = true
	})
	if err != nil {
		return nil, err
	}
	if !tuned {
		return nil, fmt.Errorf("run built no graph: tune never called")
	}
	if verr := dc.Err(); verr != nil {
		return nil, verr
	}
	return dc.Fingerprint(), nil
}
