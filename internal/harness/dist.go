package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"dpflow/internal/bench"
	"dpflow/internal/core"
	"dpflow/internal/dist"
)

// Distributed-report geometry: one mid-size problem per benchmark, enough
// item traffic that the shard counters are meaningful, small enough that
// the serialised per-shard RPC data plane keeps the sweep CI-sized.
const (
	distN       = 256
	distBase    = 32
	distSeed    = 5
	distWorkers = 8
	distShards  = 2
)

// WriteDist reports every registered benchmark executed two ways: the
// in-process NativeCnC baseline, and the same graph sharded across worker
// processes through the coordinator's item backend — same code path every
// benchmark gets for free via the registry. Each row shows the wall-clock
// cost of distribution next to the shard counters (remote put ops and the
// batch frames that carried them, the mirrored puts fetched back and
// verified, transport retries, respawns, degradations, wire bytes), and
// both runs verify against the serial reference, so the table
// doubles as an end-to-end conformance check: a benchmark that breaks the
// distributed protocol fails the experiment, not just a unit test.
// puts/f is the batching amortisation — the old per-item data plane was
// pinned at 1.0.
//
// verifySample is the coordinator's mirror-verification rate (0 = the
// production default of 1-in-16, 1 = every mirrored put, negative =
// never).
func WriteDist(ctx context.Context, w io.Writer, verifySample int) error {
	fmt.Fprintf(w, "# dist: single-process vs %d-shard distributed execution, n=%d base=%d workers=%d verify-sample=%d (both verified)\n",
		distShards, distN, distBase, distWorkers, verifySample)
	fmt.Fprintf(w, "%6s %10s %10s %7s %9s %8s %7s %9s %8s %8s %8s %10s %10s\n",
		"bench", "single", "dist", "ratio", "r-puts", "p-frames", "puts/f", "verified", "retries", "respawn", "degrade", "bytes-out", "bytes-in")

	var failures []string
	for _, b := range bench.All() {
		if err := ctx.Err(); err != nil {
			return err
		}
		in, err := b.NewInstance(distN, distBase, distSeed)
		if err != nil {
			return err
		}
		single := bench.Check{}.Run(ctx, in, core.NativeCnC, bench.RunOpts{Workers: distWorkers})
		if single.Err != nil {
			failures = append(failures, fmt.Sprintf("%s single-process: %v", b.Name(), single.Err))
			continue
		}

		r := &dist.Runner{Shards: distShards, Workers: distWorkers,
			Options: dist.Options{VerifySample: verifySample}}
		res := r.Drive(b, distN, distBase, distSeed, nil)
		if res.Err != nil {
			failures = append(failures, fmt.Sprintf("%s distributed: %v", b.Name(), res.Err))
			continue
		}
		c := res.Counters
		putsPerFrame := 0.0
		if c.PutFrames > 0 {
			putsPerFrame = float64(c.RemotePuts) / float64(c.PutFrames)
		}
		fmt.Fprintf(w, "%6s %10s %10s %6.1fx %9d %8d %7.1f %9d %8d %8d %8d %10d %10d\n",
			b.Name(), single.Wall.Round(time.Millisecond), res.Wall.Round(time.Millisecond),
			float64(res.Wall)/float64(single.Wall),
			c.RemotePuts, c.PutFrames, putsPerFrame, c.VerifiedReads,
			c.Retries, c.Respawns, c.Degradations, c.BytesOut, c.BytesIn)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(w, "FAIL:", f)
		}
		return fmt.Errorf("dist: %d run(s) failed", len(failures))
	}
	fmt.Fprintln(w, "\n// both columns verified against the serial reference; mirror puts cross the socket batched,")
	fmt.Fprintln(w, "// reads never leave the coordinator, and a sample of each acked batch is fetched back and compared")
	return nil
}
