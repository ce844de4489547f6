package perfbench

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
)

// Schema names the result format -out writes and -compare reads.
const Schema = "dpperf/v1"

// Fingerprint is the host and build a result was measured on. Results with
// different fingerprints (commit aside) are not comparable.
type Fingerprint struct {
	Cores      int    `json:"cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

func fingerprint(workers int) Fingerprint {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return Fingerprint{
		Cores: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: commit,
	}
}

// comparable names the first field that makes two results incomparable.
func (f Fingerprint) comparable(g Fingerprint) error {
	f.Commit, g.Commit = "", ""
	if f != g {
		return fmt.Errorf("host fingerprints differ: %+v vs %+v", f, g)
	}
	return nil
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is the round-to-round inter-quartile range of an end-to-end
	// metric as a share of its median, within the run that measured it.
	Spread float64 `json:"spread,omitempty"`
}

// WorkloadResult is everything measured on one workload.
type WorkloadResult struct {
	Name      string           `json:"name"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Errors    []string         `json:"errors,omitempty"`
	EndToEnd  map[string]Value `json:"end_to_end,omitempty"`
	PerLayer  map[string]Value `json:"per_layer,omitempty"`
}

// Result is one invocation of the benchmark.
type Result struct {
	Schema    string           `json:"schema"`
	Host      Fingerprint      `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workloads []WorkloadResult `json:"workloads"`
}

// Failed is the number of failed ops across all workloads.
func (r *Result) Failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// Save writes the result as indented JSON.
func (r *Result) Save(path string) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// Load reads a result written by Save.
func Load(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// withUnits attaches the declared units to computed values, keeping only
// declared names and finite values (a ratio with nothing under it — no op
// succeeded, or the layer does not apply — is left out).
func withUnits(table []Metric, vals, spreads map[string]float64) map[string]Value {
	out := map[string]Value{}
	for _, m := range table {
		if v, ok := vals[m.Name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[m.Name] = Value{Value: v, Unit: m.Unit, Spread: spreads[m.Name]}
		}
	}
	return out
}

// Print writes every metric of the workload by name with its unit.
func (w *WorkloadResult) Print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s: %d ops attempted, %d failed\n", w.Name, w.Attempted, w.Failed)
	for _, e := range w.Errors {
		fmt.Fprintf(out, "   error: %s\n", e)
	}
	if len(w.EndToEnd) > 0 {
		fmt.Fprintf(out, "  %-34s %14.6g %-8s\n", FailedFrac, float64(w.Failed)/float64(max(w.Attempted, 1)), "ratio")
	}
	for _, m := range EndToEnd {
		if v, ok := w.EndToEnd[m.Name]; ok {
			fmt.Fprintf(out, "  %-34s %14.6g %-8s spread %.1f%%\n", m.Name, v.Value, v.Unit, v.Spread*100)
		}
	}
	for _, m := range PerLayer {
		if v, ok := w.PerLayer[m.Name]; ok {
			fmt.Fprintf(out, "  %-34s %14.6g %-8s\n", m.Name, v.Value, v.Unit)
		}
	}
}

// ContractLine renders the one-line result the benchmark driver reads:
// exactly the end-to-end metrics (traced == false) or the per-layer metrics
// (traced == true) of the manifest. The driver expects every declared name
// on every workload, so a per-layer metric that does not apply to this
// workload — and is omitted everywhere else — reads 0 here.
func (w *WorkloadResult) ContractLine(traced bool) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	table, have := EndToEnd, w.EndToEnd
	if traced {
		table, have = PerLayer, w.PerLayer
	}
	metrics := map[string]metric{}
	for _, m := range table {
		metrics[m.Name] = metric{have[m.Name].Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{w.Failed == 0, w.Attempted, w.Failed, metrics})
}

// Compare applies the end-to-end bounds to candidate b against baseline a,
// workload by workload, and writes one row per metric. A metric whose own
// round-to-round spread (on either side) exceeds its bound is unresolved,
// not unchanged. It returns an error when the results are not comparable,
// and ok == false when a metric regressed past its bound, an op failed, or
// a deterministic count differs.
func Compare(out io.Writer, a, b *Result) (ok bool, err error) {
	if err := a.Host.comparable(b.Host); err != nil {
		return false, err
	}
	if a.Seconds != b.Seconds {
		return false, fmt.Errorf("run lengths differ: -seconds %d vs %d", a.Seconds, b.Seconds)
	}
	base := map[string]*WorkloadResult{}
	for i := range a.Workloads {
		base[a.Workloads[i].Name] = &a.Workloads[i]
	}
	ok = true
	unresolved := 0
	for i := range b.Workloads {
		wb := &b.Workloads[i]
		wa := base[wb.Name]
		delete(base, wb.Name)
		if wa == nil {
			fmt.Fprintf(out, "%-16s only in the candidate, skipped\n", wb.Name)
			continue
		}
		if wb.Failed > 0 {
			ok = false
			fmt.Fprintf(out, "%-16s %-18s %d of %d ops failed  REGRESSED (bound 0, absolute)\n", wb.Name, FailedFrac, wb.Failed, wb.Attempted)
		}
		for _, m := range EndToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case va.Spread > m.Bound || vb.Spread > m.Bound:
				verdict = "UNRESOLVED (spread exceeds bound)"
				unresolved++
			case worse > m.Bound:
				verdict = "REGRESSED"
				ok = false
			}
			fmt.Fprintf(out, "%-16s %-18s %12.6g -> %12.6g %-6s %+6.1f%% worse (bound %.0f%%, spreads %.1f%%/%.1f%%)  %s\n",
				wb.Name, m.Name, va.Value, vb.Value, m.Unit, worse*100, m.Bound*100, va.Spread*100, vb.Spread*100, verdict)
		}
		for _, name := range DeterministicCounts {
			va, okA := wa.PerLayer[name]
			vb, okB := wb.PerLayer[name]
			if okA && okB && va.Value != vb.Value {
				ok = false
				fmt.Fprintf(out, "%-16s %-18s %v -> %v  DIFFERS (deterministic count)\n", wb.Name, name, va.Value, vb.Value)
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(base)) {
		fmt.Fprintf(out, "%-16s only in the baseline, skipped\n", name)
	}
	fmt.Fprintf(out, "compare: ok=%v, %d unresolved\n", ok, unresolved)
	return ok, nil
}
