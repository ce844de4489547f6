// The per-base-task closed forms of the paper's analytical model (§IV-B):
// the GEP-update forms GE, FW and chol share, and SW's. internal/model
// keeps the machine-dependent pricing (MemTime, ExecTime, CostsFor) and
// consumes these through the Benchmark interface.
package bench

import (
	"math"

	"dpflow/internal/dag"
	"dpflow/internal/gep"
)

// closedForms are an entry's per-base-task closed forms: floating-point
// operations, the three-line cache-miss upper bound, and the
// streaming-regime line traffic of one m×m base task of the given kind.
type closedForms interface {
	Flops(kind dag.Kind, m int) float64
	MaxMissBound(kind dag.Kind, m, lineBytes int) float64
	StreamLines(kind dag.Kind, m, lineBytes int) float64
}

// gepForms are the GEP-update closed forms over a shape: two flops (a
// multiply and a subtract, or FW's add and compare) per update plus
// rowFlops per row pair — m² of them per task; GE's amortised division,
// chol's division and square root — and the miss bound over the kernels'
// rows and segments, which shrink with the step over the triangular update
// set and are full rows over the cube.
type gepForms struct {
	shape    gep.Shape
	rowFlops float64
}

func (c gepForms) Flops(kind dag.Kind, m int) float64 {
	return 2*float64(Updates(kind, m, c.shape)) + c.rowFlops*float64(m*m)
}

func (c gepForms) MaxMissBound(kind dag.Kind, m, lineBytes int) float64 {
	if c.shape == gep.Cube {
		kind = dag.KindD // every FW kind sweeps full rows
	}
	return missBoundLoop(m, lineBytes, triangularGeom(kind, m))
}

func (c gepForms) StreamLines(kind dag.Kind, m, lineBytes int) float64 {
	return streamLinesOf(float64(Updates(kind, m, c.shape)), m, lineBytes)
}

// swForms are SW's closed forms: a cell costs about eight operations (three
// candidate scores, a max chain and the zero clamp); per row the kernel
// touches three row segments (above, above-left, own) plus the two sequence
// elements.
type swForms struct{}

func (swForms) Flops(_ dag.Kind, m int) float64 { return 8 * float64(m*m) }

func (swForms) MaxMissBound(_ dag.Kind, m, lineBytes int) float64 {
	return float64(m) * (3*segLines(m, lineBytes) + 2)
}

func (swForms) StreamLines(_ dag.Kind, m, lineBytes int) float64 {
	return streamLinesOf(float64(3*m*m), m, lineBytes)
}

// Updates returns the number of DP-table update operations a base task of
// the given kind performs on an m×m tile, for the given shape.
func Updates(kind dag.Kind, m int, shape gep.Shape) int {
	if kind == dag.KindSW {
		return m * m
	}
	if shape == gep.Cube {
		return m * m * m
	}
	switch kind {
	case dag.KindA:
		return (m - 1) * m * (2*m - 1) / 6 // Σ (m-1-k)²
	case dag.KindB, dag.KindC:
		return m * m * (m - 1) / 2 // Σ (m-1-k)·m
	case dag.KindD:
		return m * m * m
	default:
		return 0
	}
}

// WorkingSetBytes is the paper's three-block working set of a base task.
func WorkingSetBytes(m int) int { return 3 * m * m * 8 }

// CompulsoryLines is the minimum line traffic of a base task: streaming
// three m×m blocks once.
func CompulsoryLines(m, lineBytes int) float64 {
	lw := float64(lineBytes) / 8
	return math.Ceil(3 * float64(m*m) / lw)
}

// segLines is the line count of a contiguous segment of elems doubles.
func segLines(elems, lineBytes int) float64 {
	if elems <= 0 {
		return 0
	}
	return math.Ceil(float64(elems) / (float64(lineBytes) / 8))
}

// missBoundLoop evaluates the paper's per-task upper bound on cache misses
// assuming the cache holds no more than three lines: for every (k, i)
// iteration pair the kernel touches the C[i][j·] segment, the C[k][j·]
// segment, C[i][k] and C[k][k] — two segment transfers plus two single
// lines. geom reports the i iterations and j-segment length at step k.
func missBoundLoop(m, lineBytes int, geom func(k int) (rows, segLen int)) float64 {
	total := 0.0
	for k := 0; k < m; k++ {
		rows, segLen := geom(k)
		if rows <= 0 || segLen <= 0 {
			continue
		}
		total += float64(rows) * (2*segLines(segLen, lineBytes) + 2)
	}
	return total
}

// triangularGeom is the (rows, segment-length) geometry of the GE-family
// kernels over the triangular update set, by task kind.
func triangularGeom(kind dag.Kind, m int) func(k int) (int, int) {
	switch kind {
	case dag.KindA:
		return func(k int) (int, int) { return m - 1 - k, m - 1 - k }
	case dag.KindB:
		return func(k int) (int, int) { return m - 1 - k, m }
	case dag.KindC:
		return func(k int) (int, int) { return m, m - 1 - k }
	default: // KindD
		return func(k int) (int, int) { return m, m }
	}
}

// streamLinesOf is the realistic per-task traffic at a level whose capacity
// cannot hold the three-block working set: one line transfer per lw update
// operations, plus the compulsory streaming of the blocks themselves.
func streamLinesOf(updates float64, m, lineBytes int) float64 {
	return updates/(float64(lineBytes)/8) + CompulsoryLines(m, lineBytes)
}
