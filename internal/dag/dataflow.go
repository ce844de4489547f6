package dag

import (
	"fmt"
	"sort"

	"dpflow/internal/gep"
	"dpflow/internal/sw"
)

// GEPDataflow is the analytic data-flow graph of a GEP benchmark at tile
// granularity: one task per (tile, elimination step), its edges the
// dependency relation the CnC item collections enforce (gep.Shape.Preds and
// Succs — FW's write-after-read anti-dependencies included). This type adds
// only the index space: under the Triangular shape (GE) only tiles with
// I ≥ K ∧ J ≥ K have tasks; under Cube (FW) every tile updates at every
// step.
type GEPDataflow struct {
	T     int
	Shape gep.Shape
	// offsets[k] is the id of the first task of phase k (triangular only).
	offsets []int
	n       int
}

// NewGEPDataflow builds the graph for a tiles×tiles grid.
func NewGEPDataflow(tiles int, shape gep.Shape) *GEPDataflow {
	if tiles < 1 {
		panic(fmt.Sprintf("dag: tiles = %d", tiles))
	}
	g := &GEPDataflow{T: tiles, Shape: shape}
	if shape == gep.Cube {
		g.n = tiles * tiles * tiles
		return g
	}
	g.offsets = make([]int, tiles+1)
	for k := 0; k < tiles; k++ {
		side := tiles - k
		g.offsets[k+1] = g.offsets[k] + side*side
	}
	g.n = g.offsets[tiles]
	return g
}

// Len implements Graph.
func (g *GEPDataflow) Len() int { return g.n }

// ID returns the task id of tile (i, j) at phase k. It panics when the
// coordinates are outside the task space.
func (g *GEPDataflow) ID(i, j, k int) int {
	t := g.T
	if k < 0 || k >= t || i < 0 || i >= t || j < 0 || j >= t {
		panic(fmt.Sprintf("dag: coordinates (%d,%d,%d) outside %d tiles", i, j, k, t))
	}
	if g.Shape == gep.Cube {
		return k*t*t + i*t + j
	}
	if i < k || j < k {
		panic(fmt.Sprintf("dag: (%d,%d,%d) has no task under the triangular shape", i, j, k))
	}
	side := t - k
	return g.offsets[k] + (i-k)*side + (j - k)
}

// Coords decodes a task id to (i, j, k).
func (g *GEPDataflow) Coords(id int) (i, j, k int) {
	t := g.T
	if g.Shape == gep.Cube {
		rem := id % (t * t)
		return rem / t, rem % t, id / (t * t)
	}
	k = sort.Search(t, func(p int) bool { return g.offsets[p+1] > id }) // phase
	rem := id - g.offsets[k]
	side := t - k
	return k + rem/side, k + rem%side, k
}

// Kind implements Graph.
func (g *GEPDataflow) Kind(id int) Kind {
	i, j, k := g.Coords(id)
	return kindOf(gep.Classify(i, j, k))
}

func kindOf(f gep.Func) Kind {
	switch f {
	case gep.FuncA:
		return KindA
	case gep.FuncB:
		return KindB
	case gep.FuncC:
		return KindC
	default:
		return KindD
	}
}

func (g *GEPDataflow) key(id int) gep.ItemKey {
	i, j, k := g.Coords(id)
	return gep.ItemKey{I: i, J: j, K: k}
}

// InDeg implements Graph.
func (g *GEPDataflow) InDeg(id int) int {
	d := 0
	g.Shape.Preds(g.T, g.key(id), func(gep.ItemKey) bool { d++; return true })
	return d
}

// EachSucc implements Graph.
func (g *GEPDataflow) EachSucc(id int, f func(int)) {
	g.Shape.Succs(g.T, g.key(id), func(s gep.ItemKey) bool { f(g.ID(s.I, s.J, s.K)); return true })
}

// SWDataflow is the analytic wavefront graph of Smith-Waterman at tile
// granularity: task (I, J) depends on its west, north and north-west
// neighbours (sw.Preds and Succs).
type SWDataflow struct {
	T int
}

// NewSWDataflow builds the graph for a tiles×tiles grid.
func NewSWDataflow(tiles int) *SWDataflow {
	if tiles < 1 {
		panic(fmt.Sprintf("dag: tiles = %d", tiles))
	}
	return &SWDataflow{T: tiles}
}

// Len implements Graph.
func (g *SWDataflow) Len() int { return g.T * g.T }

// ID returns the task id of tile (i, j).
func (g *SWDataflow) ID(i, j int) int { return i*g.T + j }

// Coords decodes a task id.
func (g *SWDataflow) Coords(id int) (i, j int) { return id / g.T, id % g.T }

// Kind implements Graph.
func (g *SWDataflow) Kind(int) Kind { return KindSW }

// InDeg implements Graph.
func (g *SWDataflow) InDeg(id int) int {
	i, j := g.Coords(id)
	d := 0
	sw.Preds(g.T, sw.TileKey{I: i, J: j}, func(sw.TileKey) bool { d++; return true })
	return d
}

// EachSucc implements Graph.
func (g *SWDataflow) EachSucc(id int, f func(int)) {
	i, j := g.Coords(id)
	sw.Succs(g.T, sw.TileKey{I: i, J: j}, func(s sw.TileKey) bool { f(g.ID(s.I, s.J)); return true })
}
