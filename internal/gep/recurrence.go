package gep

import "sort"

// This file is the one place the GEP recurrence is stated: the schedule
// walk (which sub-calls a recursive call makes, in which sequential stages)
// and the dependency relation on base tasks (which tile updates a tile
// update must wait for). Algorithm.Flow hands them to the serial, fork-join
// and CnC interpreters, and the two DAG builders of internal/dag read them
// too; none of them restates the recursion or a dependency.

// Walk visits the sub-calls of call t split r ways, in schedule order; last
// marks the final call of a stage. The call covers block (I, J) at
// elimination block K in units of S; sub-block (i, j) at local phase k is
// the call {rI+i, rJ+j, rK+k, S/r}, and Classify of those coordinates is its
// function — a block holds a pivot row only if its parent did. Each phase k
// runs three stages, A; B ∥ C; D, over the sub-blocks of that kind (Figure 2
// of the paper is r = 2): A's output feeds B and C, theirs feed D. Only a
// call of A has a diagonal sub-block, and a call of D no pivot row or
// column; the pivot row's and column's blocks interleave, (k, x) then
// (x, k), and D's are scanned row by row. Under the Triangular shape blocks
// above or left of the pivot have no work and are skipped.
func (sh Shape) Walk(t Tag, r int, visit func(sub Tag, last bool)) {
	fn := Classify(t.I, t.J, t.K)
	// The latest sub-call is held back until the next one shows whether it
	// ends its stage.
	var held Tag
	holding := false
	add := func(i, j, k int, want Func) {
		sub := Tag{r*t.I + i, r*t.J + j, r*t.K + k, t.S / r}
		if sh != Cube && (sub.I < sub.K || sub.J < sub.K) || Classify(sub.I, sub.J, sub.K) != want {
			return
		}
		if holding {
			visit(held, false)
		}
		held, holding = sub, true
	}
	endStage := func() {
		if holding {
			visit(held, true)
			holding = false
		}
	}
	for k := 0; k < r; k++ {
		if fn == FuncA {
			add(k, k, k, FuncA)
			endStage()
		}
		if fn != FuncD {
			for x := 0; x < r; x++ {
				add(k, x, k, FuncB)
				add(x, k, k, FuncC)
			}
			endStage()
		}
		for x := 0; x < r*r; x++ {
			add(x/r, x%r, k, FuncD)
		}
		endStage()
	}
}

// Preds visits the base tasks that task t — tile (I, J) at elimination
// step K of a tiles×tiles problem — must wait for, until f returns false;
// it reports whether f accepted them all.
//
//   - read-write: B, C and D read the phase's diagonal tile A(K,K,K); D
//     also reads its pivot-row tile B(K,J,K) and pivot-column tile C(I,K,K);
//   - write-write: the previous elimination step of the same tile;
//   - write-after-read, Cube only: GE's pivot tiles are final after their
//     own phase, but FW keeps updating every tile, so the task overwriting
//     a tile that served as diagonal, pivot row or pivot column in phase
//     K−1 must wait until every phase-K−1 reader of that tile is done. The
//     flag scheme of the paper's Listing 5 does not cover this hazard (it
//     surfaces as a data race as soon as two workers run FW); it lives in
//     the relation so that the runtime, the tuned dependency lists, the
//     get-counts and the simulated DAG cannot disagree about it.
func (sh Shape) Preds(tiles int, t ItemKey, f func(ItemKey) bool) bool {
	i, j, k := t.I, t.J, t.K
	fn := Classify(i, j, k)
	if fn != FuncA && !f(ItemKey{k, k, k}) {
		return false
	}
	if fn == FuncD && !(f(ItemKey{k, j, k}) && f(ItemKey{i, k, k})) {
		return false
	}
	if k == 0 {
		return true
	}
	p := k - 1
	if !f(ItemKey{i, j, p}) {
		return false
	}
	if sh != Cube || i != p && j != p {
		return true
	}
	for x := 0; x < tiles; x++ {
		switch {
		case x == p:
		case i == p && j == p: // every B and C of phase p read the old diagonal
			if !f(ItemKey{p, x, p}) || !f(ItemKey{x, p, p}) {
				return false
			}
		case i == p: // D(x, j, p) read the old pivot-row tile (p, j)
			if !f(ItemKey{x, j, p}) {
				return false
			}
		default: // D(i, x, p) read the old pivot-column tile (i, p)
			if !f(ItemKey{i, x, p}) {
				return false
			}
		}
	}
	return true
}

// Succs is the inverse of Preds: it visits the base tasks that wait for
// task t. Their number is the get-count of t's output item. The order —
// same-phase readers, the tile's next step, then the Cube
// anti-dependencies — is the order internal/simsched releases successors
// in, which its tie-break makes visible in the simulated figures.
func (sh Shape) Succs(tiles int, t ItemKey, f func(ItemKey) bool) bool {
	i, j, k := t.I, t.J, t.K
	lo := 0
	if sh == Triangular {
		lo = k
	}
	ok := true
	switch Classify(i, j, k) {
	case FuncA: // the phase's pivot row and column, then its D tasks
		for x := lo; ok && x < tiles; x++ {
			ok = x == k || f(ItemKey{k, x, k}) && f(ItemKey{x, k, k})
		}
		for x := lo; x < tiles; x++ {
			for y := lo; ok && x != k && y < tiles; y++ {
				ok = y == k || f(ItemKey{x, y, k})
			}
		}
	case FuncB: // column j of the phase's D tasks
		for x := lo; ok && x < tiles; x++ {
			ok = x == k || f(ItemKey{x, j, k})
		}
	case FuncC: // row i of the phase's D tasks
		for x := lo; ok && x < tiles; x++ {
			ok = x == k || f(ItemKey{i, x, k})
		}
	}
	if !ok || k+1 == tiles {
		return ok
	}
	if (sh == Cube || i > k && j > k) && !f(ItemKey{i, j, k + 1}) {
		return false
	}
	if sh != Cube {
		return true
	}
	switch Classify(i, j, k) {
	case FuncA:
		return true
	case FuncD: // it read pivot-column tile (i, k) and pivot-row tile (k, j)
		return f(ItemKey{i, k, k + 1}) && f(ItemKey{k, j, k + 1})
	default: // B and C read the diagonal tile (k, k)
		return f(ItemKey{k, k, k + 1})
	}
}

// Numbering numbers the base tasks of a tiles×tiles problem phase by phase,
// each phase's tiles row by row. Phase k updates the tiles (I, J) with
// I, J ≥ tri·k: under the Triangular shape (GE, tri = 1) only tiles with
// I ≥ K ∧ J ≥ K have tasks; under Cube (FW, tri = 0) every tile updates at
// every step.
func (sh Shape) Numbering(t int) Numbering[ItemKey] {
	tri := 1
	if sh == Cube {
		tri = 0
	}
	// offsets[k] is the id of the first task of phase k.
	offsets := make([]int, t+1)
	for k := 0; k < t; k++ {
		side := t - tri*k
		offsets[k+1] = offsets[k] + side*side
	}
	return Numbering[ItemKey]{
		N: offsets[t],
		ID: func(x ItemKey) int {
			lo := tri * x.K
			return offsets[x.K] + (x.I-lo)*(t-lo) + (x.J - lo)
		},
		Key: func(id int) ItemKey {
			k := 0 // the phase: Cube's all hold t² tasks, Triangular's shrink
			if tri == 0 {
				k = id / (t * t)
			} else {
				k = sort.Search(t, func(p int) bool { return offsets[p+1] > id })
			}
			lo, rem := tri*k, id-offsets[k]
			return ItemKey{I: lo + rem/(t-lo), J: lo + rem%(t-lo), K: k}
		},
	}
}
