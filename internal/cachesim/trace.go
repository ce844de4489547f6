package cachesim

import (
	"context"

	"dpflow/internal/determinacy"
	"dpflow/internal/gep"
	"dpflow/internal/matrix"
)

// TraceKernelGE returns a gep.Kernel that, instead of computing, replays
// the exact address stream of the GE base-case kernel through the
// hierarchy: per elimination step k it touches the pivot X[k][k], per row
// the multiplier X[i][k], and per inner iteration the pivot-row element
// X[k][j] and the updated element X[i][j] — the four references the paper's
// cache-miss bound accounts (§IV-B).
//
// stride is the matrix row stride in elements; base is the byte address of
// element (0,0). Running the serial interpreter of a gep.Algorithm with it
// replays the full recursive execution in program order.
func TraceKernelGE(h *Hierarchy, baseAddr int64, stride int) gep.Kernel {
	addr := func(i, j int) int64 { return baseAddr + 8*int64(i*stride+j) }
	return func(_ *matrix.Dense, i0, j0, k0, b int) {
		for k := k0; k < k0+b; k++ {
			iStart := max(i0, k+1)
			jStart := max(j0, k+1)
			jEnd := j0 + b
			if jStart >= jEnd || iStart >= i0+b {
				continue
			}
			h.Access(addr(k, k))
			for i := iStart; i < i0+b; i++ {
				h.Access(addr(i, k))
				for j := jStart; j < jEnd; j++ {
					h.Access(addr(k, j))
					h.Access(addr(i, j))
				}
			}
		}
	}
}

// TraceRDPGEContext replays the full 2-way R-DP GE execution for an n×n
// table at the given base size through the hierarchy and returns the
// per-level statistics. This is the "actual cache misses" measurement of
// Table I, with the simulated hierarchy standing in for PAPI. A full trace
// is the slow unit of Table I (~10¹¹ accesses at the paper's scale), so the
// kernel checks ctx between base blocks and the trace returns ctx.Err()
// instead of partial statistics. The recursion never touches matrix data
// (the tracing kernel only generates addresses), but the table has the
// real shape: for the scaled trace sizes the honest allocation is only a
// few MB.
func TraceRDPGEContext(ctx context.Context, h *Hierarchy, n, base int) ([]LevelStats, error) {
	alg := gep.Algorithm{Kernel: TraceKernelGE(h, 0, n), Shape: gep.Triangular}
	f, err := alg.Flow(matrix.NewSquare(n), base)
	if err != nil {
		return nil, err
	}
	kernel := f.Kernel
	f.Kernel = func(k gep.ItemKey, fr *determinacy.Frame) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return kernel(k, fr)
	}
	if err := f.Serial(); err != nil {
		return nil, err
	}
	return h.Stats(), nil
}
