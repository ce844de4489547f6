// Package graphgen generates random weighted digraphs as dense distance
// matrices — the FW-APSP workload generator. Edge weights are small
// integers (stored in float64) so min-plus arithmetic is exact and every
// implementation produces bit-identical distance matrices.
package graphgen

import (
	"math/rand"

	"dpflow/internal/matrix"
)

// Infinity is the distance used for absent edges. It is large enough to
// dominate any real path yet small enough that sums of two infinities do
// not overflow float64 precision (so min-plus arithmetic stays exact for
// integer edge weights).
const Infinity = 1 << 30

// Config controls random graph generation.
type Config struct {
	N         int     // number of vertices
	Density   float64 // probability of each directed edge, in (0, 1]
	MaxWeight int     // weights drawn uniformly from [1, MaxWeight]
	Infinity  float64 // distance for absent edges (0 = Infinity)
}

// Random returns the dense adjacency/distance matrix of a random digraph:
// 0 on the diagonal, a random integer weight for present edges, and
// cfg.Infinity for absent ones.
func Random(cfg Config, rng *rand.Rand) *matrix.Dense {
	if cfg.MaxWeight < 1 {
		cfg.MaxWeight = 10
	}
	if cfg.Infinity == 0 {
		cfg.Infinity = Infinity
	}
	if cfg.Density <= 0 || cfg.Density > 1 {
		cfg.Density = 0.5
	}
	d := matrix.NewSquare(cfg.N)
	for i := 0; i < cfg.N; i++ {
		row := d.Row(i)
		for j := range row {
			switch {
			case i == j:
				row[j] = 0
			case rng.Float64() < cfg.Density:
				row[j] = float64(1 + rng.Intn(cfg.MaxWeight))
			default:
				row[j] = cfg.Infinity
			}
		}
	}
	return d
}

// Ring returns a directed ring graph: vertex i connects to (i+1) mod n with
// weight 1, everything else at infinity. Its APSP solution is known in
// closed form — distance(i, j) = (j - i) mod n — which makes it a good
// oracle for correctness tests.
func Ring(n int, infinity float64) *matrix.Dense {
	d := matrix.NewSquare(n)
	for i := 0; i < n; i++ {
		row := d.Row(i)
		for j := range row {
			switch {
			case i == j:
				row[j] = 0
			case (i+1)%n == j:
				row[j] = 1
			default:
				row[j] = infinity
			}
		}
	}
	return d
}

// RingDistance is the closed-form APSP distance of the ring graph.
func RingDistance(n, i, j int) float64 {
	return float64(((j-i)%n + n) % n)
}
