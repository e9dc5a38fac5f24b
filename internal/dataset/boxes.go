package dataset

import (
	"math/rand"

	"repro/internal/geom"
)

// RandomBoxes places count query hyper-cubes with side sigma (fraction of
// the axis) uniformly in the preference domain, following the paper's setup
// ("axis-parallel hyper-cubes R randomly generated in the preference
// domain"). Centers are drawn uniformly from the weight simplex and the box
// is shrunk into the domain, so every returned region is valid.
func RandomBoxes(dim int, sigma float64, count int, seed int64) []*geom.Region {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*geom.Region, 0, count)
	for len(out) < count {
		// Uniform point on the d-simplex via normalized exponentials; its
		// first dim coordinates are a point of the reduced domain.
		raw := make([]float64, dim+1)
		sum := 0.0
		for i := range raw {
			raw[i] = rng.ExpFloat64()
			sum += raw[i]
		}
		alpha := 1 - float64(dim)*sigma - 0.01
		if alpha <= 0 {
			alpha = 0.01
		}
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for i := 0; i < dim; i++ {
			lo[i] = raw[i] / sum * alpha
			hi[i] = lo[i] + sigma
		}
		r, err := geom.NewBox(lo, hi)
		if err != nil {
			continue
		}
		out = append(out, r)
	}
	return out
}
