package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScoreMatchesFullWeights(t *testing.T) {
	p := []float64{3, 1, 4, 1.5}
	w := []float64{0.2, 0.3, 0.1}
	got := Score(p, w)
	want := ScoreFull(p, []float64{0.2, 0.3, 0.1, 0.4})
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Score = %g, ScoreFull = %g", got, want)
	}
}

func TestScoreUniformWeights(t *testing.T) {
	p := []float64{2, 4}
	// w1 = 0.5 ⇒ w2 = 0.5 ⇒ score = 3.
	if got := Score(p, []float64{0.5}); math.Abs(got-3) > 1e-12 {
		t.Fatalf("Score = %g, want 3", got)
	}
}

func TestReduceWeightsRoundTrip(t *testing.T) {
	if got := ReduceWeights([]float64{0.1, 0.2, 0.3, 0.4}); len(got) != 3 || got[0] != 0.1 || got[1] != 0.2 || got[2] != 0.3 {
		t.Fatalf("ReduceWeights = %v, want [0.1 0.2 0.3]", got)
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		p, q []float64
		want bool
	}{
		{[]float64{2, 2}, []float64{1, 1}, true},
		{[]float64{2, 1}, []float64{1, 2}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // coincident
		{[]float64{2, 1}, []float64{2, 1}, false},
		{[]float64{2, 1}, []float64{1, 1}, true}, // equal in one dim
		{[]float64{1, 1}, []float64{2, 2}, false},
	}
	for i, c := range cases {
		if got := Dominates(c.p, c.q); got != c.want {
			t.Errorf("case %d: Dominates(%v, %v) = %v, want %v", i, c.p, c.q, got, c.want)
		}
	}
}

func TestDominatesAntisymmetric(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		p := []float64{a, b}
		q := []float64{c, d}
		return !(Dominates(p, q) && Dominates(q, p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDualHalfspaceSign is the central property of the dual transform: for
// random records and random weight vectors, the sign of S(q) − S(p) matches
// the side of the half-space DualHalfspace(q, p).
func TestDualHalfspaceSign(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		d := 2 + rng.Intn(5)
		p := randRecord(rng, d)
		q := randRecord(rng, d)
		h := DualHalfspace(q, p)
		w := randWeights(rng, d-1)
		diff := Score(q, w) - Score(p, w)
		eval := h.Eval(w)
		if math.Abs(diff-eval) > 1e-9 {
			t.Fatalf("d=%d: S(q)−S(p) = %g but half-space eval = %g", d, diff, eval)
		}
	}
}

func TestDualHalfspaceDominance(t *testing.T) {
	// If q dominates p coordinate-wise, the dual half-space must contain the
	// entire preference domain.
	q := []float64{5, 6, 7}
	p := []float64{1, 2, 3}
	h := DualHalfspace(q, p)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		w := randWeights(rng, 2)
		if !h.Contains(w) {
			t.Fatalf("dominating pair: half-space excludes %v", w)
		}
	}
}

func TestHalfspaceNegate(t *testing.T) {
	h := Halfspace{A: []float64{1, -2}, B: 0.5}
	n := h.Negate()
	w := []float64{0.3, 0.1}
	if math.Abs(h.Eval(w)+n.Eval(w)) > 1e-12 {
		t.Fatalf("negation should flip eval sign: %g vs %g", h.Eval(w), n.Eval(w))
	}
}

func TestHalfspaceTrivial(t *testing.T) {
	if !(Halfspace{A: []float64{0, 0}, B: 1}).IsTrivial() {
		t.Fatal("zero normal should be trivial")
	}
	if (Halfspace{A: []float64{0, 1e-3}, B: 1}).IsTrivial() {
		t.Fatal("non-zero normal should not be trivial")
	}
}

func TestSimplexHalfspaces(t *testing.T) {
	hs := SimplexHalfspaces(3)
	if len(hs) != 4 {
		t.Fatalf("want 4 half-spaces, got %d", len(hs))
	}
	inside := []float64{0.2, 0.3, 0.1}
	outside := []float64{0.5, 0.6, 0.2}
	for _, h := range hs {
		if !h.Contains(inside) {
			t.Fatalf("simplex should contain %v", inside)
		}
	}
	violated := false
	for _, h := range hs {
		if !h.Contains(outside) {
			violated = true
		}
	}
	if !violated {
		t.Fatalf("simplex should exclude %v", outside)
	}
}

func randRecord(rng *rand.Rand, d int) []float64 {
	p := make([]float64, d)
	for i := range p {
		p[i] = rng.Float64() * 10
	}
	return p
}

// randWeights samples a reduced weight vector strictly inside the domain.
func randWeights(rng *rand.Rand, dim int) []float64 {
	for {
		w := make([]float64, dim)
		sum := 0.0
		for i := range w {
			w[i] = rng.Float64()
			sum += w[i]
		}
		if sum < 0.95 {
			return w
		}
	}
}
