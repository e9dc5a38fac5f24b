package dataset

import (
	"testing"

	"repro/internal/geom"
)

func TestRandomBoxesValid(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 5, 7} {
		for _, sigma := range []float64{0.001, 0.01, 0.1} {
			boxes := RandomBoxes(dim, sigma, 20, 42)
			if len(boxes) != 20 {
				t.Fatalf("dim=%d σ=%g: got %d boxes", dim, sigma, len(boxes))
			}
			for _, r := range boxes {
				lo, hi := r.Bounds()
				sum := 0.0
				for i := range lo {
					if hi[i]-lo[i] < sigma-1e-9 || hi[i]-lo[i] > sigma+1e-9 {
						t.Fatalf("box side %g, want %g", hi[i]-lo[i], sigma)
					}
					if lo[i] < -geom.Eps {
						t.Fatalf("box extends below zero")
					}
					sum += hi[i]
				}
				if sum > 1+geom.Eps {
					t.Fatalf("box leaves the weight simplex: Σhi = %g", sum)
				}
			}
		}
	}
}

func TestRandomBoxesDeterministic(t *testing.T) {
	a := RandomBoxes(3, 0.01, 5, 1)
	b := RandomBoxes(3, 0.01, 5, 1)
	for i := range a {
		la, _ := a[i].Bounds()
		lb, _ := b[i].Bounds()
		for j := range la {
			if la[j] != lb[j] {
				t.Fatal("same seed must give the same boxes")
			}
		}
	}
}
