package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/skyband"
)

// TestCancelInterruptsRefinement verifies that a tripped Options.Cancel makes
// both algorithms return ErrCanceled instead of a partial answer.
func TestCancelInterruptsRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	data := randomData(rng, 400, 3)
	tree := buildTree(t, data)
	r := randomBox(rng, 2)
	g := skyband.BuildGraph(tree, r, 5)
	if g.Len() <= 5 {
		t.Skip("degenerate instance: refinement trivially complete")
	}

	if _, err := RSAFromGraph(g, r, 5, Options{Cancel: func() bool { return true }}, nil); !errors.Is(err, ErrCanceled) {
		t.Errorf("RSA: err = %v, want ErrCanceled", err)
	}
	if _, err := JAAFromGraph(g, r, 5, Options{Cancel: func() bool { return true }}, nil); !errors.Is(err, ErrCanceled) {
		t.Errorf("JAA: err = %v, want ErrCanceled", err)
	}

	// A cancel hook that fires after a few polls still interrupts, and a
	// hook that never fires leaves the answer intact.
	polls := 0
	late := Options{Cancel: func() bool { polls++; return polls > 3 }}
	if _, err := RSAFromGraph(g, r, 5, late, nil); !errors.Is(err, ErrCanceled) {
		t.Errorf("late cancel: err = %v, want ErrCanceled", err)
	}
	want, _, err := RSA(tree, r, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RSAFromGraph(g, r, 5, Options{Cancel: func() bool { return false }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("never-firing cancel changed the answer: %d ids, want %d", len(got), len(want))
	}
}

// TestCancelInterruptsDrillProbe covers the remaining cancellation point:
// the drill's top-k probe itself. On a very deep single cell the probe is
// the long pole of a recursion step, so Options.Cancel must be able to
// interrupt it from inside — for both the graph-guided branch-and-bound and
// the linear-scan ablation — and a tripped probe must report "quota
// reached" so the drill fails cheaply without fabricating an answer.
func TestCancelInterruptsDrillProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	data := randomData(rng, 600, 3)
	tree := buildTree(t, data)
	r, err := geom.NewBox([]float64{0.1, 0.1}, []float64{0.4, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	g := skyband.BuildGraph(tree, r, 6)
	if g.Len() < 10 {
		t.Skip("degenerate instance: too few candidates to probe")
	}
	w := r.Pivot()
	p := 0
	comp := fullSet(g.Len())
	comp.Clear(p)
	limit := g.Len()

	for name, linear := range map[string]bool{"graph-guided": false, "linear": true} {
		// Reference: an untripped probe counts genuinely.
		rf := newRefiner(g, r, 6, Options{LinearDrill: linear}, &Stats{})
		ref := rf.countAbove(p, comp, w, limit)
		if ref >= limit {
			t.Fatalf("%s: reference count %d saturated the limit; pick a different candidate", name, ref)
		}

		// A tripped cancel interrupts the probe: it reports the limit (the
		// cheap-failure verdict) after at most one poll stride of work.
		polls := 0
		rf = newRefiner(g, r, 6, Options{LinearDrill: linear, Cancel: func() bool { polls++; return true }}, &Stats{})
		if got := rf.countAbove(p, comp, w, limit); got != limit {
			t.Errorf("%s: tripped probe returned %d, want limit %d", name, got, limit)
		}
		if polls == 0 {
			t.Errorf("%s: cancel hook never polled inside the probe", name)
		}
		if !rf.stopped {
			t.Errorf("%s: tripped probe did not latch the stop verdict", name)
		}

		// A never-firing cancel leaves the count intact.
		rf = newRefiner(g, r, 6, Options{LinearDrill: linear, Cancel: func() bool { return false }}, &Stats{})
		if got := rf.countAbove(p, comp, w, limit); got != ref {
			t.Errorf("%s: cancel polling changed the count: %d != %d", name, got, ref)
		}
	}
}
