package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3", s.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !s.Has(i) {
			t.Fatalf("index %d should be set", i)
		}
	}
	if s.Has(1) || s.Has(128) {
		t.Fatal("unset indices reported as set")
	}
	s.Clear(64)
	if s.Has(64) || s.Count() != 2 {
		t.Fatal("clear failed")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	union := a.Clone()
	union.Or(b)
	inter := a.Clone()
	inter.And(b)
	diff := a.Clone()
	diff.AndNot(b)
	for i := 0; i < 100; i++ {
		even := i%2 == 0
		byThree := i%3 == 0
		if union.Has(i) != (even || byThree) {
			t.Fatalf("union wrong at %d", i)
		}
		if inter.Has(i) != (even && byThree) {
			t.Fatalf("intersection wrong at %d", i)
		}
		if diff.Has(i) != (even && !byThree) {
			t.Fatalf("difference wrong at %d", i)
		}
	}
	if got := a.IntersectionCount(b); got != inter.Count() {
		t.Fatalf("IntersectionCount = %d, want %d", got, inter.Count())
	}
}

func TestForEachOrderAndStop(t *testing.T) {
	s := New(200)
	want := []int{3, 77, 150, 199}
	for _, i := range want {
		s.Set(i)
	}
	got := s.Indices()
	if len(got) != len(want) {
		t.Fatalf("indices = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("indices = %v, want %v", got, want)
		}
	}
	n := 0
	s.ForEach(func(i int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d, want 2", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Set(10)
	b := a.Clone()
	b.Set(20)
	if a.Has(20) {
		t.Fatal("clone must not alias the original")
	}
}

// TestAgainstMap cross-checks random operation sequences against a map-based
// reference implementation.
func TestAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		s := New(n)
		ref := map[int]bool{}
		for op := 0; op < 200; op++ {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				s.Set(i)
				ref[i] = true
			} else {
				s.Clear(i)
				delete(ref, i)
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Has(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
