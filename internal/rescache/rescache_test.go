package rescache

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
)

func boxRegion(t testing.TB, lo, hi []float64) *geom.Region {
	t.Helper()
	r, err := geom.NewBox(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestNewAllocatesLazily pins that capacity is only the eviction bound: an
// empty cache with a million slots allocates next to nothing, where a key
// map presized to the capacity costs about 50 MiB (and a capacity in the
// billions, taken from a dataset-create body, would exhaust memory).
func TestNewAllocatesLazily(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New[int](1 << 20)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("New(1<<20) allocated %d bytes, want under 1 MiB", got)
	}
	runtime.KeepAlive(c)
}

func TestGetAddRefresh(t *testing.T) {
	c := New[any](4)
	r := boxRegion(t, []float64{0.1, 0.1}, []float64{0.2, 0.2})
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	if adm, ev := c.Add("a", r, 3, 1, "va"); !adm || ev {
		t.Fatalf("admitted=%v evicted=%v below capacity", adm, ev)
	}
	if v, ok := c.Get("a"); !ok || v != "va" {
		t.Fatalf("get = %v, %v", v, ok)
	}
	// Refreshing a key replaces the value without growing the population.
	c.Add("a", r, 3, 1, "vb")
	if v, _ := c.Get("a"); v != "vb" {
		t.Fatalf("refresh kept stale value %v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

// TestLRUEviction pins plain LRU: an overflow evicts the least recently used
// entry, and Get, FindContaining and a refreshing Add all count as a use.
func TestLRUEviction(t *testing.T) {
	c := New[any](2)
	r := boxRegion(t, []float64{0.1, 0.1}, []float64{0.2, 0.2})
	c.Add("a", r, 3, 1, "va")
	c.Add("b", r, 4, 1, "vb")
	c.Get("a") // a is now more recent than b
	if _, ev := c.Add("c", r, 5, 1, "vc"); !ev {
		t.Fatal("no eviction on overflow")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU victim b survived")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry a evicted")
	}
	// Now c is the LRU entry; a containment lookup makes it the most recent.
	c.FindContaining(1, 5, r)
	c.Add("d", r, 6, 1, "vd")
	if _, ok := c.Peek("a"); ok {
		t.Fatal("LRU victim a survived")
	}
	// Now c is the LRU entry again; a refreshing Add makes it the most recent.
	c.Add("c", r, 5, 1, "vc2")
	c.Add("e", r, 7, 1, "ve")
	if _, ok := c.Peek("d"); ok {
		t.Fatal("LRU victim d survived")
	}
	if v, ok := c.Peek("c"); !ok || v != "vc2" {
		t.Fatalf("refreshed entry c = %v, %v", v, ok)
	}
}

func TestFindContaining(t *testing.T) {
	c := New[any](8)
	outer := boxRegion(t, []float64{0.1, 0.1}, []float64{0.5, 0.5})
	inner := boxRegion(t, []float64{0.2, 0.2}, []float64{0.3, 0.3})
	disjoint := boxRegion(t, []float64{0.55, 0.05}, []float64{0.65, 0.15})
	overlapping := boxRegion(t, []float64{0.4, 0.4}, []float64{0.6, 0.6})

	c.Add("outer", outer, 3, 7, "src")
	if v, key, ok := c.FindContaining(7, 3, inner); !ok || v != "src" || key != "outer" {
		t.Fatalf("nested lookup = %v, %q, %v", v, key, ok)
	}
	if _, _, ok := c.FindContaining(7, 3, disjoint); ok {
		t.Fatal("disjoint region matched")
	}
	if _, _, ok := c.FindContaining(7, 3, overlapping); ok {
		t.Fatal("partially overlapping region matched")
	}
	if _, _, ok := c.FindContaining(7, 4, inner); ok {
		t.Fatal("depth mismatch matched")
	}
	if _, _, ok := c.FindContaining(8, 3, inner); ok {
		t.Fatal("class mismatch matched")
	}
	// A region contains itself: same-shape lookups resolve too.
	if _, _, ok := c.FindContaining(7, 3, outer); !ok {
		t.Fatal("self-containment missed")
	}
}

// TestFindContainingPrefersRecent: among several valid sources the most
// recently used wins, and a successful lookup refreshes the source.
func TestFindContainingPrefersRecent(t *testing.T) {
	c := New[any](8)
	big := boxRegion(t, []float64{0.05, 0.05}, []float64{0.6, 0.6})
	mid := boxRegion(t, []float64{0.1, 0.1}, []float64{0.5, 0.5})
	inner := boxRegion(t, []float64{0.2, 0.2}, []float64{0.3, 0.3})
	c.Add("big", big, 3, 7, "big")
	c.Add("mid", mid, 3, 7, "mid")
	if v, _, _ := c.FindContaining(7, 3, inner); v != "mid" {
		t.Fatalf("picked %v, want the more recent mid", v)
	}
	c.Get("big")
	if v, _, _ := c.FindContaining(7, 3, inner); v != "big" {
		t.Fatalf("picked %v, want the refreshed big", v)
	}
}

// TestEvictionMaintainsContainmentIndex: entries removed by invalidation or
// by capacity stop being containment sources.
func TestEvictionMaintainsContainmentIndex(t *testing.T) {
	c := New[any](4)
	outer := boxRegion(t, []float64{0.1, 0.1}, []float64{0.5, 0.5})
	inner := boxRegion(t, []float64{0.2, 0.2}, []float64{0.3, 0.3})
	c.Add("outer", outer, 3, 7, "src")
	if n := c.InvalidateKeys([]string{"outer", "ghost"}); n != 1 {
		t.Fatalf("invalidated %d, want 1", n)
	}
	if _, _, ok := c.FindContaining(7, 3, inner); ok {
		t.Fatal("evicted entry still reachable via containment")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after eviction", c.Len())
	}

	// Capacity eviction path.
	small := New[any](1)
	small.Add("outer", outer, 3, 7, "src")
	small.Add("other", inner, 9, 1, "x")
	if _, _, ok := small.FindContaining(7, 3, inner); ok {
		t.Fatal("capacity-evicted entry still reachable via containment")
	}
}

func TestSnapshotAndPeek(t *testing.T) {
	c := New[any](4)
	r1 := boxRegion(t, []float64{0.1, 0.1}, []float64{0.2, 0.2})
	r2 := boxRegion(t, []float64{0.3, 0.3}, []float64{0.4, 0.4})
	c.Add("a", r1, 3, 1, "va")
	c.Add("b", r2, 5, 1, "vb")
	rows := c.Snapshot()
	if len(rows) != 2 {
		t.Fatalf("snapshot has %d rows", len(rows))
	}
	seen := map[string]int{}
	for _, row := range rows {
		seen[row.Key] = row.K
	}
	if seen["a"] != 3 || seen["b"] != 5 {
		t.Fatalf("snapshot rows wrong: %v", seen)
	}
	// Peek does not refresh recency: after peeking "a" many times, adding
	// an overflow entry still evicts "a" as the stalest.
	small := New[any](2)
	small.Add("a", r1, 3, 1, "va")
	small.Add("b", r2, 5, 1, "vb")
	for i := 0; i < 10; i++ {
		if _, ok := small.Peek("a"); !ok {
			t.Fatal("peek missed resident entry")
		}
	}
	small.Add("c", r2, 6, 1, "vc")
	if _, ok := small.Peek("a"); ok {
		t.Fatal("peek refreshed recency: stale entry survived")
	}
}

// TestAdmissionUnderChurn pins the update-rate-aware admission policy: a
// class whose entries the update stream keeps invalidating before any hit is
// refused admission; hits defend a class; other classes are unaffected; and
// the refusal decays away once the churn stops.
func TestAdmissionUnderChurn(t *testing.T) {
	c := New[any](8)
	r := boxRegion(t, []float64{0.1, 0.1}, []float64{0.2, 0.2})
	skipped := -1
	for i := 0; i < 12; i++ {
		adm, _ := c.Add("k", r, 3, 1, i)
		if !adm {
			skipped = i
			break
		}
		if n := c.InvalidateKeys([]string{"k"}); n != 1 {
			t.Fatalf("cycle %d: invalidated %d, want 1", i, n)
		}
	}
	if skipped < 0 {
		t.Fatal("admission never refused under pure admit→invalidate churn")
	}
	// A different class is untouched by class 1's ledger.
	if adm, _ := c.Add("other", r, 3, 2, "v"); !adm {
		t.Fatal("unrelated class refused admission")
	}
	// Hits defend a class: the same churn with reuse between admission and
	// invalidation keeps the class admissible throughout.
	hot := New[any](8)
	for i := 0; i < 40; i++ {
		adm, _ := hot.Add("k", r, 3, 1, i)
		if !adm {
			t.Fatalf("cycle %d: class with hits refused admission", i)
		}
		for j := 0; j < 3; j++ {
			if _, ok := hot.Get("k"); !ok {
				t.Fatal("resident entry missed")
			}
		}
		hot.InvalidateKeys([]string{"k"})
	}
	// Recovery: once the churn stops, the invalidation ledger decays and the
	// class becomes admissible again. Ticks advance one per cache operation.
	for i := 0; i < 6000; i++ {
		c.Add(fmt.Sprintf("w%d", i), r, 3, 2, "v")
	}
	if adm, _ := c.Add("k2", r, 3, 1, "v"); !adm {
		t.Fatal("admission did not recover after the churn decayed")
	}
}

// TestEvictionPicksMinPriority cross-checks LRU victim selection against a
// brute-force minimum of the residents' last-use time, and verifies that the
// recency list, the key map and the containment groups agree after every
// operation of a randomized add/get/find/invalidate mix.
func TestEvictionPicksMinPriority(t *testing.T) {
	c := New[any](16)
	rng := rand.New(rand.NewSource(42))
	r := boxRegion(t, []float64{0.1, 0.1}, []float64{0.2, 0.2})
	resident := []string{}
	verify := func(step int) {
		t.Helper()
		n := 0
		for e := c.head; e != nil; e = e.next {
			if c.m[e.key] != e {
				t.Fatalf("step %d: listed entry %q not in the map", step, e.key)
			}
			if e.next != nil && e.next.last >= e.last {
				t.Fatalf("step %d: recency list out of order at %q", step, e.key)
			}
			n++
		}
		if n != len(c.m) {
			t.Fatalf("step %d: recency list %d vs map %d", step, n, len(c.m))
		}
		grouped := 0
		for gk, g := range c.groups {
			for i, e := range g {
				if e.gix != i || c.m[e.key] != e || (groupKey{e.class, e.k}) != gk {
					t.Fatalf("step %d: group %v slot %d holds a stale entry", step, gk, i)
				}
			}
			grouped += len(g)
		}
		if grouped != len(c.m) {
			t.Fatalf("step %d: groups hold %d entries vs map %d", step, grouped, len(c.m))
		}
	}
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(5); {
		case op <= 1: // add a fresh key
			var want *entry[any]
			if c.Len() == c.cap {
				for _, e := range c.m {
					if want == nil || e.last < want.last {
						want = e
					}
				}
			}
			key := fmt.Sprintf("k%d", step)
			adm, ev := c.Add(key, r, 1+rng.Intn(2), uint32(rng.Intn(3)), step)
			if adm {
				resident = append(resident, key)
			}
			if ev {
				if want == nil {
					t.Fatalf("step %d: eviction reported below capacity", step)
				}
				if _, ok := c.Peek(want.key); ok {
					t.Fatalf("step %d: least recently used %q still resident", step, want.key)
				}
			}
		case op == 2 && len(resident) > 0:
			c.Get(resident[rng.Intn(len(resident))])
		case op == 3:
			c.FindContaining(uint32(rng.Intn(3)), 1+rng.Intn(2), r)
		case op == 4 && len(resident) > 0:
			c.InvalidateKeys([]string{resident[rng.Intn(len(resident))]})
		}
		verify(step)
	}
}

// BenchmarkCacheAddOverflow: every Add at capacity evicts the recency
// list's tail in O(1), so per-op times must not scale with capacity.
func BenchmarkCacheAddOverflow(b *testing.B) {
	r, err := geom.NewBox([]float64{0.1, 0.1}, []float64{0.2, 0.2})
	if err != nil {
		b.Fatal(err)
	}
	for _, capacity := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("cap%d", capacity), func(b *testing.B) {
			c := New[any](capacity)
			for i := 0; i < capacity; i++ {
				c.Add(fmt.Sprintf("seed%d", i), r, 3, 1, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Add(fmt.Sprintf("k%d", i), r, 3, 1, i)
			}
		})
	}
}

// TestClipCell covers the three clipping outcomes: a cell inside the clip
// region (kept via the interior fast path), a straddling cell (kept with a
// fresh interior point), and a disjoint cell (dropped).
func TestClipCell(t *testing.T) {
	clip := boxRegion(t, []float64{0.2, 0.2}, []float64{0.4, 0.4})
	cases := []struct {
		name     string
		cell     *geom.Region // stand-in for the cell's bounding box
		keep     bool
		fastPath bool
	}{
		{"inside", boxRegion(t, []float64{0.25, 0.25}, []float64{0.35, 0.35}), true, true},
		{"straddling", boxRegion(t, []float64{0.3, 0.3}, []float64{0.6, 0.6}), true, false},
		{"disjoint", boxRegion(t, []float64{0.45, 0.45}, []float64{0.49, 0.49}), false, false},
		{"touching-boundary-only", boxRegion(t, []float64{0.4, 0.2}, []float64{0.6, 0.4}), false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cons := tc.cell.Halfspaces()
			interior := tc.cell.Pivot()
			clipped, pt, ok := ClipCell(2, cons, interior, nil, nil, clip)
			if ok != tc.keep {
				t.Fatalf("ok = %v, want %v", ok, tc.keep)
			}
			if !tc.keep {
				return
			}
			if tc.fastPath && fmt.Sprint(pt) != fmt.Sprint(interior) {
				t.Errorf("fast path not taken: interior %v became %v", interior, pt)
			}
			// The returned point must lie in the cell AND the clip region,
			// and satisfy every clipped constraint.
			if !tc.cell.Contains(pt) || !clip.Contains(pt) {
				t.Errorf("interior %v escapes the intersection", pt)
			}
			for _, h := range clipped {
				if !h.Contains(pt) {
					t.Errorf("interior %v violates clipped constraint", pt)
				}
			}
			// Clipping against the cell's own region must not duplicate
			// constraints.
			self, _, ok := ClipCell(2, cons, interior, nil, nil, tc.cell)
			if !ok || len(self) != len(cons) {
				t.Errorf("self-clip grew constraints: %d -> %d (ok=%v)", len(cons), len(self), ok)
			}
		})
	}
}

// TestLedgerPruning pins the admission-ledger map's boundedness: a workload
// rotating through many distinct (class, k) groups — each admitted once and
// invalidated — must not accumulate one ledger per group forever. Ledgers
// whose decayed counts drop below the prune epsilon are deleted by the
// periodic sweep, so the population tracks only the recently active groups.
func TestLedgerPruning(t *testing.T) {
	c := New[any](8)
	r := boxRegion(t, []float64{0.1, 0.1}, []float64{0.2, 0.2})
	const groups = 20000
	for i := 0; i < groups; i++ {
		// A fresh k per iteration: without pruning this leaks one ledger
		// per group (the PR 7 defect).
		c.Add(fmt.Sprintf("g%d", i), r, i+1, 1, "v")
		c.InvalidateKeys([]string{fmt.Sprintf("g%d", i)})
	}
	if n := c.Ledgers(); n >= groups/2 {
		t.Fatalf("ledger map not pruned during rotation: %d ledgers for %d groups", n, groups)
	}
	// Quiesce on a single group long enough for every rotation-era ledger to
	// decay below the prune epsilon and for sweeps to run; only the recently
	// active ledgers may remain.
	for i := 0; i < 4*ledgerSweepEvery; i++ {
		c.Add("steady", r, 1, 2, "v")
	}
	if n := c.Ledgers(); n > 8 {
		t.Fatalf("ledger map did not collapse after churn stopped: %d ledgers", n)
	}
	// Pruning must not change admission behavior: a pruned class's next
	// admission decision equals a fresh class's (admitted — refusal needs a
	// decayed invalidation count far above the prune epsilon).
	if adm, _ := c.Add("back", r, 7, 1, "v"); !adm {
		t.Fatal("pruned class refused admission")
	}
}
