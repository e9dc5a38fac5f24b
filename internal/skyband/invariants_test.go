package skyband

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/geom"
)

// checkInvariants asserts the structure's closed-form invariant against a
// brute-force O(n²) recount over its own live table: the entry set is exactly
// E = { q : no live record with count ≥ k dominates q }; band counts are
// exact and below k in the count column; fence bounds lie in [k, count]; a
// covered record's count column is at least k and it points at a live fence
// entry that dominates it; Band() is the brute-force k-skyband with the
// brute-force counts, count-major with ties by id, and the count levels are
// that same sequence, ending at the largest count present; the id↔slot map
// agrees with the columns; each grid holds its partition (see checkGrid);
// and the lists are sound (see checkLists).
func checkInvariants(t testing.TB, d *Dynamic, ctxt string) {
	t.Helper()
	n := len(d.ids)
	if len(d.recs) != n || len(d.cover) != n || len(d.count) != n || len(d.link) != n || len(d.slot) != n {
		t.Fatalf("%s: table sizes disagree: ids %d recs %d cover %d count %d link %d slot %d",
			ctxt, n, len(d.recs), len(d.cover), len(d.count), len(d.link), len(d.slot))
	}
	checkLists(t, d, ctxt)
	checkGrid(t, d, d.band, true, ctxt+"/band grid")
	checkGrid(t, d, d.fence, false, ctxt+"/fence grid")
	count := make([]int, n)
	for s := range d.ids {
		if d.slot[d.ids[s]] != s {
			t.Fatalf("%s: slot map sends id %d to %d, column says %d", ctxt, d.ids[s], d.slot[d.ids[s]], s)
		}
		for o := range d.ids {
			if geom.Dominates(d.recs[o], d.recs[s]) {
				count[s]++
			}
		}
	}
	var wantBand []int
	entries := 0
	for s := range d.ids {
		inE := true
		for o := range d.ids {
			if count[o] >= d.k && geom.Dominates(d.recs[o], d.recs[s]) {
				inE = false
				break
			}
		}
		id, c, b := d.ids[s], d.cover[s], int(d.count[s])
		if isEnt := c == isEntry; isEnt != inE {
			t.Fatalf("%s: id %d (count %d): in E %v, cover %d", ctxt, id, count[s], inE, c)
		}
		switch {
		case c != isEntry:
			fs, ok := d.slot[c]
			if !ok || !d.isFence(c) || !geom.Dominates(d.recs[fs], d.recs[s]) || b < d.k {
				t.Fatalf("%s: covered id %d (count column %d) points at %d, which is not a fence entry dominating it", ctxt, id, b, c)
			}
			continue
		case b < d.k:
			if b != count[s] {
				t.Fatalf("%s: band id %d holds count %d, true count %d (k=%d)", ctxt, id, b, count[s], d.k)
			}
			wantBand = append(wantBand, id)
		case b > count[s]:
			t.Fatalf("%s: fence id %d holds bound %d outside [%d, %d]", ctxt, id, b, d.k, count[s])
		}
		entries++
	}
	slices.Sort(wantBand)
	gotBand, gotRecs, gotCounts := d.Band()
	if !slices.Equal(slices.Sorted(slices.Values(gotBand)), wantBand) {
		t.Fatalf("%s: Band() %v != brute-force %d-skyband %v", ctxt, gotBand, d.k, wantBand)
	}
	for i, id := range gotBand {
		if !d.InBand(id) || !slices.Equal(gotRecs[i], d.Record(id)) {
			t.Fatalf("%s: Band() entry %d disagrees with InBand/Record", ctxt, id)
		}
		if c := count[d.slot[id]]; gotCounts[i] != c {
			t.Fatalf("%s: Band() gives id %d count %d, true count %d", ctxt, id, gotCounts[i], c)
		}
		if i > 0 && (gotCounts[i-1] > gotCounts[i] || gotCounts[i-1] == gotCounts[i] && gotBand[i-1] >= id) {
			t.Fatalf("%s: Band() is not count-major with ties by id at %d: (%d, count %d) before (%d, count %d)",
				ctxt, i, gotBand[i-1], gotCounts[i-1], id, gotCounts[i])
		}
	}
	var levelIDs, levelCounts []int
	for c, level := range d.levels {
		for _, m := range level {
			if !d.InBand(m.id) || int(d.count[d.slot[m.id]]) != c || !slices.Equal(m.rec, d.Record(m.id)) {
				t.Fatalf("%s: level %d lists id %d, which is not a band entry of count %d with that record", ctxt, c, m.id, c)
			}
			levelIDs, levelCounts = append(levelIDs, m.id), append(levelCounts, c)
		}
	}
	if top := len(d.levels) - 1; top >= 0 && len(d.levels[top]) == 0 {
		t.Fatalf("%s: %d count levels, the top one empty: levels must stop at the largest count present", ctxt, len(d.levels))
	}
	if !slices.Equal(levelIDs, gotBand) || !slices.Equal(levelCounts, gotCounts) {
		t.Fatalf("%s: the %d count levels %v %v are not the band %v %v", ctxt, len(d.levels), levelIDs, levelCounts, gotBand, gotCounts)
	}
	if st := d.Stats(); st.Live != n || st.SupersetSize != len(wantBand) || st.ShadowSize != entries-len(wantBand) {
		t.Fatalf("%s: stats sizes %+v disagree with %d live, %d band, %d entries", ctxt, st, n, len(wantBand), entries)
	}
}

// checkLists asserts that the link column threads every covered slot onto its
// cover's list exactly once, that every entry's slot heads a list (empty for
// a band entry), that each link's reverse link points back, and that the
// orphan list is empty — as it is between batches.
func checkLists(t testing.TB, d *Dynamic, ctxt string) {
	t.Helper()
	if d.orphan != (links{orphans, orphans}) {
		t.Fatalf("%s: orphan list not empty after the batch: %+v", ctxt, d.orphan)
	}
	seen := make([]bool, len(d.ids))
	for _, id := range entryIDs(d) {
		h := int32(d.slot[id])
		for prev, s := h, d.link[h].next; ; prev, s = s, d.link[s].next {
			if s < 0 || int(s) >= len(d.ids) || d.link[s].prev != prev {
				t.Fatalf("%s: list of entry %d: link %d -> %d has no matching reverse link", ctxt, id, prev, s)
			}
			if s == h {
				break
			}
			if !d.isFence(id) || d.cover[s] != id || seen[s] {
				t.Fatalf("%s: list of entry %d (fence %v) holds slot %d (id %d, cover %d, listed before %v)",
					ctxt, id, d.isFence(id), s, d.ids[s], d.cover[s], seen[s])
			}
			seen[s] = true
		}
	}
	for s, c := range d.cover {
		if c >= 0 && !seen[s] {
			t.Fatalf("%s: covered slot %d (id %d, cover %d) is on no list", ctxt, s, d.ids[s], c)
		}
	}
}

// checkGrid asserts that g, the band's grid (band set) or the fence's,
// holds every entry of its partition — by the count column — exactly once
// and no other id, each row holding its entry's record and sum and sitting
// in the cell its record maps to; that every cell's corners bound its rows
// (loose corners allowed); that the row count is the grid's; and that a
// diagonal bound not marked stale is the largest row minima, best a row with
// the largest.
func checkGrid(t testing.TB, d *Dynamic, g *grid, band bool, ctxt string) {
	t.Helper()
	seen := make(map[int]bool)
	least := make(map[int]float64)
	var mins []float64
	for ci, c := range g.cells {
		dim := g.dim
		if len(c.data) != 2*dim+len(c.ids)*(dim+1) {
			t.Fatalf("%s: cell %d holds %d ids in %d numbers", ctxt, ci, len(c.ids), len(c.data))
		}
		for j, id := range c.ids {
			sum, rec := c.row(j, dim)
			if !d.Tracked(id) || d.InBand(id) != band || seen[id] {
				t.Fatalf("%s: row id %d is not an entry of this partition (entry %v, band %v), or sits in the grid twice (%v)", ctxt, id, d.Tracked(id), d.InBand(id), seen[id])
			}
			seen[id] = true
			if e := d.Record(id); !slices.Equal(rec, e) || sum != coordSum(e) {
				t.Fatalf("%s: row of id %d holds %v (sum %v), its record %v (sum %v)", ctxt, id, rec, sum, e, coordSum(e))
			}
			if at := *g.position(rec); int(at) != ci+1 {
				t.Fatalf("%s: row of id %d sits in cell %d, its record maps to %d", ctxt, id, ci+1, at)
			}
			for a, v := range rec {
				if v < c.data[a] || v > c.data[dim+a] {
					t.Fatalf("%s: cell %d's corners %v do not bound row %v of id %d", ctxt, ci, c.data[:2*dim], rec, id)
				}
			}
			least[id] = slices.Min(rec)
			mins = append(mins, least[id])
		}
	}
	want := 0
	for _, id := range entryIDs(d) {
		if d.InBand(id) == band {
			want++
		}
	}
	if len(seen) != want || g.rows != want {
		t.Fatalf("%s: %d rows (the grid counts %d) for %d entries", ctxt, len(seen), g.rows, want)
	}
	if g.stale || len(mins) == 0 {
		return
	}
	slices.Sort(mins)
	if len(g.diag) != min(cap(g.diag), len(mins)) || !slices.Equal(g.diag, mins[len(mins)-len(g.diag):]) {
		t.Fatalf("%s: diagonal bound %v (room for %d), row minima %v", ctxt, g.diag, cap(g.diag), mins)
	}
	if m, ok := least[g.best]; !ok || m != mins[len(mins)-1] {
		t.Fatalf("%s: best row %d has minimum %v (present %v), the largest is %v", ctxt, g.best, m, ok, mins[len(mins)-1])
	}
}

// checkLive asserts that the structure's live set is exactly the mirror's.
func checkLive(t testing.TB, d *Dynamic, live map[int][]float64, ctxt string) {
	t.Helper()
	if d.Len() != len(live) {
		t.Fatalf("%s: %d live records, mirror has %d", ctxt, d.Len(), len(live))
	}
	for id, rec := range live {
		if !slices.Equal(d.Record(id), rec) {
			t.Fatalf("%s: live id %d holds %v, mirror %v", ctxt, id, d.Record(id), rec)
		}
	}
}

// bandCounts returns the band as id → exact dominator count.
func bandCounts(d *Dynamic) map[int]int {
	m := make(map[int]int)
	for _, id := range entryIDs(d) {
		if c := int(d.count[d.slot[id]]); c < d.k {
			m[id] = c
		}
	}
	return m
}

// entryIDs returns the ids of the entries, band and fence, in slot order.
func entryIDs(d *Dynamic) []int {
	var ids []int
	for s, c := range d.cover {
		if c == isEntry {
			ids = append(ids, d.ids[s])
		}
	}
	return ids
}

func describe(m map[int]int) string {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	s := ""
	for _, id := range ids {
		s += fmt.Sprintf("%d:%d ", id, m[id])
	}
	return s
}
