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
// exact and below k; fence bounds lie in [k, count]; every covered record
// points at a live fence entry that dominates it; Band() is the brute-force
// k-skyband with the brute-force counts, count-major with ties by id, and
// the count levels are that same sequence; the id↔slot and id↔position maps
// agree with the columns; and the lists are sound (see checkLists).
func checkInvariants(t testing.TB, d *Dynamic, ctxt string) {
	t.Helper()
	n := len(d.ids)
	if len(d.recs) != n || len(d.cover) != n || len(d.link) != n || len(d.slot) != n || len(d.pos) != len(d.ents) {
		t.Fatalf("%s: table sizes disagree: ids %d recs %d cover %d link %d slot %d; ents %d pos %d",
			ctxt, n, len(d.recs), len(d.cover), len(d.link), len(d.slot), len(d.ents), len(d.pos))
	}
	checkLists(t, d, ctxt)
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
	for s := range d.ids {
		inE := true
		for o := range d.ids {
			if count[o] >= d.k && geom.Dominates(d.recs[o], d.recs[s]) {
				inE = false
				break
			}
		}
		id, c := d.ids[s], d.cover[s]
		p, isEnt := d.pos[id]
		if isEnt != inE || isEnt != (c == isEntry) {
			t.Fatalf("%s: id %d (count %d): in E %v, in entry set %v, cover %d", ctxt, id, count[s], inE, isEnt, c)
		}
		switch {
		case !isEnt:
			fp, ok := d.pos[c]
			if !ok || fp < d.nb || !geom.Dominates(d.ents[fp].rec, d.recs[s]) {
				t.Fatalf("%s: covered id %d points at %d, which is not a fence entry dominating it", ctxt, id, c)
			}
		case d.ents[p].id != id || !slices.Equal(d.ents[p].rec, d.recs[s]) || d.ents[p].sum != coordSum(d.recs[s]) || d.ents[p].gate != newEntry(id, d.recs[s], 0).gate:
			t.Fatalf("%s: entry at %d does not mirror live id %d", ctxt, p, id)
		case p < d.nb:
			if d.ents[p].count != count[s] || count[s] >= d.k {
				t.Fatalf("%s: band id %d holds count %d, true count %d (k=%d)", ctxt, id, d.ents[p].count, count[s], d.k)
			}
			wantBand = append(wantBand, id)
		default:
			if b := d.ents[p].count; b < d.k || b > count[s] {
				t.Fatalf("%s: fence id %d holds bound %d outside [%d, %d]", ctxt, id, b, d.k, count[s])
			}
		}
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
			if !d.InBand(m.id) || d.ents[d.pos[m.id]].count != c || !slices.Equal(m.rec, d.Record(m.id)) {
				t.Fatalf("%s: level %d lists id %d, which is not a band entry of count %d with that record", ctxt, c, m.id, c)
			}
			levelIDs, levelCounts = append(levelIDs, m.id), append(levelCounts, c)
		}
	}
	if len(d.levels) != d.k || !slices.Equal(levelIDs, gotBand) || !slices.Equal(levelCounts, gotCounts) {
		t.Fatalf("%s: the %d count levels %v %v are not the band %v %v", ctxt, len(d.levels), levelIDs, levelCounts, gotBand, gotCounts)
	}
	if st := d.Stats(); st.Live != n || st.SupersetSize != len(wantBand) || st.ShadowSize != len(d.ents)-len(wantBand) {
		t.Fatalf("%s: stats sizes %+v disagree with %d live, %d band, %d entries", ctxt, st, n, len(wantBand), len(d.ents))
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
	for _, e := range d.ents {
		h := int32(d.slot[e.id])
		for prev, s := h, d.link[h].next; ; prev, s = s, d.link[s].next {
			if s < 0 || int(s) >= len(d.ids) || d.link[s].prev != prev {
				t.Fatalf("%s: list of entry %d: link %d -> %d has no matching reverse link", ctxt, e.id, prev, s)
			}
			if s == h {
				break
			}
			if !d.isFence(e.id) || d.cover[s] != e.id || seen[s] {
				t.Fatalf("%s: list of entry %d (fence %v) holds slot %d (id %d, cover %d, listed before %v)",
					ctxt, e.id, d.isFence(e.id), s, d.ids[s], d.cover[s], seen[s])
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
	m := make(map[int]int, d.nb)
	for _, e := range d.ents[:d.nb] {
		m[e.id] = e.count
	}
	return m
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
