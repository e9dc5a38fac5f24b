package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
)

// serve runs one POST through the handler and returns the recorder.
func serve(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// asHit is a computed answer's body as a hit on its entry must read.
func asHit(t *testing.T, miss []byte) []byte {
	t.Helper()
	const computed = `{"cache_hit":false,`
	if !bytes.HasPrefix(miss, []byte(computed)) {
		t.Fatalf("not a computed answer: %s", miss)
	}
	return append([]byte(`{"cache_hit":true,`), miss[len(computed):]...)
}

// TestRefusedBoxParity: the engine checks a box body's corners now, and a
// refused one still gets the status, Content-Type and body the handler gave
// when it built the region itself (the bodies below are those), with the box
// checked before k — on a cold engine, and on one whose cache holds an entry
// for the same corners at another k. A box given as half-spaces is a region
// of its own (geom.NewPolytope adds the simplex's rows), so it keys its own
// entry; as this box lies inside the simplex, each form's entry answers the
// other by containment with the box's answer, and the rows shuffled and
// rescaled hit the rows' entry.
func TestRefusedBoxParity(t *testing.T) {
	reg, srv := fixture(t, "alpha")
	h := srv.Config.Handler
	box := `"region":{"lo":[0.2,0.2],"hi":[0.25,0.25]}`
	thin := `"region":{"lo":[0.2,0.2],"hi":[0.25,0.2000000001]}`
	cases := []struct{ name, body, want string }{
		{"wrong width", `{"k":3,"region":{"lo":[0.2],"hi":[0.25,0.25]}}`, "bad region: box corners have 1 and 2 entries, want 2\n"},
		{"side shorter than Eps", `{"k":3,` + thin + `}`, "bad region: geom: box side 1 is empty: [0.2, 0.2000000001]: geom: region is empty or lower-dimensional\n"},
		{"lo below -Eps", `{"k":3,"region":{"lo":[-0.01,0.2],"hi":[0.25,0.25]}}`, "bad region: geom: box extends below zero in dimension 0\n"},
		{"sum of lo at 1", `{"k":3,"region":{"lo":[0.5,0.5],"hi":[0.6,0.6]}}`, "bad region: geom: box lies outside the weight simplex (Σ lo = 1 ≥ 1)\n"},
		{"k = 0", `{"k":0,` + box + `}`, "core: k must be positive\n"},
		{"k > MaxK", `{"k":6,` + box + `}`, "engine: query k exceeds the engine's MaxK\n"},
		{"no region", `{"k":3}`, "bad region: provide region {lo, hi} or halfspaces\n"},
		{"bad box and k = 0", `{"k":0,` + thin + `}`, "bad region: geom: box side 1 is empty: [0.2, 0.2000000001]: geom: region is empty or lower-dimensional\n"},
	}
	check := func(phase string) {
		for _, tc := range cases {
			for _, path := range []string{"/utk1/alpha", "/utk2/alpha"} {
				rec := serve(h, path, tc.body)
				if rec.Code != http.StatusBadRequest || rec.Header().Get("Content-Type") != "text/plain; charset=utf-8" || rec.Body.String() != tc.want {
					t.Errorf("%s %s %s: %d %q %q, want 400 text/plain %q", phase, path, tc.name, rec.Code, rec.Header().Get("Content-Type"), rec.Body, tc.want)
				}
			}
		}
	}
	check("cold")
	for _, path := range []string{"/utk1/alpha", "/utk2/alpha"} {
		if rec := serve(h, path, `{"k":3,`+box+`}`); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	check("warm")

	rows := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		hs := []string{
			`{"coef":[%g,0],"offset":%g}`, `{"coef":[%g,0],"offset":%g}`,
			`{"coef":[0,%g],"offset":%g}`, `{"coef":[0,%g],"offset":%g}`,
		}
		val := [][2]float64{{1, 0.2}, {-1, -0.25}, {1, 0.2}, {-1, -0.25}}
		out := make([]string, len(hs))
		for i := range hs {
			s := float64(int(1) << rng.Intn(6))
			out[i] = fmt.Sprintf(hs[i], val[i][0]*s, val[i][1]*s)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return `{"k":3,"halfspaces":[` + strings.Join(out, ",") + `]}`
	}
	records := func(b []byte) string {
		return string(b[bytes.Index(b, []byte(`"records"`)):bytes.Index(b, []byte(`,"stats"`))])
	}
	derived := func(rec *httptest.ResponseRecorder) string {
		if !bytes.Contains(rec.Body.Bytes(), []byte(`"derived":true`)) {
			t.Fatalf("not derived from the other form's entry: %s", rec.Body)
		}
		return records(rec.Body.Bytes())
	}
	byBox := serve(h, "/utk1/alpha", `{"k":3,`+box+`}`).Body.Bytes() // the warm entry
	byRows := serve(h, "/utk1/alpha", rows(1))
	if derived(byRows) != records(byBox) {
		t.Errorf("half-space box answers %s, the box %s", byRows.Body, byBox)
	}
	ent, err := reg.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	before := ent.Engine.Stats().Hits
	if again := serve(h, "/utk1/alpha", rows(2)); !bytes.Equal(again.Body.Bytes(), byRows.Body.Bytes()) || ent.Engine.Stats().Hits != before+1 {
		t.Errorf("shuffled and rescaled rows: %s, want a hit reading %s", again.Body, byRows.Body)
	}

	// The other way round, on a fresh server: the rows' UTK2 entry answers
	// the box.
	_, srv2 := fixture(t, "alpha")
	h2 := srv2.Config.Handler
	if rec := serve(h2, "/utk2/alpha", rows(3)); rec.Code != http.StatusOK {
		t.Fatalf("%d %s", rec.Code, rec.Body)
	}
	if got := derived(serve(h2, "/utk1/alpha", `{"k":3,`+box+`}`)); got != records(byBox) {
		t.Errorf("box derived from the rows' entry answers %s, want %s", got, records(byBox))
	}
}

// TestHitIgnoresQueryTimeout: the engine arms Config.QueryTimeout's
// deadline only once the cache cannot answer, so a hit under a 5 s timeout
// allocates exactly what it does without one.
func TestHitIgnoresQueryTimeout(t *testing.T) {
	recs := dataset.Synthetic(dataset.IND, 2000, 4, 1)
	body := `{"k":5,"region":{"lo":[0.2,0.2,0.2],"hi":[0.22,0.22,0.22]}}`
	allocs := make(map[time.Duration]float64)
	for _, timeout := range []time.Duration{0, 5 * time.Second} {
		reg := registry.New()
		if _, err := reg.Create("alpha", recs, registry.Options{MaxK: 10, QueryTimeout: timeout}); err != nil {
			t.Fatal(err)
		}
		h := New(reg, Config{})
		serve(h, "/utk1/alpha", body)
		if rec := serve(h, "/utk1/alpha", body); !bytes.HasPrefix(rec.Body.Bytes(), []byte(`{"cache_hit":true`)) {
			t.Fatalf("timeout %v: repeat missed the cache: %s", timeout, rec.Body)
		}
		allocs[timeout] = testing.AllocsPerRun(100, func() { serve(h, "/utk1/alpha", body) })
	}
	if allocs[0] != allocs[5*time.Second] {
		t.Errorf("a hit allocates %.1f times with a 5 s QueryTimeout, %.1f without", allocs[5*time.Second], allocs[0])
	}
}

// TestMemoConcurrentFirstHits: goroutines making the first hits on one UTK2
// entry at once each get the entry's answer byte for byte, however their
// encodings and memo stores interleave. After an update invalidates the
// entry, the next answer is computed, and the hits after it serve the new
// answer, not the old memo.
func TestMemoConcurrentFirstHits(t *testing.T) {
	reg, srv := fixture(t, "alpha")
	h := srv.Config.Handler
	body := `{"k":3,"region":{"lo":[0.2,0.2],"hi":[0.25,0.25]}}`
	const workers = 8
	hits := func(miss []byte) []byte {
		t.Helper()
		want := asHit(t, miss)
		got := make([][]byte, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[w] = serve(h, "/utk2/alpha", body).Body.Bytes()
			}()
		}
		close(start)
		wg.Wait()
		got = append(got, serve(h, "/utk2/alpha", body).Body.Bytes()) // from the memo
		for w, b := range got {
			if !bytes.Equal(b, want) {
				t.Errorf("hit %d:\n got %s\nwant %s", w, b, want)
			}
		}
		return want
	}

	miss := serve(h, "/utk2/alpha", body)
	if miss.Code != http.StatusOK {
		t.Fatalf("%d %s", miss.Code, miss.Body)
	}
	old := hits(miss.Body.Bytes())

	ent, err := reg.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ent.Engine.Insert([]float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	fresh := serve(h, "/utk2/alpha", body)
	if !bytes.HasPrefix(fresh.Body.Bytes(), []byte(`{"cache_hit":false,`)) {
		t.Fatalf("after the update: %s, want a computed answer", fresh.Body)
	}
	if bytes.Equal(hits(fresh.Body.Bytes()), old) {
		t.Fatal("the update did not change the answer; the test proves nothing")
	}
}
