package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
)

// Reference encoders: the payload maps the hot handlers handed to
// encoding/json before the hand-written writer replaced them.

type refStatsPayload struct {
	Candidates     int     `json:"candidates"`
	FilterMillis   float64 `json:"filter_ms"`
	RefineMillis   float64 `json:"refine_ms"`
	Partitions     int     `json:"partitions,omitempty"`
	UniqueTopKSets int     `json:"unique_top_k_sets,omitempty"`
}

func refStats(st *core.Stats) refStatsPayload {
	return refStatsPayload{
		Candidates:     st.Candidates,
		FilterMillis:   float64(st.FilterDuration.Microseconds()) / 1000,
		RefineMillis:   float64(st.RefineDuration.Microseconds()) / 1000,
		Partitions:     st.Partitions,
		UniqueTopKSets: st.UniqueTopKSets,
	}
}

// refUTK1 and refUTK2 build the payloads from copies made the way the root
// package's UTK1Result and UTK2Result copy an engine.Result, which turn every
// empty id list and point into nil: the wire keeps writing those as null.
func refUTK1(res *engine.Result) map[string]any {
	return map[string]any{
		"records":   append([]int(nil), res.IDs...),
		"cache_hit": res.CacheHit,
		"derived":   res.Derived,
		"stats":     refStats(&res.Stats),
	}
}

type refCellPayload struct {
	TopK     []int     `json:"top_k"`
	Interior []float64 `json:"interior"`
}

func refUTK2(res *engine.Result) map[string]any {
	cells := make([]refCellPayload, len(res.Cells))
	for i, c := range res.Cells {
		cells[i] = refCellPayload{TopK: append([]int(nil), c.TopK...), Interior: append([]float64(nil), c.Interior...)}
	}
	return map[string]any{
		"cells":     cells,
		"cache_hit": res.CacheHit,
		"derived":   res.Derived,
		"stats":     refStats(&res.Stats),
	}
}

func refUpdate(name string, deleted []int, res *engine.UpdateResult) map[string]any {
	return map[string]any{
		"dataset":      name,
		"deleted":      deleted,
		"inserted_ids": res.IDs[len(deleted):],
		"epoch":        res.Epoch,
		"live":         res.Live,
		"superset":     res.SupersetSize,
		"shadow":       res.ShadowSize,
	}
}

// wireGen draws the values the writer must get exactly right.
type wireGen struct{ rng *rand.Rand }

func (g wireGen) float() float64 {
	switch g.rng.Intn(12) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2: // subnormal
		return math.SmallestNonzeroFloat64 * float64(1+g.rng.Intn(1<<20)) * float64(1-2*g.rng.Intn(2))
	case 3: // below 1e-6: the 'e' format with a short negative exponent
		return (1 + 9*g.rng.Float64()) * math.Pow(10, float64(-7-g.rng.Intn(4)))
	case 4: // at and around the 1e-6 and 1e21 cutoffs
		return []float64{1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), -1e21, 1e20}[g.rng.Intn(6)]
	case 5: // at or above 1e21
		return (1 + 9*g.rng.Float64()) * math.Pow(10, float64(21+g.rng.Intn(287)))
	case 6:
		return math.Ldexp(g.rng.Float64(), g.rng.Intn(2098)-1074)
	case 7:
		if g.rng.Intn(40) == 0 { // encoding/json refuses these outright
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.rng.Intn(3)]
		}
		return float64(g.rng.Intn(1000))
	}
	return g.rng.NormFloat64()
}

func (g wireGen) floats() []float64 {
	switch g.rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	out := make([]float64, 1+g.rng.Intn(5))
	for i := range out {
		out[i] = g.float()
	}
	return out
}

func (g wireGen) ints() []int {
	switch g.rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	out := make([]int, 1+g.rng.Intn(8))
	for i := range out {
		switch g.rng.Intn(4) {
		case 0:
			out[i] = int(g.rng.Uint64())
		case 1:
			out[i] = -g.rng.Intn(100)
		default:
			out[i] = g.rng.Intn(1 << 20)
		}
	}
	return out
}

func (g wireGen) count() int {
	switch g.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return -g.rng.Intn(5)
	}
	return g.rng.Intn(1 << 16)
}

func (g wireGen) stats() core.Stats {
	dur := func() time.Duration {
		switch g.rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return time.Duration(g.rng.Intn(1000)) // below a microsecond
		}
		return time.Duration(g.rng.Int63n(int64(time.Hour)))
	}
	return core.Stats{
		Candidates:     g.count(),
		FilterDuration: dur(),
		RefineDuration: dur(),
		Partitions:     g.count(),
		UniqueTopKSets: g.count(),
	}
}

func (g wireGen) name() string {
	if g.rng.Intn(10) == 0 {
		return g.message() // not a valid dataset name, but still exact
	}
	const chars = "abcXYZ019._-"
	b := make([]byte, 1+g.rng.Intn(12))
	for i := range b {
		b[i] = chars[g.rng.Intn(len(chars))]
	}
	return string(b)
}

func (g wireGen) message() string {
	parts := []string{"bad region: ", "<b>", "&amp;", "\u2028", "\u2029", "\xff", "\xe2\x82", `"q"`, `\`, "\n\t\x01", "é", "k exceeds MaxK", "日本"}
	var sb strings.Builder
	for n := g.rng.Intn(5); n >= 0; n-- {
		sb.WriteString(parts[g.rng.Intn(len(parts))])
	}
	return sb.String()
}

func (g wireGen) utk1() *engine.Result {
	return &engine.Result{IDs: g.ints(), Stats: g.stats(), CacheHit: g.rng.Intn(2) == 0, Derived: g.rng.Intn(2) == 0}
}

// utk2 draws cells with bounding half-spaces too, which must not reach the
// wire.
func (g wireGen) utk2() *engine.Result {
	res := &engine.Result{Stats: g.stats(), CacheHit: g.rng.Intn(2) == 0, Derived: g.rng.Intn(2) == 0}
	if g.rng.Intn(6) > 0 {
		res.Cells = make([]core.CellResult, g.rng.Intn(5))
		for i := range res.Cells {
			res.Cells[i] = core.CellResult{TopK: g.ints(), Interior: g.floats()}
			for j := g.rng.Intn(3); j > 0; j-- {
				res.Cells[i].Constraints = append(res.Cells[i].Constraints, geom.Halfspace{A: g.floats(), B: g.float()})
			}
		}
	}
	return res
}

// refBody is what the old writeJSON put on the wire for v: encoding/json's
// output, or nothing at all when it refused the value.
func refBody(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// TestWriterMatchesEncodingJSON is the writer's differential: 20k random
// answers of every hot route, each encoded by respond and by encoding/json
// from the old payload maps, must agree byte for byte, Content-Type included.
func TestWriterMatchesEncodingJSON(t *testing.T) {
	g := wireGen{rand.New(rand.NewSource(1))}
	for trial := 0; trial < 20000; trial++ {
		name := g.name()
		var fill func(*enc)
		var ref any
		switch trial % 3 {
		case 0:
			res := g.utk1()
			fill, ref = func(e *enc) { e.result(res, engine.UTK1, name) }, refUTK1(res)
			ref.(map[string]any)["dataset"] = name
		case 1:
			res := g.utk2()
			fill, ref = func(e *enc) { e.result(res, engine.UTK2, name) }, refUTK2(res)
			ref.(map[string]any)["dataset"] = name
		case 2:
			deleted := g.ints()
			res := &engine.UpdateResult{
				IDs:          append(append([]int(nil), deleted...), g.ints()...),
				Epoch:        g.rng.Uint64(),
				Live:         g.count(),
				SupersetSize: g.count(),
				ShadowSize:   g.count(),
			}
			fill, ref = func(e *enc) { e.update(name, deleted, res) }, refUpdate(name, deleted, res)
		}
		rec := httptest.NewRecorder()
		respond(rec, fill)
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("trial %d: Content-Type %q", trial, ct)
		}
		if want := refBody(ref); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("trial %d: writer and encoding/json disagree\n got %q\nwant %q", trial, rec.Body.Bytes(), want)
		}
	}
}

// FuzzRequestDecode holds the hot-route decoder to json.Decoder.Decode on
// arbitrary bytes, for both body types: the same accept/reject verdict
// and, on accept, reflect.DeepEqual values.
func FuzzRequestDecode(f *testing.F) {
	// Inside the body's object, 10 000 brackets nest 10 001 deep: one past
	// encoding/json's limit; 9 999 sit exactly at it.
	deep := strings.Repeat("[", 10000) + strings.Repeat("]", 10000)
	deepOK := strings.Repeat("[", 9999) + strings.Repeat("]", 9999)
	for _, seed := range []string{
		// The benchmark's canonical bodies.
		`{"k":10,"region":{"lo":[0.1,0.2,0.30000000000000004],"hi":[0.15,0.25,0.35]}}`,
		`{"delete":[3,17,42,7,1,2,9,100000,5,6,8,10,11,12,13,14],"insert":[[0.5,0.25,0.125,1e-7],[1,2,3,4]]}`,
		`{"queries":[{"k":3,"region":{"lo":[0.2,0.2],"hi":[0.25,0.25]}},{"k":2}]}`,
		`{"k":2,"halfspaces":[{"coef":[1,0],"offset":0.1},{"coef":[-1,-1],"offset":-0.5}]}`,
		// Case folding, the Kelvin sign and long s, escaped keys.
		`{"K":3,"REGION":{"Lo":[0.1],"hI":[0.2]},"HalfSpaces":[{"COEF":[1],"Offset":2}]}`,
		"{\"\u212a\":4,\"halfspace\u017f\":[{\"coef\":[1]}],\"queries\":[{\"\u212a\":1}],\"in\u017fert\":[[1]]}",
		`{"\u006b":5,"\u0072egion":{"l\u006f":[1]},"\ud800":1,"\ud83d\ude00":2,"\u212A":6}`,
		// Duplicate keys: last wins, a second region merges, arrays reuse elements.
		`{"k":1,"k":2,"region":{"lo":[1,2,3]},"region":{"hi":[4]},"region":{"lo":[5]},"region":{"lo":[6,null,null]}}`,
		`{"halfspaces":[{"coef":[1,2],"offset":3},{"offset":4}],"halfspaces":[{"coef":[5]}],"halfspaces":[{},{}]}`,
		`{"queries":[{"k":1,"region":{"lo":[1]}},{"k":2}],"queries":[{"k":3}],"queries":[null,{"region":null}]}`,
		`{"region":{"lo":[1]},"region":null}`, `{"halfspaces":[{"coef":[1]}],"halfspaces":null}`, `{"queries":[{"region":{"hi":[2]}}],"queries":[{"region":null}]}`,
		`{"delete":[1,2,3],"delete":[4],"delete":[null,null,null,null],"insert":[[1,2],[3]],"insert":[[4]],"insert":[[null],null,[]]}`,
		// nulls, empties, numbers at the edges of the grammar and of range.
		`null`, `nullx`, `{"k":null,"region":null,"halfspaces":null}`, `{"delete":[],"insert":[]}`, `{}`,
		`{"k":1e2}`, `{"k":01}`, `{"k":-0}`, `{"k":1.0}`, `{"k":+1}`, `{"k":.5}`, `{"k":1.}`, `{"k":9223372036854775807}`,
		`{"k":9223372036854775808}`, `{"k":-9223372036854775808}`, `{"delete":[1e2]}`, `{"insert":[[1e400]]}`,
		// Past a 32-bit int: refused there, not wrapped to record 1 and k = 5.
		`{"delete":[4294967297]}`, `{"k":4294967301}`,
		`{"insert":[[1e-400,-0,0.5E+3,2e-07]]}`, `{"region":{"lo":[-0.0,1E5,1e21]}}`,
		// Trailing bytes, bad syntax, wrong types, unknown fields.
		`{"k":3}garbage`, `{"k":3} {"k":4}`, `  {"k":3}`, ``, `   `, `{`, `{"k":3,}`, `[1]`, `"x"`, `5`, `true`,
		"\x00{\"k\":3}", "{\"delete\":[1]\x00}",
		`{"k":"3"}`, `{"region":[1]}`, `{"region":{"lo":{}}}`, `{"queries":{}}`, `{"insert":[1]}`,
		`{"x":{"y":[1,{"z":"\u00e9\n"}],"w":true},"k":2}`, `{"x":"\x01"}`, `{"x":"\q"}`, "{\"x\":\"\xff\"}",
		`{"extra":` + deep + `,"k":1}`, `{"extra":` + deepOK + `,"k":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, decodeQuery)
		checkDecode(t, b, decodeUpdate)
	})
}

func checkDecode[T any](t *testing.T, b []byte, decode func([]byte, *T) error) {
	t.Helper()
	var want, got T
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	gotErr := decode(b, &got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%T on %q: encoding/json err %v, decoder err %v", got, b, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%T on %q:\nencoding/json %+v\n      decoder %+v", got, b, want, got)
	}
}

// TestScannerShapes holds the documented bodies to the scanner, not to the
// encoding/json fallback, which would decode them too but several times
// slower and with 20 allocations in place of 3 for a box: the benchmark's
// exact box and update layouts, a halfspaces body and pretty-printed copies
// are scanned to encoding/json's values, and the spellings outside the
// documented shapes are refused. Whether a refused
// body then decodes as encoding/json decodes it is FuzzRequestDecode's part.
func TestScannerShapes(t *testing.T) {
	scan := func(b []byte) (any, any, bool) {
		if bytes.Contains(b, []byte(`"delete"`)) || bytes.Contains(b, []byte(`"insert"`)) {
			var got, want updateRequest
			ok := scanUpdate(b, &got)
			_ = json.Unmarshal(b, &want)
			return got, want, ok
		}
		var got, want queryRequest
		ok := scanQuery(b, &got)
		_ = json.Unmarshal(b, &want)
		return got, want, ok
	}
	for _, body := range []string{
		`{"k":10,"region":{"lo":[0.1,0.2,0.30000000000000004],"hi":[0.15,0.25,0.35]}}`,
		`{"delete":[3,17,42,100000],"insert":[[0.5,0.25,0.125,1e-07],[1,2,3,4]]}`,
		`{"k":2,"halfspaces":[{"coef":[1,0],"offset":0.1},{"coef":[-1,-1],"offset":-0.5}]}`,
		`{"delete":[],"insert":[[]]}`,
	} {
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, []byte(body), "", "\t"); err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{[]byte(body), append(pretty.Bytes(), "\r\n"...)} {
			got, want, ok := scan(b)
			if !ok {
				t.Errorf("scanner refused %q", b)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("%q: scanned %+v, encoding/json %+v", b, got, want)
			}
		}
	}
	for _, body := range []string{
		`{"\u006b":5}`, `{"K":3}`, `{"k":1,"k":1}`, `{"k":null}`, `null`, `{"k":1,"x":2}`,
		`{"k":01}`, `{"k":1e2}`, `{"k":"3"}`, `{"k":3,"region":{"lo":[1e400],"hi":[1]}}`,
		"{\"k\":3,\x00\"halfspaces\":[]}", `{"delete":[1],"delete":[2]}`, `{"insert":[null]}`,
		`{"delete":[1],"insert":[[1]],"extra":{}}`,
	} {
		if _, _, ok := scan([]byte(body)); ok {
			t.Errorf("scanner accepted %q", body)
		}
	}
}
