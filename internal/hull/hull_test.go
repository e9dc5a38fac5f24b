package hull

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/geom"
	"repro/internal/oracle"
)

func TestOnionLayers2DKnown(t *testing.T) {
	// A convex staircase in 2D: the first-quadrant hull of layer 1 consists
	// of the maxima that are top-1 for some weight.
	data := [][]float64{
		{10, 1}, // on hull (best for w1→1)
		{8, 8},  // on hull
		{1, 10}, // on hull (best for w1→0)
		{5, 5},  // strictly inside
		{2, 2},  // deep inside
	}
	layers := OnionLayers(data, 2)
	if len(layers) != 2 {
		t.Fatalf("want 2 layers, got %d", len(layers))
	}
	sort.Ints(layers[0])
	if !equal(layers[0], []int{0, 1, 2}) {
		t.Fatalf("layer 1 = %v, want [0 1 2]", layers[0])
	}
	sort.Ints(layers[1])
	if !equal(layers[1], []int{3}) {
		t.Fatalf("layer 2 = %v, want [3]", layers[1])
	}
}

func TestFirstLayerEqualsTop1Records(t *testing.T) {
	// Layer 1 must equal the set of records that win a top-1 query for some
	// weight vector; validate against dense weight sampling (subset
	// direction) and per-record LP semantics (superset direction is the
	// implementation itself, so use the oracle with k=1 over the whole
	// simplex approximated by a large box).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(3)
		n := 8 + rng.Intn(8)
		data := make([][]float64, n)
		for i := range data {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.Float64() * 10
			}
			data[i] = p
		}
		layer1 := map[int]bool{}
		for _, i := range OnionLayers(data, 1)[0] {
			layer1[i] = true
		}
		// Any sampled top-1 winner must be on layer 1.
		for s := 0; s < 300; s++ {
			w := make([]float64, d-1)
			rem := 1.0
			for j := range w {
				w[j] = rng.Float64() * rem
				rem -= w[j]
			}
			best, bestScore := -1, -1.0
			for i, p := range data {
				if s := geom.Score(p, w); s > bestScore {
					best, bestScore = i, s
				}
			}
			if !layer1[best] {
				t.Fatalf("trial %d: top-1 winner %d at %v not in layer 1 %v", trial, best, w, layer1)
			}
		}
	}
}

func TestLayersDisjointAndOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := make([][]float64, 40)
	for i := range data {
		data[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	layers := OnionLayers(data, 4)
	seen := map[int]bool{}
	for li, l := range layers {
		if len(l) == 0 {
			t.Fatalf("layer %d empty", li)
		}
		for _, i := range l {
			if seen[i] {
				t.Fatalf("record %d appears in two layers", i)
			}
			seen[i] = true
		}
	}
}

func TestFirstLayerSubsetOfSkyline(t *testing.T) {
	// On general-position data (no coordinate ties), a dominated record is
	// outscored everywhere, so layer 1 must be a subset of the skyline.
	// (Deeper layers are NOT always inside the k-skyband: a record whose
	// dominators all sit on layer 1 can surface on layer 2; the onion filter
	// remains a correct superset of all top-k records regardless, which
	// TestOnionCoversUTK1 checks.)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		data := make([][]float64, 30)
		for i := range data {
			data[i] = []float64{rng.Float64(), rng.Float64()}
		}
		for _, i := range OnionLayers(data, 1)[0] {
			for j := range data {
				if j != i && geom.Dominates(data[j], data[i]) {
					t.Fatalf("trial %d: layer-1 record %d is dominated by %d", trial, i, j)
				}
			}
		}
	}
}

func TestOnionCoversUTK1(t *testing.T) {
	// The k onion layers must be a superset of every possible top-k set:
	// compare against the exact oracle on small instances.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		data := make([][]float64, 14)
		for i := range data {
			data[i] = []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		}
		r, err := geom.NewBox([]float64{0.1, 0.1}, []float64{0.4, 0.4})
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(3)
		onion := map[int]bool{}
		for _, i := range Flatten(OnionLayers(data, k)) {
			onion[i] = true
		}
		for _, id := range oracle.UTK1(data, r, k) {
			if !onion[id] {
				t.Fatalf("trial %d k=%d: UTK1 record %d missing from onion layers", trial, k, id)
			}
		}
	}
}

func TestDuplicateRecords(t *testing.T) {
	data := [][]float64{{5, 5}, {5, 5}, {1, 1}}
	layers := OnionLayers(data, 3)
	total := 0
	for _, l := range layers {
		total += len(l)
	}
	if total != 3 {
		t.Fatalf("duplicates mishandled: layers %v", layers)
	}
}

// hangRecords made the two-phase tableau's phase 1 cycle for good (Bland's
// rule with absolute 1e-9 ratio ties on rows of magnitude 1e5–1e6); records
// 3/6 and 2/10 are near-copies. Every record's exact max-min normalized
// slack is at least 0.016 away from 0, so the layer is not a matter of
// tolerance.
var hangRecords = [][]float64{
	{343114.5476016266, 121460.47009760718, 465216.0323757259, 41523.043973598215},
	{437687.60762458434, 149868.60897967956, 994610.9636507492, 862453.6398861064},
	{624933.1242572828, 952890.9320339065, 251083.07452760875, 134693.93530802772},
	{5420.908684702261, 789804.4113405755, 167295.83628650868, 155822.27797130225},
	{740942.8823461719, 858338.2158419619, 164886.54622460675, 163717.3745636993},
	{560928.319869509, 834167.7743217335, 506915.05410031514, 884345.5543512668},
	{5420.908677894474, 789804.4187637685, 167295.83717785164, 155822.27675858745},
	{858179.3058389894, 804950.7406220298, 80170.39707670466, 219262.39259196093},
	{369640.4360809406, 996027.9961897501, 681647.0024488182, 91678.33105228853},
	{926970.9851535425, 706368.5685496288, 935572.1241089228, 333107.13626061},
	{624933.1238425926, 952890.9275037404, 251083.07583488504, 134693.93565380233},
}

func TestOnionLayersTerminates(t *testing.T) {
	done := make(chan [][]int, 1)
	go func() { done <- OnionLayers(hangRecords, 1) }()
	select {
	case layers := <-done:
		sort.Ints(layers[0])
		if !equal(layers[0], []int{1, 2, 5, 7, 8, 9}) {
			t.Fatalf("layer 1 = %v, want [1 2 5 7 8 9]", layers[0])
		}
		for i := range hangRecords {
			if slack := exactSlack(hangRecords, i); math.Abs(slack) < 0.016 {
				t.Fatalf("record %d: exact slack %g, the expected layer assumes |slack| ≥ 0.016", i, slack)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal("OnionLayers did not return within 20 s")
	}
}

// exactSlack is the exact max-min normalized slack of records[i]'s top-1
// cell among all records (internal/exact over the half-spaces
// onFirstQuadrantHull hands the kernel); −Inf when some record is ahead
// everywhere by a constant.
func exactSlack(records [][]float64, i int) float64 {
	dim := len(records[i]) - 1
	hs := geom.SimplexHalfspaces(dim)
	for j, q := range records {
		if j != i {
			hs = append(hs, geom.DualHalfspace(records[i], q))
		}
	}
	a := make([][]float64, len(hs))
	b := make([]float64, len(hs))
	for k, h := range hs {
		a[k], b[k] = h.A, h.B
	}
	_, s, ok := exact.Center(dim, a, b)
	if !ok {
		return math.Inf(-1)
	}
	f, _ := s.Float64()
	return f
}

// TestFirstLayerMatchesExact: layer-1 membership is the sign of the exact
// max-min normalized slack, on general-position data and on a coarse grid
// with ties and duplicates. Records within 1e-9 of 0 are the tolerance's to
// decide and are skipped.
func TestFirstLayerMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	decided, skipped := 0, 0
	for trial := 0; trial < 60; trial++ {
		d := 2 + rng.Intn(4)
		n := 2 + rng.Intn(29)
		grid := trial%2 == 1
		data := make([][]float64, n)
		for i := range data {
			if grid && i > 0 && rng.Intn(4) == 0 {
				data[i] = data[rng.Intn(i)] // an exact duplicate
				continue
			}
			p := make([]float64, d)
			for j := range p {
				if grid {
					p[j] = float64(rng.Intn(5))
				} else {
					p[j] = rng.Float64()
				}
			}
			data[i] = p
		}
		layer1 := map[int]bool{}
		for _, i := range OnionLayers(data, 1)[0] {
			layer1[i] = true
		}
		for i := range data {
			slack := exactSlack(data, i)
			if math.Abs(slack) <= 1e-9 {
				skipped++
				continue
			}
			decided++
			if layer1[i] != (slack > 0) {
				t.Fatalf("trial %d (grid %v, d %d, n %d): record %d in layer 1 = %v, exact slack %g", trial, grid, d, n, i, layer1[i], slack)
			}
		}
	}
	t.Logf("%d records decided by the exact slack's sign, %d within 1e-9 of 0", decided, skipped)
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
