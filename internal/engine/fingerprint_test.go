package engine

import (
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// fingerprintPins are cache keys of fixed queries, in hex. A key is persisted
// nowhere, but its bytes are the cache's identity: a rewrite of fingerprint
// must reproduce them exactly. When the header dropped its two worker-count
// bytes, each pin became the previous pin with exactly bytes [5, 7) removed;
// every other byte is unchanged. When regions without half-spaces (and their
// vertex-set keys) were deleted, the vertices/utk2 pin went with them; the
// remaining pins stayed byte-identical. When the header dropped its
// ablation-flags byte, each pin became the previous pin with exactly byte 4
// removed (0x03 in box3/utk2, whose query set both drill ablations; 0x00 in
// the others); every other byte is unchanged.
var fingerprintPins = []struct {
	name, hex string
}{
	{"box/utk1", "000500000000000000000000000000000000f03f9a9999999999c93f0000000000000000000000000000f0bf9a9999999999d9bf000000000000f03f00000000000000009a9999999999b93f000000000000f0bf0000000000000000333333333333d3bf"},
	{"box3/utk2", "0170110100000000000000000000000000000000000000000000f03f9a9999999999c93f00000000000000000000000000000000000000000000f0bf6f2e59709a99c9bf0000000000000000000000000000f03f00000000000000009a9999999999a93f0000000000000000000000000000f0bf0000000000000000333333333333d3bf000000000000f03f000000000000000000000000000000000000000000000000000000000000f0bf00000000000000000000000000000000000000000000c0bf"},
	{"polytope/utk1", "000c00000000000000000000000000000000f03f00000000000000000000000000000000000000000000f0bf999999999999d9bf000000000000f03f00000000000000000000000000000000000000000000f0bf0000000000000000333333333333e3bfcc3b7f669ea0e6bfcc3b7f669ea0e6bfcc3b7f669ea0e6bfd9edbfc5259fec3fd9edbfc5259fdc3fe8c10cdd492cc13f"},
}

func TestFingerprintPinned(t *testing.T) {
	box, err := geom.NewBox([]float64{0.1, 0.2}, []float64{0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	box3, err := geom.NewBox([]float64{0, 0.05, 0.2}, []float64{0.125, 0.3, 0.2 + 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	poly, err := geom.NewPolytope(2, []geom.Halfspace{
		{A: []float64{2, 1}, B: 0.3},
		{A: []float64{-1, 0}, B: -0.6},
		{A: []float64{0, -3}, B: -1.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{
		"box/utk1":      fingerprint(UTK1, 5, box),
		"box3/utk2":     fingerprint(UTK2, 70000, box3),
		"polytope/utk1": fingerprint(UTK1, 12, poly),
	}
	for _, pin := range fingerprintPins {
		if got := hex.EncodeToString([]byte(keys[pin.name])); got != pin.hex {
			t.Errorf("%s: fingerprint\n got %s\nwant %s", pin.name, got, pin.hex)
		}
	}
}

// TestBoxKey checks that the corner key is the generic key: for random
// boxes at dim 1–11 (edges included: lo = 0, lo = −0, lo = −Eps, sides of
// exactly Eps), boxKey equals fingerprint of geom.NewBox and halfspaceKey
// over the box's rows, also shuffled and rescaled. The scales are powers of
// two, the scalings whose normalization is exact; any other scale may move a
// bit, which is a miss by design (see fingerprint).
func TestBoxKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edge := []float64{0, math.Copysign(0, -1), -geom.Eps}
	for dim := 1; dim <= 11; dim++ {
		for trial := 0; trial < 40; trial++ {
			lo, hi := make([]float64, dim), make([]float64, dim)
			for i := range lo {
				switch rng.Intn(4) {
				case 0:
					lo[i] = edge[rng.Intn(len(edge))]
				default:
					lo[i] = rng.Float64() * 0.5 / float64(dim)
				}
				if trial%2 == 0 && lo[i] <= 0 {
					hi[i] = lo[i] + geom.Eps // exact: lo is 0 or −Eps
				} else {
					hi[i] = lo[i] + geom.Eps + rng.Float64()*0.2
				}
			}
			r, err := geom.NewBox(lo, hi)
			if err != nil {
				t.Fatalf("dim %d: box %v–%v refused: %v", dim, lo, hi, err)
			}
			k := 1 + rng.Intn(maxK)
			v := Variant(rng.Intn(2))
			want := boxKey(v, k, lo, hi)
			rows := r.Halfspaces()
			if got := halfspaceKey(v, k, rows); got != want {
				t.Fatalf("dim %d: generic key of the box's rows differs from its corner key", dim)
			}
			if got := fingerprint(v, k, r); got != want {
				t.Fatalf("dim %d: fingerprint of the box differs from its corner key", dim)
			}
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			for i := range rows {
				s := math.Ldexp(1, rng.Intn(41)-20)
				for j := range rows[i].A {
					rows[i].A[j] *= s
				}
				rows[i].B *= s
			}
			if got := halfspaceKey(v, k, rows); got != want {
				t.Fatalf("dim %d: generic key of the shuffled, rescaled rows differs from the corner key", dim)
			}
		}
	}
}
