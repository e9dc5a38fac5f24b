package engine

import (
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// fingerprintPins are cache keys of fixed queries, in hex. A key is persisted
// nowhere, but its bytes are the cache's identity and probeGroupID's layout:
// a rewrite of fingerprint must reproduce them exactly. When the header
// dropped its two worker-count bytes, each pin became the previous pin with
// exactly bytes [5, 7) removed; every other byte is unchanged.
var fingerprintPins = []struct {
	name, hex string
}{
	{"box/utk1", "00050000000000000000000000000000000000f03f9a9999999999c93f0000000000000000000000000000f0bf9a9999999999d9bf000000000000f03f00000000000000009a9999999999b93f000000000000f0bf0000000000000000333333333333d3bf"},
	{"box3/utk2", "017011010300000000000000000000000000000000000000000000f03f9a9999999999c93f00000000000000000000000000000000000000000000f0bf6f2e59709a99c9bf0000000000000000000000000000f03f00000000000000009a9999999999a93f0000000000000000000000000000f0bf0000000000000000333333333333d3bf000000000000f03f000000000000000000000000000000000000000000000000000000000000f0bf00000000000000000000000000000000000000000000c0bf"},
	{"polytope/utk1", "000c0000000000000000000000000000000000f03f00000000000000000000000000000000000000000000f0bf999999999999d9bf000000000000f03f00000000000000000000000000000000000000000000f0bf0000000000000000333333333333e3bfcc3b7f669ea0e6bfcc3b7f669ea0e6bfcc3b7f669ea0e6bfd9edbfc5259fec3fd9edbfc5259fdc3fe8c10cdd492cc13f"},
	{"vertices/utk2", "01010000020000000000000000333333333333d33f000000000000e03f9a9999999999b93f9a9999999999b93f000000000000e03f9a9999999999b93f9a9999999999b93f"},
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
	verts, err := geom.NewPolytopeFromVertices([][]float64{{0.1, 0.1}, {0.5, 0.1}, {0.1, 0.5}, {-0.0, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{
		"box/utk1":      fingerprint(UTK1, 5, box, core.Options{}),
		"box3/utk2":     fingerprint(UTK2, 70000, box3, core.Options{DisableDrill: true, LinearDrill: true}),
		"polytope/utk1": fingerprint(UTK1, 12, poly, core.Options{}),
		"vertices/utk2": fingerprint(UTK2, 1, verts, core.Options{LinearDrill: true}),
	}
	for _, pin := range fingerprintPins {
		if got := hex.EncodeToString([]byte(keys[pin.name])); got != pin.hex {
			t.Errorf("%s: fingerprint\n got %s\nwant %s", pin.name, got, pin.hex)
		}
	}
}
