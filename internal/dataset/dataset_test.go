package dataset

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSyntheticShapes(t *testing.T) {
	for _, kind := range []Kind{IND, COR, ANTI} {
		data := Synthetic(kind, 2000, 4, 7)
		if len(data) != 2000 {
			t.Fatalf("%v: want 2000 records", kind)
		}
		for _, p := range data {
			if len(p) != 4 {
				t.Fatalf("%v: wrong dimensionality", kind)
			}
			for _, v := range p {
				if v < 0 || v > 1 {
					t.Fatalf("%v: value %g out of [0,1]", kind, v)
				}
			}
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(ANTI, 100, 3, 42)
	b := Synthetic(ANTI, 100, 3, 42)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed must reproduce the same data")
			}
		}
	}
	c := Synthetic(ANTI, 100, 3, 43)
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

// pairwiseCorrelation estimates the mean Pearson correlation across
// dimension pairs.
func pairwiseCorrelation(data [][]float64) float64 {
	d := len(data[0])
	n := float64(len(data))
	mean := make([]float64, d)
	for _, p := range data {
		for i, v := range p {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= n
	}
	var sum float64
	var pairs int
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			var cov, vi, vj float64
			for _, p := range data {
				cov += (p[i] - mean[i]) * (p[j] - mean[j])
				vi += (p[i] - mean[i]) * (p[i] - mean[i])
				vj += (p[j] - mean[j]) * (p[j] - mean[j])
			}
			sum += cov / math.Sqrt(vi*vj)
			pairs++
		}
	}
	return sum / float64(pairs)
}

func TestCorrelationStructure(t *testing.T) {
	ind := pairwiseCorrelation(Synthetic(IND, 5000, 3, 1))
	cor := pairwiseCorrelation(Synthetic(COR, 5000, 3, 1))
	anti := pairwiseCorrelation(Synthetic(ANTI, 5000, 3, 1))
	if math.Abs(ind) > 0.1 {
		t.Fatalf("IND correlation = %g, want ≈ 0", ind)
	}
	if cor < 0.7 {
		t.Fatalf("COR correlation = %g, want strongly positive", cor)
	}
	if anti > -0.3 {
		t.Fatalf("ANTI correlation = %g, want strongly negative", anti)
	}
}

func TestSurrogates(t *testing.T) {
	hotel := Hotel(3000, 1)
	if len(hotel) != 3000 || len(hotel[0]) != 4 {
		t.Fatal("hotel surrogate shape wrong")
	}
	for _, p := range hotel {
		for _, v := range p {
			if v < 0 || v > 10 {
				t.Fatalf("hotel rating %g out of [0,10]", v)
			}
		}
	}
	if c := pairwiseCorrelation(hotel); c < 0.3 {
		t.Fatalf("hotel ratings should correlate, got %g", c)
	}

	house := House(3000, 1)
	if len(house) != 3000 || len(house[0]) != 6 {
		t.Fatal("house surrogate shape wrong")
	}

	nba := NBA(3000, 1)
	if len(nba) != 3000 || len(nba[0]) != 8 {
		t.Fatal("nba surrogate shape wrong")
	}
	if c := pairwiseCorrelation(nba); c < 0.2 {
		t.Fatalf("nba stats should correlate, got %g", c)
	}
}

func TestParseKind(t *testing.T) {
	for _, s := range []string{"IND", "COR", "ANTI"} {
		k, err := ParseKind(s)
		if err != nil || k.String() != s {
			t.Fatalf("ParseKind(%q) = %v, %v", s, k, err)
		}
	}
	if _, err := ParseKind("XYZ"); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

func TestNBA2017(t *testing.T) {
	players := NBA2017()
	if len(players) < 15 {
		t.Fatal("case-study table too small")
	}
	m, err := PlayersMatrix(players, "reb", "pts")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(players) || len(m[0]) != 2 {
		t.Fatal("matrix shape wrong")
	}
	if _, err := PlayersMatrix(players, "xyz"); err == nil {
		t.Fatal("unknown attribute should fail")
	}
	// Westbrook must be first and dominate the guard tier on reb+pts+ast as
	// the case study requires.
	if players[0].Name != "Russell Westbrook" {
		t.Fatal("expected Westbrook first for the case study")
	}
}

// TestGenerateWidth: Width names the width Generate produces, for every
// name, and both reject an unknown one.
func TestGenerateWidth(t *testing.T) {
	for _, name := range []string{"IND", "COR", "ANTI", "HOTEL", "HOUSE", "NBA"} {
		w, err := Width(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := Generate(name, 7, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 7 || len(recs[0]) != w {
			t.Errorf("%s: %d records of width %d, Width says %d", name, len(recs), len(recs[0]), w)
		}
	}
	if _, err := Width("ind", 3); err == nil {
		t.Error("Width accepted an unknown name")
	}
	if _, err := Generate("ind", 3, 3, 1); err == nil {
		t.Error("Generate accepted an unknown name")
	}
}

// TestReadCSV reads back what the datagen format writes, skipping blank and
// comment lines, and names the line of a bad field.
func TestReadCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.csv")
	if err := os.WriteFile(path, []byte("# header\n0.5,1e-7, 3\n\n2,4,0.125\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]float64{{0.5, 1e-7, 3}, {2, 4, 0.125}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadCSV = %v, want %v", got, want)
	}
	if err := os.WriteFile(path, []byte("1,2\n1,x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCSV(path); err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("bad field: err %v, want one naming line 2", err)
	}
}
