package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps experiment smoke tests fast: one query box per point.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{Queries: 1, Seed: 7, Out: buf}
}

func TestNamesAndOrder(t *testing.T) {
	names := Names()
	if len(names) < 18 {
		t.Fatalf("expected at least 18 experiments, got %d", len(names))
	}
	// Figure order must be numeric: 9 before 10a before 11a.
	idx := map[string]int{}
	for i, n := range names {
		idx[strings.Fields(n)[0]] = i
	}
	if !(idx["9"] < idx["10a"] && idx["10a"] < idx["11a"] && idx["16b"] < idx["table1"]) {
		t.Fatalf("experiment order wrong: %v", names)
	}
}

func TestRunUnknown(t *testing.T) {
	if err := Run("nope", Config{}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestFig9Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("9", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 9(a)", "Figure 9(b)",
		"Russell Westbrook", "Hassan Whiteside", "Andre Drummond",
		"James Harden",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig 9 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table1", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Dataset cardinality n") {
		t.Fatalf("table1 output: %s", buf.String())
	}
}

// TestSweepSmoke runs the performance sweeps at a scale small enough for CI:
// the registered functions are exercised through Run with one query per
// point on the quick datasets. Only the cheap figures are exercised here;
// the expensive ones are covered by cmd/utkbench runs.
func TestSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	for _, name := range []string{"14a", "14b"} {
		buf.Reset()
		if err := Run(name, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) < 1+1+len(sigmaSweep) {
			t.Fatalf("%s: unexpected output:\n%s", name, buf.String())
		}
	}
}

// TestAllExperimentsAtTinyScale drives every registered experiment through
// the CustomN override at a scale where the whole suite takes seconds —
// validating the sweep plumbing of each figure end to end.
func TestAllExperimentsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	DropCaches()
	defer DropCaches()
	var buf bytes.Buffer
	cfg := Config{Queries: 1, Seed: 9, Out: &buf, CustomN: 1500}
	if err := Run("all", cfg); err != nil {
		t.Fatalf("suite failed: %v\noutput so far:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 9(a)", "Figure 10(a)", "Figure 10(b)", "Figure 11(a)",
		"Figure 11(b)", "Figure 12(a)", "Figure 12(b)", "Figure 12(c)",
		"Figure 12(d)", "Figure 13(a)", "Figure 13(b)", "Figure 14(a)",
		"Figure 14(b)", "Figure 15(a)", "Figure 15(b)", "Figure 16(a)",
		"Figure 16(b)", "Ablation", "Table 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("suite output missing %q", want)
		}
	}
}

func TestMeasurementAvg(t *testing.T) {
	m := newMeasurement()
	if m.avg("x") != 0 {
		t.Fatal("empty measurement should average to 0")
	}
	m.add("x", 2)
	m.add("x", 4)
	m.count = 2
	if m.avg("x") != 3 {
		t.Fatalf("avg = %g", m.avg("x"))
	}
}

func TestTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable(&buf, "a", "bbbb")
	tb.row("xxxxx", "y")
	tb.flush()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %q", lines)
	}
	if !strings.HasPrefix(lines[1], "xxxxx  y") {
		t.Fatalf("row misaligned: %q", lines[1])
	}
}

func TestDatasetCache(t *testing.T) {
	DropCaches()
	a := synthetic(0, 100, 3, 1)
	b := synthetic(0, 100, 3, 1)
	if a != b {
		t.Fatal("cache must return the same instance")
	}
	DropCaches()
	c := synthetic(0, 100, 3, 1)
	if a == c {
		t.Fatal("DropCaches must clear the cache")
	}
}
