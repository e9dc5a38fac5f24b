package main

import (
	"io"
	"os"
	"regexp"
	"slices"
	"sync"
	"testing"
)

// smoke is the tier-1 scale: tiny dataset, a few hundred ops, sentinel passes
// of microseconds.
var smoke = scale{n: 2000, ops: 270}

// smokeRun is one run's two metric sets.
type smokeRun struct {
	failed      int
	e2e, layers map[string]metric
}

var (
	smokeOnce sync.Once
	smokeRuns map[string][2]smokeRun // two runs of seed 1 per workload
	smokeErr  error
)

// runSmoke runs every workload twice on seed 1, untraced and traced, once per
// test binary.
func runSmoke(t *testing.T) map[string][2]smokeRun {
	t.Helper()
	smokeOnce.Do(func() {
		dir, err := os.MkdirTemp("", "bench-smoke-")
		if err != nil {
			smokeErr = err
			return
		}
		defer os.RemoveAll(dir)
		tmpRoot, outDir, sentinelRounds = dir, dir, 10
		smokeRuns = map[string][2]smokeRun{}
		for i := range specs {
			sp := &specs[i]
			var pair [2]smokeRun
			for rep := range pair {
				r, err := sp.run(1, smoke, io.Discard)
				if err != nil {
					smokeErr = err
					return
				}
				tr, err := r.traced(io.Discard)
				r.in.close()
				if err != nil {
					smokeErr = err
					return
				}
				pair[rep] = smokeRun{r.bad + tr.failed, r.endToEnd(), tr.metrics}
			}
			smokeRuns[sp.name] = pair
		}
	})
	if smokeErr != nil {
		t.Fatal(smokeErr)
	}
	return smokeRuns
}

func TestSequenceDeterminism(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b, c := sp.buildSequence(1, smoke), sp.buildSequence(1, smoke), sp.buildSequence(2, smoke)
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed, different sequence hash", sp.name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 1 and 2 give the same sequence hash", sp.name)
		}
		if got := len(a.measured()); got < smoke.ops || got > smoke.ops+8 {
			t.Errorf("%s: %d measured ops, want about %d", sp.name, got, smoke.ops)
		}
	}
}

// TestExactCountsRepeat: the counts that depend only on the op sequence must
// be identical between two runs of one seed.
func TestExactCountsRepeat(t *testing.T) {
	exact := []string{
		"skyband.candidates_per_query", "core.partitions_per_utk2", "core.verify_calls_per_utk1",
		"lp.calls_per_utk2", "store.wal_bytes_per_op",
	}
	// Cache outcomes are exact only while nothing is evicted for capacity:
	// eviction weighs entries by their measured compute time.
	cache := []string{"engine.hit_frac", "engine.derived_frac", "engine.miss_frac"}
	for name, pair := range runSmoke(t) {
		names := exact
		if name == "reuse_hot" {
			names = append(slices.Clone(exact), cache...)
		}
		for _, m := range names {
			a, b := pair[0].layers[m].Value, pair[1].layers[m].Value
			if a != b {
				t.Errorf("%s: %s = %v then %v on the same seed", name, m, a, b)
			}
		}
	}
	hot := runSmoke(t)["reuse_hot"][0].layers
	if hot["engine.hit_frac"].Value == 0 || hot["engine.derived_frac"].Value == 0 {
		t.Errorf("reuse_hot: hit_frac %v, derived_frac %v: the cache is not being used",
			hot["engine.hit_frac"].Value, hot["engine.derived_frac"].Value)
	}
}

func TestRunsAreCorrect(t *testing.T) {
	for name, pair := range runSmoke(t) {
		if pair[0].failed != 0 || pair[1].failed != 0 {
			t.Errorf("%s: %d and %d failed ops or mismatched answers", name, pair[0].failed, pair[1].failed)
		}
	}
}

// TestBenchmarkFile: BENCHMARK.json and the program agree on workloads and on
// every metric's name and unit, and each declaration is well-formed.
func TestBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(specs))
	}
	runs := runSmoke(t)
	sawSetup := false
	for _, w := range bf.Workloads {
		sp := findSpec(w.Name)
		if sp == nil || sp.why != w.Why || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q: not implemented, or its why differs from the spec's", w.Name)
			continue
		}
		for _, c := range []struct {
			decls []metricDecl
			got   map[string]metric
			e2e   bool
		}{{bf.EndToEnd, runs[w.Name][0].e2e, true}, {bf.PerLayer, runs[w.Name][0].layers, false}} {
			if len(c.got) != len(c.decls) {
				t.Errorf("%s: %d metrics emitted, %d declared (end_to_end=%v)", w.Name, len(c.got), len(c.decls), c.e2e)
			}
			for _, d := range c.decls {
				m, ok := c.got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: declared metric %s is not emitted", w.Name, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s emitted in %q, declared in %q", w.Name, d.Name, m.Unit, d.Unit)
				case !nameRE.MatchString(d.Name) || d.Unit == "" || (d.Better != "lower" && d.Better != "higher"):
					t.Errorf("metric %s: malformed declaration %+v", d.Name, d)
				case c.e2e && (d.Bound <= 0 || d.Bound > 0.25 || m.Value <= 0):
					t.Errorf("%s: end-to-end metric %s has bound %v and value %v", w.Name, d.Name, d.Bound, m.Value)
				}
				sawSetup = sawSetup || (c.e2e && d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
			}
		}
	}
	if !sawSetup {
		t.Error("end_to_end must declare setup_s in s, lower is better")
	}
}

// TestLayerSum: on the traced run the per-layer self times add up to the
// traced end-to-end wall, and handler and twin served (nearly) every op the
// same way: cost-aware eviction may tell two instances apart on a few.
func TestLayerSum(t *testing.T) {
	for name, pair := range runSmoke(t) {
		m := pair[0].layers
		if v := m["bench.layer_sum_err_frac"].Value; v > 0.10 {
			t.Errorf("%s: layer self times are %.1f %% off the traced wall", name, 100*v)
		}
		if v := m["bench.twin_divergence"].Value; v > 0.01*float64(smoke.ops) {
			t.Errorf("%s: handler and twin diverged on %v ops", name, v)
		}
	}
}
