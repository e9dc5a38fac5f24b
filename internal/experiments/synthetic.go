package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
)

func init() {
	register("11a", "UTK1 response time: SK vs ON vs RSA, vary k (IND)", fig11a)
	register("11b", "UTK2 response time: SK vs ON vs JAA, vary k (IND)", fig11b)
	register("12a", "RSA response time vs n (COR/IND/ANTI)", fig12a)
	register("12b", "UTK1 result size vs n (COR/IND/ANTI)", fig12b)
	register("12c", "JAA response time vs n (COR/IND/ANTI)", fig12c)
	register("12d", "number of top-k sets vs n (COR/IND/ANTI)", fig12d)
	register("13a", "RSA and JAA response time vs d (IND)", fig13a)
	register("13b", "RSA and JAA space requirements vs d (IND)", fig13b)
	register("14a", "RSA and JAA response time vs σ (IND)", fig14a)
	register("14b", "RSA and JAA result size vs σ (IND)", fig14b)
	register("ablate", "drill optimization ablation on RSA (IND)", ablation)
}

// kSweep is the k axis of Figures 10, 11, and 15.
var kSweep = []int{1, 5, 10, 20, 50, 100}

// baselineKCap bounds the baseline measurements: beyond it the kSPR-based
// baselines take hours even at reduced scale (the paper itself reports
// 10³–10⁴ seconds there), so rows above the cap print "—". The growth trend
// is fully visible below the cap.
func (c Config) baselineKCap(f baseline.Filter) int {
	if f == baseline.ON {
		if c.Paper {
			return 20
		}
		return 10
	}
	if c.Paper {
		return 50
	}
	return 20
}

func (c Config) nSweep() []int {
	if c.CustomN > 0 {
		return []int{c.CustomN / 4, c.CustomN / 2, c.CustomN, c.CustomN * 2, c.CustomN * 4}
	}
	if c.Paper {
		return []int{100000, 200000, 400000, 800000, 1600000}
	}
	return []int{25000, 50000, 100000, 200000, 400000}
}

var sigmaSweep = []float64{0.001, 0.005, 0.01, 0.05, 0.10}

var dSweep = []int{2, 3, 4, 5, 6, 7}

// fig11a compares UTK1 response times of the baselines and RSA as k varies
// on IND data (Figure 11(a)).
func fig11a(cfg Config) error {
	return fig11(cfg, false)
}

// fig11b is the UTK2 counterpart (Figure 11(b)).
func fig11b(cfg Config) error {
	return fig11(cfg, true)
}

func fig11(cfg Config, utk2 bool) error {
	w := cfg.out()
	n := cfg.DefaultN()
	idx := synthetic(dataset.IND, n, DefaultD, cfg.seed())
	boxes := dataset.RandomBoxes(DefaultD-1, DefaultSigma, cfg.queries(), cfg.seed())
	variant, ours := "UTK1", "RSA"
	if utk2 {
		variant, ours = "UTK2", "JAA"
	}
	header(w, "# Figure 11(%s) — %s response time vs k (IND, n=%d, d=%d, σ=%.1f%%, %d queries; '—' = beyond baseline cap)",
		map[bool]string{false: "a", true: "b"}[utk2], variant, n, DefaultD, DefaultSigma*100, len(boxes))
	tb := newTable(w, "k", "SK(ms)", "ON(ms)", ours+"(ms)")
	for _, k := range kSweep {
		skMS := baselineCell(cfg, idx, boxes, k, baseline.SK, utk2)
		onMS := baselineCell(cfg, idx, boxes, k, baseline.ON, utk2)
		m := newMeasurement()
		for _, r := range boxes {
			var d time.Duration
			var err error
			if utk2 {
				d = timed(func() { _, _, err = core.JAA(idx.tree, r, k, core.Options{}) })
			} else {
				d = timed(func() { _, _, err = core.RSA(idx.tree, r, k, core.Options{}) })
			}
			if err != nil {
				return err
			}
			m.add("t", float64(d.Microseconds())/1000)
			m.count++
		}
		tb.row(fmt.Sprint(k), skMS, onMS, msf(m.avg("t")))
	}
	tb.flush()
	return nil
}

// baselineCell measures one baseline at one k, amortizing the R-independent
// filtering across queries (the paper's baselines redo it per query; timing
// includes an even share of the one-off filter cost).
func baselineCell(cfg Config, idx *indexed, boxes []*geom.Region, k int, f baseline.Filter, utk2 bool) string {
	if k > cfg.baselineKCap(f) {
		return "—"
	}
	filterStart := time.Now()
	cands := baseline.FilterOnly(idx.tree, idx.data, k, f)
	filterPer := time.Since(filterStart) / time.Duration(len(boxes))
	m := newMeasurement()
	for _, r := range boxes {
		var err error
		d := timed(func() {
			if utk2 {
				_, err = baseline.UTK2From(cands, r, k, nil)
			} else {
				_, err = baseline.UTK1From(cands, r, k, nil)
			}
		})
		if err != nil {
			return "err"
		}
		m.add("t", float64((d+filterPer).Microseconds())/1000)
		m.count++
	}
	return msf(m.avg("t"))
}

// runPoint measures RSA and JAA at one configuration, returning average
// metrics: rsaMS, jaaMS, utk1Size, topKSets, rsaMB, jaaMB.
func runPoint(idx *indexed, boxes []*geom.Region, k int) (map[string]float64, error) {
	m := newMeasurement()
	for _, r := range boxes {
		var rsaIDs []int
		var rsaStats *core.Stats
		var err error
		d := timed(func() { rsaIDs, rsaStats, err = core.RSA(idx.tree, r, k, core.Options{}) })
		if err != nil {
			return nil, err
		}
		m.add("rsaMS", float64(d.Microseconds())/1000)
		m.add("utk1", float64(len(rsaIDs)))
		m.add("rsaMB", float64(rsaStats.PeakBytes))

		var jaaStats *core.Stats
		d = timed(func() { _, jaaStats, err = core.JAA(idx.tree, r, k, core.Options{}) })
		if err != nil {
			return nil, err
		}
		m.add("jaaMS", float64(d.Microseconds())/1000)
		m.add("sets", float64(jaaStats.UniqueTopKSets))
		m.add("parts", float64(jaaStats.Partitions))
		m.add("jaaMB", float64(jaaStats.PeakBytes))
		m.count++
	}
	out := map[string]float64{}
	for _, key := range []string{"rsaMS", "jaaMS", "utk1", "sets", "parts", "rsaMB", "jaaMB"} {
		out[key] = m.avg(key)
	}
	return out, nil
}

// fig12 runs the cardinality sweep across the three distributions and
// reports the requested metric.
func fig12(cfg Config, metric, title, unit string) error {
	w := cfg.out()
	kinds := []dataset.Kind{dataset.COR, dataset.IND, dataset.ANTI}
	header(w, "# Figure %s (d=%d, k=%d, σ=%.1f%%, %d queries)", title, DefaultD, DefaultK, DefaultSigma*100, cfg.queries())
	tb := newTable(w, "n", "COR"+unit, "IND"+unit, "ANTI"+unit)
	for _, n := range cfg.nSweep() {
		row := []string{fmt.Sprint(n)}
		for _, kind := range kinds {
			idx := synthetic(kind, n, DefaultD, cfg.seed())
			boxes := dataset.RandomBoxes(DefaultD-1, DefaultSigma, cfg.queries(), cfg.seed())
			vals, err := runPoint(idx, boxes, DefaultK)
			if err != nil {
				return err
			}
			if unit == "(ms)" {
				row = append(row, msf(vals[metric]))
			} else {
				row = append(row, count(vals[metric]))
			}
		}
		tb.row(row...)
	}
	tb.flush()
	return nil
}

func fig12a(cfg Config) error { return fig12(cfg, "rsaMS", "12(a) — RSA response time vs n", "(ms)") }
func fig12b(cfg Config) error { return fig12(cfg, "utk1", "12(b) — UTK1 result size vs n", "(recs)") }
func fig12c(cfg Config) error { return fig12(cfg, "jaaMS", "12(c) — JAA response time vs n", "(ms)") }
func fig12d(cfg Config) error {
	return fig12(cfg, "sets", "12(d) — number of top-k sets vs n", "(sets)")
}

// fig13a sweeps data dimensionality and reports RSA/JAA response times
// (Figure 13(a)).
func fig13a(cfg Config) error {
	return fig13(cfg, "13(a) — response time vs d", "rsaMS", "jaaMS", "(ms)")
}

// fig13b reports the peak space of the query-specific structures
// (Figure 13(b)).
func fig13b(cfg Config) error {
	return fig13(cfg, "13(b) — space requirements vs d", "rsaMB", "jaaMB", "(MB)")
}

func fig13(cfg Config, title, rsaKey, jaaKey, unit string) error {
	w := cfg.out()
	n := cfg.DefaultN()
	header(w, "# Figure %s (IND, n=%d, k=%d, σ=%.1f%%, %d queries)", title, n, DefaultK, DefaultSigma*100, cfg.queries())
	tb := newTable(w, "d", "RSA"+unit, "JAA"+unit)
	for _, d := range dSweep {
		idx := synthetic(dataset.IND, n, d, cfg.seed())
		boxes := dataset.RandomBoxes(d-1, DefaultSigma, cfg.queries(), cfg.seed())
		vals, err := runPoint(idx, boxes, DefaultK)
		if err != nil {
			return err
		}
		if unit == "(MB)" {
			tb.row(fmt.Sprint(d), mb(vals[rsaKey]), mb(vals[jaaKey]))
		} else {
			tb.row(fmt.Sprint(d), msf(vals[rsaKey]), msf(vals[jaaKey]))
		}
	}
	tb.flush()
	return nil
}

// fig14a sweeps the query region size σ and reports response times
// (Figure 14(a)).
func fig14a(cfg Config) error {
	w := cfg.out()
	n := cfg.DefaultN()
	idx := synthetic(dataset.IND, n, DefaultD, cfg.seed())
	header(w, "# Figure 14(a) — response time vs σ (IND, n=%d, d=%d, k=%d, %d queries)", n, DefaultD, DefaultK, cfg.queries())
	tb := newTable(w, "σ(%)", "RSA(ms)", "JAA(ms)")
	for _, s := range sigmaSweep {
		boxes := dataset.RandomBoxes(DefaultD-1, s, cfg.queries(), cfg.seed())
		vals, err := runPoint(idx, boxes, DefaultK)
		if err != nil {
			return err
		}
		tb.row(fmt.Sprintf("%.1f", s*100), msf(vals["rsaMS"]), msf(vals["jaaMS"]))
	}
	tb.flush()
	return nil
}

// fig14b reports the result sizes over the σ sweep (Figure 14(b)): records
// for UTK1, distinct top-k sets for UTK2.
func fig14b(cfg Config) error {
	w := cfg.out()
	n := cfg.DefaultN()
	idx := synthetic(dataset.IND, n, DefaultD, cfg.seed())
	header(w, "# Figure 14(b) — result size vs σ (IND, n=%d, d=%d, k=%d, %d queries)", n, DefaultD, DefaultK, cfg.queries())
	tb := newTable(w, "σ(%)", "UTK1(recs)", "UTK2(sets)")
	for _, s := range sigmaSweep {
		boxes := dataset.RandomBoxes(DefaultD-1, s, cfg.queries(), cfg.seed())
		vals, err := runPoint(idx, boxes, DefaultK)
		if err != nil {
			return err
		}
		tb.row(fmt.Sprintf("%.1f", s*100), count(vals["utk1"]), count(vals["sets"]))
	}
	tb.flush()
	return nil
}

// ablation quantifies the drill optimization of Section 4.3: RSA with the
// paper configuration, with the linear-scan drill, and with the drill
// disabled entirely.
func ablation(cfg Config) error {
	w := cfg.out()
	n := cfg.DefaultN()
	idx := synthetic(dataset.IND, n, DefaultD, cfg.seed())
	header(w, "# Ablation — drill optimization (IND, n=%d, d=%d, σ=%.1f%%, %d queries)", n, DefaultD, DefaultSigma*100, cfg.queries())
	tb := newTable(w, "k", "RSA(ms)", "linear-drill(ms)", "no-drill(ms)", "drill hit rate")
	for _, k := range []int{1, 10, 50} {
		boxes := dataset.RandomBoxes(DefaultD-1, DefaultSigma, cfg.queries(), cfg.seed())
		m := newMeasurement()
		for _, r := range boxes {
			var st *core.Stats
			var err error
			d := timed(func() { _, st, err = core.RSA(idx.tree, r, k, core.Options{}) })
			if err != nil {
				return err
			}
			m.add("base", float64(d.Microseconds())/1000)
			if st.Drills > 0 {
				m.add("hit", float64(st.DrillHits)/float64(st.Drills))
			}
			d = timed(func() { _, _, err = core.RSA(idx.tree, r, k, core.Options{LinearDrill: true}) })
			if err != nil {
				return err
			}
			m.add("lin", float64(d.Microseconds())/1000)
			d = timed(func() { _, _, err = core.RSA(idx.tree, r, k, core.Options{DisableDrill: true}) })
			if err != nil {
				return err
			}
			m.add("off", float64(d.Microseconds())/1000)
			m.count++
		}
		tb.row(fmt.Sprint(k), msf(m.avg("base")), msf(m.avg("lin")), msf(m.avg("off")),
			fmt.Sprintf("%.2f", m.avg("hit")))
	}
	tb.flush()
	return nil
}
