package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
)

func init() {
	register("15a", "JAA response time vs k (HOTEL/HOUSE/NBA surrogates)", fig15a)
	register("15b", "number of top-k sets vs k (real surrogates)", fig15b)
	register("16a", "JAA response time vs σ (real surrogates)", fig16a)
	register("16b", "number of top-k sets vs σ (real surrogates)", fig16b)
	register("table1", "experiment parameter grid (Table 1)", table1)
}

// realSpec describes one surrogate real dataset at the configured scale.
// maxK and maxSigma bound the quick-scale sweeps: arrangement complexity is
// exponential in the preference-domain dimensionality, and the paper's own
// numbers at the capped points run to 10²–10³ seconds (per query, in C++),
// so the quick suite marks them "—" instead of running for hours. Paper
// mode removes the caps.
type realSpec struct {
	name     string
	n        int
	d        int
	maxK     int
	maxSigma float64
}

func (c Config) realSpecs() []realSpec {
	if c.CustomN > 0 {
		return []realSpec{
			{"NBA", c.CustomN, 8, 5, 0.01},
			{"HOUSE", c.CustomN, 6, 10, 0.01},
			{"HOTEL", c.CustomN, 4, 20, 0.05},
		}
	}
	if c.Paper {
		uncapped := 1 << 20
		return []realSpec{
			{"NBA", dataset.NBASize, 8, uncapped, 1},
			{"HOUSE", dataset.HouseSize, 6, uncapped, 1},
			{"HOTEL", dataset.HotelSize, 4, uncapped, 1},
		}
	}
	return []realSpec{
		{"NBA", 6000, 8, 10, 0.01},
		{"HOUSE", 50000, 6, 20, 0.05},
		{"HOTEL", 80000, 4, 100, 0.10},
	}
}

// runJAA measures JAA on one dataset over the query boxes.
func runJAA(idx *indexed, boxes []*geom.Region, k int) (avgMS, avgSets float64, err error) {
	m := newMeasurement()
	for _, r := range boxes {
		var st *core.Stats
		d := timed(func() { _, st, err = core.JAA(idx.tree, r, k, core.Options{}) })
		if err != nil {
			return 0, 0, err
		}
		m.add("ms", float64(d.Microseconds())/1000)
		m.add("sets", float64(st.UniqueTopKSets))
		m.count++
	}
	return m.avg("ms"), m.avg("sets"), nil
}

func fig15(cfg Config, metric string) error {
	w := cfg.out()
	specs := cfg.realSpecs()
	title := "15(a) — JAA response time vs k"
	unit := "(ms)"
	if metric == "sets" {
		title = "15(b) — number of top-k sets vs k"
		unit = "(sets)"
	}
	header(w, "# Figure %s (σ=%.1f%%, %d queries)", title, DefaultSigma*100, cfg.queries())
	tbHeader := []string{"k"}
	for _, s := range specs {
		tbHeader = append(tbHeader, s.name+unit)
	}
	tb := newTable(w, tbHeader...)
	for _, k := range kSweep {
		row := []string{fmt.Sprint(k)}
		for _, s := range specs {
			if k > s.maxK {
				row = append(row, "—")
				continue
			}
			idx := real(s.name, s.n, cfg.seed())
			boxes := dataset.RandomBoxes(s.d-1, DefaultSigma, cfg.queries(), cfg.seed())
			msAvg, sets, err := runJAA(idx, boxes, k)
			if err != nil {
				return err
			}
			if metric == "sets" {
				row = append(row, count(sets))
			} else {
				row = append(row, msf(msAvg))
			}
		}
		tb.row(row...)
	}
	tb.flush()
	return nil
}

func fig15a(cfg Config) error { return fig15(cfg, "ms") }
func fig15b(cfg Config) error { return fig15(cfg, "sets") }

func fig16(cfg Config, metric string) error {
	w := cfg.out()
	specs := cfg.realSpecs()
	title := "16(a) — JAA response time vs σ"
	unit := "(ms)"
	if metric == "sets" {
		title = "16(b) — number of top-k sets vs σ"
		unit = "(sets)"
	}
	header(w, "# Figure %s (k=%d, %d queries)", title, DefaultK, cfg.queries())
	tbHeader := []string{"σ(%)"}
	for _, s := range specs {
		tbHeader = append(tbHeader, s.name+unit)
	}
	tb := newTable(w, tbHeader...)
	for _, sg := range sigmaSweep {
		row := []string{fmt.Sprintf("%.1f", sg*100)}
		for _, s := range specs {
			if sg > s.maxSigma {
				row = append(row, "—")
				continue
			}
			idx := real(s.name, s.n, cfg.seed())
			boxes := dataset.RandomBoxes(s.d-1, sg, cfg.queries(), cfg.seed())
			msAvg, sets, err := runJAA(idx, boxes, DefaultK)
			if err != nil {
				return err
			}
			if metric == "sets" {
				row = append(row, count(sets))
			} else {
				row = append(row, msf(msAvg))
			}
		}
		tb.row(row...)
	}
	tb.flush()
	return nil
}

func fig16a(cfg Config) error { return fig16(cfg, "ms") }
func fig16b(cfg Config) error { return fig16(cfg, "sets") }

// table1 prints the experiment parameter grid with defaults, at both scales.
func table1(cfg Config) error {
	w := cfg.out()
	header(w, "# Table 1 — experiment parameters (defaults in [brackets]; quick-scale values in parentheses)")
	tb := newTable(w, "Parameter", "Tested values")
	tb.row("Dataset cardinality n", "100K, 200K, [400K], 800K, 1600K  (quick: 25K…400K, default 100K)")
	tb.row("Data dimensionality d", "2, 3, [4], 5, 6, 7")
	tb.row("Value k", "1, 5, [10], 20, 50, 100")
	tb.row("R's side-length σ", "0.1%, 0.5%, [1%], 5%, 10%")
	tb.row("Queries per point", fmt.Sprintf("paper: 50, quick: 5 (this run: %d)", cfg.queries()))
	tb.flush()
	return nil
}
