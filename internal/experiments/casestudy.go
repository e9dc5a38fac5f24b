package experiments

import (
	"fmt"
	"sort"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/hull"
	"repro/internal/lp"
	"repro/internal/rtree"
	"repro/internal/skyband"
)

func init() {
	register("9", "NBA case studies (UTK1/UTK2 vs onion and k-skyband)", fig9)
	register("10a", "records reported: k-skyband vs onion vs UTK1 (NBA)", fig10a)
	register("10b", "k and output a plain top-k needs to cover UTK1 (NBA)", fig10b)
}

// fig9 reproduces the two case studies of Figure 9 on the curated 2016–2017
// player table: a 2-attribute study (rebounds, points) with k = 3 and
// R = [0.64, 0.74], and a 3-attribute study (rebounds, points, assists) with
// R = [0.2, 0.3] × [0.5, 0.6].
func fig9(cfg Config) error {
	w := cfg.out()
	players := dataset.NBA2017()

	// --- Figure 9(a): d = 2 ------------------------------------------------
	m2, err := dataset.PlayersMatrix(players, "reb", "pts")
	if err != nil {
		return err
	}
	data2 := dataset.Normalize10(m2)
	tree2, err := rtree.BulkLoad(data2, rtree.DefaultFanout)
	if err != nil {
		return err
	}
	r2, err := geom.NewBox([]float64{0.64}, []float64{0.74})
	if err != nil {
		return err
	}
	const k = 3
	utk1, _, err := core.RSA(tree2, r2, k, core.Options{})
	if err != nil {
		return err
	}
	ksb := skyband.KSkyband(tree2, k)
	onion := hull.Flatten(hull.OnionLayers(data2, k))
	header(w, "# Figure 9(a) — 2D case study (Rebounds, Points), k = %d, R = [0.64, 0.74] on w_reb", k)
	header(w, "UTK1 players (%d):", len(utk1))
	for _, id := range sortedCopy(utk1) {
		header(w, "  %-22s reb %.1f  pts %.1f", players[id].Name, players[id].Rebounds, players[id].Points)
	}
	header(w, "onion layers hold %d players, %d-skyband holds %d players", len(onion), k, len(ksb))

	cells2, _, err := core.JAA(tree2, r2, k, core.Options{})
	if err != nil {
		return err
	}
	header(w, "UTK2 partitioning of [0.64, 0.74]:")
	type interval struct {
		lo, hi float64
		names  string
	}
	var ivs []interval
	for _, c := range cells2 {
		lo, hi := intervalBounds(c.Constraints)
		names := make([]string, 0, k)
		for _, id := range c.TopK {
			names = append(names, players[id].Name)
		}
		ivs = append(ivs, interval{lo, hi, fmt.Sprint(names)})
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	// Merge adjacent intervals carrying the same top-k set (JAA may split a
	// homogeneous stretch across several partitions).
	merged := ivs[:0]
	for _, iv := range ivs {
		if len(merged) > 0 && merged[len(merged)-1].names == iv.names {
			merged[len(merged)-1].hi = iv.hi
			continue
		}
		merged = append(merged, iv)
	}
	for _, iv := range merged {
		header(w, "  w_reb in [%.3f, %.3f]: top-3 = %s", iv.lo, iv.hi, iv.names)
	}

	// --- Figure 9(b): d = 3 ------------------------------------------------
	m3, err := dataset.PlayersMatrix(players, "reb", "pts", "ast")
	if err != nil {
		return err
	}
	data3 := dataset.Normalize10(m3)
	tree3, err := rtree.BulkLoad(data3, rtree.DefaultFanout)
	if err != nil {
		return err
	}
	r3, err := geom.NewBox([]float64{0.2, 0.5}, []float64{0.3, 0.6})
	if err != nil {
		return err
	}
	cells3, st, err := core.JAA(tree3, r3, k, core.Options{})
	if err != nil {
		return err
	}
	ksb3 := skyband.KSkyband(tree3, k)
	onion3 := hull.Flatten(hull.OnionLayers(data3, k))
	header(w, "")
	header(w, "# Figure 9(b) — 3D case study (Rebounds, Points, Assists), k = %d, R = [0.2, 0.3] × [0.5, 0.6]", k)
	header(w, "UTK2 partitions (%d cells, %d distinct top-3 sets):", len(cells3), st.UniqueTopKSets)
	seen := map[string]bool{}
	for _, c := range cells3 {
		names := make([]string, 0, k)
		for _, id := range c.TopK {
			names = append(names, players[id].Name)
		}
		key := fmt.Sprint(names)
		if seen[key] {
			continue
		}
		seen[key] = true
		header(w, "  around (w_reb, w_pts) = (%.3f, %.3f): %v", c.Interior[0], c.Interior[1], names)
	}
	utkPlayers := map[int]bool{}
	for _, c := range cells3 {
		for _, id := range c.TopK {
			utkPlayers[id] = true
		}
	}
	header(w, "UTK result holds %d players; onion layers %d, k-skyband %d",
		len(utkPlayers), len(onion3), len(ksb3))
	return nil
}

// intervalBounds extracts [lo, hi] from the constraints of a 1-dimensional
// cell.
func intervalBounds(cs []geom.Halfspace) (float64, float64) {
	_, lo, _ := lp.OptimizeLinear(1, cs, []float64{1}, false, nil)
	_, hi, _ := lp.OptimizeLinear(1, cs, []float64{1}, true, nil)
	return lo, hi
}

// nbaN returns the NBA surrogate scale for Figure 10.
func (c Config) nbaN() int {
	if c.CustomN > 0 {
		return c.CustomN
	}
	if c.Paper {
		return dataset.NBASize
	}
	return 6000
}

// fig10KSweep bounds the Figure 10 k axis when running at a custom (small)
// scale, where k = 100 onion peeling would dominate a smoke run.
func (c Config) fig10KSweep() []int {
	if c.CustomN > 0 {
		return []int{1, 5, 10}
	}
	return []int{1, 10, 20, 50, 100}
}

// fig10a compares the number of records the traditional operators
// (k-skyband, onion) retain against the UTK1 output size, on the NBA
// surrogate, varying k (Figure 10(a)).
func fig10a(cfg Config) error {
	w := cfg.out()
	idx := real("NBA", cfg.nbaN(), cfg.seed())
	ks := cfg.fig10KSweep()
	dim := len(idx.data[0]) - 1
	boxes := dataset.RandomBoxes(dim, DefaultSigma, cfg.queries(), cfg.seed())
	header(w, "# Figure 10(a) — records reported vs k (NBA surrogate, n=%d, σ=%.1f%%, %d queries)",
		cfg.nbaN(), DefaultSigma*100, len(boxes))
	tb := newTable(w, "k", "k-skyband", "onion", "UTK1")
	for _, k := range ks {
		ksb := skyband.KSkyband(idx.tree, k)
		onion := baseline.FilterOnly(idx.tree, idx.data, k, baseline.ON)
		m := newMeasurement()
		for _, r := range boxes {
			ids, _, err := core.RSA(idx.tree, r, k, core.Options{})
			if err != nil {
				return err
			}
			m.add("utk", float64(len(ids)))
			m.count++
		}
		tb.row(fmt.Sprint(k), fmt.Sprint(len(ksb)), fmt.Sprint(len(onion.IDs)), count(m.avg("utk")))
	}
	tb.flush()
	return nil
}

// fig10b measures how far a plain incremental top-k query at the pivot of R
// must go (and how many records it must output) before covering the entire
// UTK1 result (Figure 10(b)).
func fig10b(cfg Config) error {
	w := cfg.out()
	idx := real("NBA", cfg.nbaN(), cfg.seed())
	ks := cfg.fig10KSweep()
	dim := len(idx.data[0]) - 1
	boxes := dataset.RandomBoxes(dim, DefaultSigma, cfg.queries(), cfg.seed())
	header(w, "# Figure 10(b) — k needed by a plain top-k at the pivot to cover UTK1 (NBA surrogate, n=%d, %d queries)",
		cfg.nbaN(), len(boxes))
	tb := newTable(w, "k", "TK(required k')", "UTK1 size", "k(reference)")
	for _, k := range ks {
		m := newMeasurement()
		for _, r := range boxes {
			ids, _, err := core.RSA(idx.tree, r, k, core.Options{})
			if err != nil {
				return err
			}
			required := requiredTopK(idx.data, r.Pivot(), ids)
			m.add("tk", float64(required))
			m.add("utk", float64(len(ids)))
			m.count++
		}
		tb.row(fmt.Sprint(k), count(m.avg("tk")), count(m.avg("utk")), fmt.Sprint(k))
	}
	tb.flush()
	return nil
}

// requiredTopK returns the smallest k' such that the top-k' at w contains
// every id in want.
func requiredTopK(data [][]float64, w []float64, want []int) int {
	if len(want) == 0 {
		return 0
	}
	type scored struct {
		id    int
		score float64
	}
	all := make([]scored, len(data))
	for i, p := range data {
		all[i] = scored{i, geom.Score(p, w)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score > all[b].score
		}
		return all[a].id < all[b].id
	})
	pos := make(map[int]int, len(all))
	for rank, s := range all {
		pos[s.id] = rank + 1
	}
	max := 0
	for _, id := range want {
		if pos[id] > max {
			max = pos[id]
		}
	}
	return max
}
