// Package utk is an exact processor for uncertain top-k queries (UTK) in
// multi-criteria settings, reproducing Mouratidis & Tang, "Exact Processing
// of Uncertain Top-k Queries in Multi-criteria Settings", PVLDB 11(8),
// VLDB 2018.
//
// A traditional top-k query scores d-dimensional records by the weighted sum
// of their attributes for a user-supplied weight vector and returns the k
// best. In practice the weights are only approximately known. The UTK query
// replaces the weight vector with a convex region R of the preference
// domain and asks:
//
//   - UTK1: which records belong to the top-k set for at least one weight
//     vector in R? (The answer is minimal — every reported record has a
//     witness vector.)
//   - UTK2: for every possible weight vector in R, what exactly is the
//     top-k set? (The answer is a partitioning of R into convex cells, each
//     holding one top-k set.)
//
// The package answers both with the paper's RSA and JAA algorithms:
// r-dominance filtering over an R-tree, followed by recursive half-space
// arrangement refinement with Lemma-1 pruning and LP drills.
//
// Basic usage:
//
//	ds, _ := utk.NewDataset(records)            // records: [][]float64, maximize each attribute
//	region, _ := utk.NewBoxRegion(lo, hi)        // box in the (d−1)-dim preference domain
//	res, _ := ds.UTK1(utk.Query{K: 10, Region: region})
//	for _, id := range res.Records { ... }
//
// The preference domain is (d−1)-dimensional: a weight vector
// (w_1, ..., w_{d−1}) stands for (w_1, ..., w_{d−1}, 1 − Σ w_i), because
// ranking depends only on the direction of the full weight vector.
package utk

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/hull"
	"repro/internal/klevel"
	"repro/internal/oracle"
	"repro/internal/rtree"
	"repro/internal/skyband"
)

// Halfspace is a closed half-space {w : Coef·w ≥ Offset} of the reduced
// (d−1)-dimensional preference domain.
type Halfspace struct {
	Coef   []float64
	Offset float64
}

// Region is a convex, full-dimensional subset of the preference domain — the
// uncertain-preference input of a UTK query.
type Region struct {
	r *geom.Region
}

// NewBoxRegion builds the axis-parallel box [lo, hi] in the reduced
// preference domain. The box must be full-dimensional, have non-negative
// coordinates, and leave room for the implicit last weight (Σ lo < 1).
func NewBoxRegion(lo, hi []float64) (*Region, error) {
	r, err := geom.NewBox(lo, hi)
	if err != nil {
		return nil, err
	}
	return &Region{r: r}, nil
}

// NewPolytopeRegion builds a general convex region as the intersection of
// the given half-spaces with the preference-domain simplex. The region must
// be full-dimensional.
func NewPolytopeRegion(dim int, halfspaces []Halfspace) (*Region, error) {
	hs := make([]geom.Halfspace, len(halfspaces))
	for i, h := range halfspaces {
		hs[i] = geom.Halfspace{A: append([]float64(nil), h.Coef...), B: h.Offset}
	}
	r, err := geom.NewPolytope(dim, hs)
	if err != nil {
		return nil, err
	}
	return &Region{r: r}, nil
}

// Dim returns the dimensionality of the preference domain the region lives
// in (one less than the data dimensionality it is compatible with).
func (r *Region) Dim() int { return r.r.Dim() }

// Pivot returns the region's pivot: the average of its vertices, guaranteed
// to lie inside the region. It is the natural "representative" weight vector
// of the uncertain preferences.
func (r *Region) Pivot() []float64 { return r.r.Pivot() }

// Contains reports whether the reduced weight vector w lies in the region.
func (r *Region) Contains(w []float64) bool { return r.r.Contains(w) }

// Dataset is an immutable indexed collection of records ready for UTK
// queries. Higher attribute values are preferable in every dimension.
type Dataset struct {
	records [][]float64
	tree    *rtree.Tree
}

// NewDataset copies and indexes the given records (at least one, all of the
// same dimensionality d ≥ 2).
func NewDataset(records [][]float64) (*Dataset, error) {
	cp, err := copyRecords(records)
	if err != nil {
		return nil, err
	}
	tree, err := rtree.BulkLoad(cp, rtree.DefaultFanout)
	if err != nil {
		return nil, err
	}
	return &Dataset{records: cp, tree: tree}, nil
}

// copyRecords validates a record collection — at least one record, a shared
// dimensionality d ≥ 2, finite attributes — and returns a deep copy: capped
// sub-slices of one slab, one allocation instead of n. An engine built over
// the copy keeps the whole slab alive until the engine is dropped, however
// many of the initial records it has deleted.
func copyRecords(records [][]float64) ([][]float64, error) {
	if len(records) == 0 {
		return nil, errors.New("utk: empty dataset")
	}
	d := len(records[0])
	if d < 2 {
		return nil, errors.New("utk: records must have at least 2 attributes")
	}
	cp, slab := make([][]float64, len(records)), make([]float64, 0, len(records)*d)
	for i, rec := range records {
		if err := engine.CheckRecord(rec, d); err != nil {
			return nil, fmt.Errorf("utk: record %d %w", i, err)
		}
		slab = append(slab, rec...)
		cp[i] = slab[i*d : (i+1)*d : (i+1)*d]
	}
	return cp, nil
}

// Len returns the number of records.
func (ds *Dataset) Len() int { return len(ds.records) }

// Dim returns the data dimensionality d.
func (ds *Dataset) Dim() int { return ds.tree.Dim() }

// Record returns a copy of record id.
func (ds *Dataset) Record(id int) []float64 {
	return append([]float64(nil), ds.records[id]...)
}

// Score returns the record's weighted sum under a weight vector given in
// either reduced (d−1) or full (d) form.
func (ds *Dataset) Score(id int, w []float64) (float64, error) {
	switch len(w) {
	case ds.Dim() - 1:
		return geom.Score(ds.records[id], w), nil
	case ds.Dim():
		return geom.ScoreFull(ds.records[id], w), nil
	}
	return 0, fmt.Errorf("utk: weight vector length %d, want %d or %d", len(w), ds.Dim()-1, ds.Dim())
}

// TopK answers a traditional top-k query at the given weight vector
// (reduced or full form), breaking score ties by ascending record id. Ids
// are returned sorted ascending.
func (ds *Dataset) TopK(w []float64, k int) ([]int, error) {
	if k <= 0 {
		return nil, core.ErrBadK
	}
	var red []float64
	switch len(w) {
	case ds.Dim() - 1:
		red = w
	case ds.Dim():
		red = geom.ReduceWeights(w)
	default:
		return nil, fmt.Errorf("utk: weight vector length %d, want %d or %d", len(w), ds.Dim()-1, ds.Dim())
	}
	return oracle.TopKAt(ds.records, red, k), nil
}

// KSkyband returns the ids of records dominated by fewer than k others — the
// classic superset of all possible top-k results over the whole preference
// domain.
func (ds *Dataset) KSkyband(k int) ([]int, error) {
	if k <= 0 {
		return nil, core.ErrBadK
	}
	return skyband.KSkyband(ds.tree, k), nil
}

// RSkyband returns the ids of records r-dominated by fewer than k others
// with respect to the region — the paper's tighter, region-aware filter
// (Definition 2).
func (ds *Dataset) RSkyband(region *Region, k int) ([]int, error) {
	if k <= 0 {
		return nil, core.ErrBadK
	}
	if region.Dim() != ds.Dim()-1 {
		return nil, core.ErrDimMismatch
	}
	return skyband.RSkyband(ds.tree, region.r, k), nil
}

// OnionLayers returns the first k onion layers (ids per layer), restricted
// to convex-hull facets with first-quadrant normals.
func (ds *Dataset) OnionLayers(k int) ([][]int, error) {
	if k <= 0 {
		return nil, core.ErrBadK
	}
	return hull.OnionLayers(ds.records, k), nil
}

// Algorithm selects the processing strategy of a UTK query.
type Algorithm int

const (
	// AlgoAuto uses the paper's algorithms (RSA for UTK1, JAA for UTK2).
	AlgoAuto Algorithm = iota
	// AlgoRSA forces RSA / JAA (same as AlgoAuto; named for clarity).
	AlgoRSA
	// AlgoBaselineSK uses the k-skyband + kSPR baseline.
	AlgoBaselineSK
	// AlgoBaselineON uses the onion + kSPR baseline.
	AlgoBaselineON
	// AlgoSweep2D uses the exact dual-line sweep, available only for
	// 2-attribute datasets with a box region (the paper's degenerate d = 2
	// case). Its cost is driven by the k-skyband size rather than the
	// region, so it pays off for wide weight intervals; for narrow regions
	// the default region-aware algorithms are usually faster (see
	// BenchmarkSweep2D). Its independence from the RSA/JAA machinery also
	// makes it a cross-validation oracle.
	AlgoSweep2D
)

// Query describes a UTK query.
type Query struct {
	// K is the top-k depth (required, positive).
	K int
	// Region is the uncertain preference region (required).
	Region *Region
	// Algorithm optionally selects a baseline instead of RSA/JAA.
	Algorithm Algorithm
	// DisableDrill turns off the drill optimization (ablation).
	DisableDrill bool
	// LinearDrill replaces the graph-guided drill search with a linear scan
	// (ablation).
	LinearDrill bool
}

func (q Query) validate(ds *Dataset) error {
	return q.validateDim(ds.Dim())
}

// validateDim checks the query against a data dimensionality directly, for
// callers (restored engines) that have no Dataset behind them.
func (q Query) validateDim(dim int) error {
	if q.K <= 0 {
		return core.ErrBadK
	}
	if q.Region == nil {
		return errors.New("utk: query requires a region")
	}
	if q.Region.Dim() != dim-1 {
		return fmt.Errorf("%w: region dim %d, data dim %d", core.ErrDimMismatch, q.Region.Dim(), dim)
	}
	return nil
}

func (q Query) coreOptions() core.Options {
	return core.Options{
		DisableDrill: q.DisableDrill,
		LinearDrill:  q.LinearDrill,
	}
}

// Stats summarizes the work a query performed.
type Stats struct {
	// Candidates is the number of records surviving the filtering step.
	Candidates int
	// FilterDuration and RefineDuration split the response time.
	FilterDuration time.Duration
	RefineDuration time.Duration
	// Partitions and UniqueTopKSets describe UTK2 output (zero for UTK1).
	Partitions     int
	UniqueTopKSets int
	// PeakBytes estimates the peak memory of query-specific structures.
	PeakBytes int
	// Drills and DrillHits count drill attempts and successes.
	Drills    int
	DrillHits int
	// LPCalls counts simplex solves in arrangement maintenance.
	LPCalls int
}

func statsFromCore(st *core.Stats) Stats {
	if st == nil {
		return Stats{}
	}
	return Stats{
		Candidates:     st.Candidates,
		FilterDuration: st.FilterDuration,
		RefineDuration: st.RefineDuration,
		Partitions:     st.Partitions,
		UniqueTopKSets: st.UniqueTopKSets,
		PeakBytes:      st.PeakBytes,
		Drills:         st.Drills,
		DrillHits:      st.DrillHits,
		LPCalls:        st.Arrangement.LPCalls,
	}
}

func statsFromBaseline(st *baseline.Stats) Stats {
	if st == nil {
		return Stats{}
	}
	return Stats{
		Candidates:     st.Candidates,
		FilterDuration: st.FilterDuration,
		RefineDuration: st.RefineDuration,
		LPCalls:        st.Arrangement.LPCalls,
	}
}

// UTK1Result is the answer of a UTK1 query.
type UTK1Result struct {
	// Records holds the dataset ids that appear in at least one top-k set,
	// sorted ascending. The set is minimal.
	Records []int
	// Stats describes the work performed.
	Stats Stats
	// CacheHit reports whether an Engine served the answer from its result
	// cache (always false for direct Dataset queries).
	CacheHit bool
	// Derived reports whether an Engine derived the answer from a cached
	// containing-region UTK2 result by cell clipping (always false for
	// direct Dataset queries).
	Derived bool
}

// Cell is one partition of a UTK2 answer.
type Cell struct {
	// TopK is the exact top-k set (sorted dataset ids) holding anywhere in
	// the cell.
	TopK []int
	// Interior is a weight vector strictly inside the cell.
	Interior []float64
	// Halfspaces bound the cell (includes the query region's bounds).
	Halfspaces []Halfspace
}

// Vertices computes the corner points of the (convex) cell by exact
// enumeration over its bounding half-spaces. The cost is exponential in the
// preference-domain dimensionality; it is intended for the low-dimensional
// settings UTK targets (e.g., rendering 2-dimensional partitionings like
// the paper's Figure 1(b)).
func (c *Cell) Vertices() [][]float64 {
	if len(c.Halfspaces) == 0 {
		return nil
	}
	dim := len(c.Halfspaces[0].Coef)
	hs := make([]geom.Halfspace, len(c.Halfspaces))
	for i, h := range c.Halfspaces {
		hs[i] = geom.Halfspace{A: h.Coef, B: h.Offset}
	}
	return geom.EnumerateVertices(dim, hs)
}

// Contains reports whether the reduced weight vector w lies in the cell.
func (c *Cell) Contains(w []float64) bool {
	for _, h := range c.Halfspaces {
		s := -h.Offset
		for j, coef := range h.Coef {
			s += coef * w[j]
		}
		if s < -geom.Eps {
			return false
		}
	}
	return true
}

// UTK2Result is the answer of a UTK2 query.
type UTK2Result struct {
	// Cells partition the query region; together their TopK sets are
	// exactly the UTK1 answer.
	Cells []Cell
	// Stats describes the work performed.
	Stats Stats
	// CacheHit reports whether an Engine served the answer from its result
	// cache (always false for direct Dataset queries).
	CacheHit bool
	// Derived reports whether an Engine derived the answer from a cached
	// containing-region UTK2 result by cell clipping (always false for
	// direct Dataset queries).
	Derived bool
}

// UTK1 reports all records that can appear in a top-k set when the weight
// vector lies anywhere in the query region.
func (ds *Dataset) UTK1(q Query) (*UTK1Result, error) {
	if err := q.validate(ds); err != nil {
		return nil, err
	}
	switch q.Algorithm {
	case AlgoBaselineSK, AlgoBaselineON:
		f := baseline.SK
		if q.Algorithm == AlgoBaselineON {
			f = baseline.ON
		}
		ids, st, err := baseline.UTK1(ds.tree, ds.records, q.Region.r, q.K, f)
		if err != nil {
			return nil, err
		}
		return &UTK1Result{Records: ids, Stats: statsFromBaseline(st)}, nil
	case AlgoSweep2D:
		lo, hi, err := ds.sweepInterval(q.Region)
		if err != nil {
			return nil, err
		}
		ids, err := klevel.UTK1(ds.records, lo, hi, q.K)
		if err != nil {
			return nil, err
		}
		return &UTK1Result{Records: ids}, nil
	default:
		ids, st, err := core.RSA(ds.tree, q.Region.r, q.K, q.coreOptions())
		if err != nil {
			return nil, err
		}
		sort.Ints(ids)
		return &UTK1Result{Records: ids, Stats: statsFromCore(st)}, nil
	}
}

// UTK2 reports the exact top-k set for every possible weight vector in the
// query region, as a partitioning of the region. Baseline algorithms are not
// supported for UTK2 through this API (their output has a different shape);
// they are exercised by the benchmark harness directly.
func (ds *Dataset) UTK2(q Query) (*UTK2Result, error) {
	if err := q.validate(ds); err != nil {
		return nil, err
	}
	if q.Algorithm == AlgoBaselineSK || q.Algorithm == AlgoBaselineON {
		return nil, errors.New("utk: UTK2 baselines are available via the benchmark harness only")
	}
	if q.Algorithm == AlgoSweep2D {
		return ds.utk2Sweep(q)
	}
	cells, st, err := core.JAA(ds.tree, q.Region.r, q.K, q.coreOptions())
	if err != nil {
		return nil, err
	}
	return utk2ResultFromCells(cells, statsFromCore(st)), nil
}

// utk2ResultFromCells deep-copies core cells into the public representation.
// The copies share three backing arrays (half-spaces, floats, ints), each
// piece capped at its length so a caller's append never writes into the
// next cell; an empty TopK, Interior or Coef stays nil, as a per-slice copy
// would leave it.
func utk2ResultFromCells(cells []core.CellResult, st Stats) *UTK2Result {
	nh, nf, ni := 0, 0, 0
	for _, c := range cells {
		nh += len(c.Constraints)
		nf += len(c.Interior)
		for _, h := range c.Constraints {
			nf += len(h.A)
		}
		ni += len(c.TopK)
	}
	hs, fs, is := make([]Halfspace, nh), make([]float64, nf), make([]int, ni)
	out := &UTK2Result{Cells: make([]Cell, len(cells)), Stats: st}
	for i, c := range cells {
		cell := Cell{Halfspaces: hs[:len(c.Constraints):len(c.Constraints)]}
		hs = hs[len(c.Constraints):]
		for j, h := range c.Constraints {
			cell.Halfspaces[j] = Halfspace{Coef: copyInto(&fs, h.A), Offset: h.B}
		}
		cell.Interior = copyInto(&fs, c.Interior)
		cell.TopK = copyInto(&is, c.TopK)
		out.Cells[i] = cell
	}
	return out
}

// copyInto copies src into the front of *dst, capped at len(src), and
// advances *dst past it; an empty src yields nil.
func copyInto[T any](dst *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	n := len(src)
	out := (*dst)[:n:n]
	copy(out, src)
	*dst = (*dst)[n:]
	return out
}

// sweepInterval validates that the dataset and region fit the 2-dimensional
// sweep and returns the weight interval.
func (ds *Dataset) sweepInterval(region *Region) (lo, hi float64, err error) {
	if ds.Dim() != 2 {
		return 0, 0, fmt.Errorf("utk: %w (data has %d attributes)", klevel.ErrDimension, ds.Dim())
	}
	blo, bhi := region.r.Bounds()
	if blo == nil {
		return 0, 0, errors.New("utk: the 2D sweep requires a box region")
	}
	return blo[0], bhi[0], nil
}

// utk2Sweep answers UTK2 via the dual-line sweep, converting intervals to
// the common cell representation.
func (ds *Dataset) utk2Sweep(q Query) (*UTK2Result, error) {
	lo, hi, err := ds.sweepInterval(q.Region)
	if err != nil {
		return nil, err
	}
	ivs, err := klevel.UTK2(ds.records, lo, hi, q.K)
	if err != nil {
		return nil, err
	}
	out := &UTK2Result{Cells: make([]Cell, len(ivs))}
	seen := map[string]bool{}
	for i, iv := range ivs {
		out.Cells[i] = Cell{
			TopK:     append([]int(nil), iv.TopK...),
			Interior: []float64{(iv.Lo + iv.Hi) / 2},
			Halfspaces: []Halfspace{
				{Coef: []float64{1}, Offset: iv.Lo},
				{Coef: []float64{-1}, Offset: -iv.Hi},
			},
		}
		key := fmt.Sprint(iv.TopK)
		seen[key] = true
	}
	out.Stats.Partitions = len(ivs)
	out.Stats.UniqueTopKSets = len(seen)
	return out, nil
}

// CellAt returns the UTK2 cell containing the reduced weight vector w, or
// nil if w lies outside every cell (outside the query region).
func (res *UTK2Result) CellAt(w []float64) *Cell {
	for i := range res.Cells {
		inside := true
		for _, h := range res.Cells[i].Halfspaces {
			s := -h.Offset
			for j, c := range h.Coef {
				s += c * w[j]
			}
			if s < -geom.Eps {
				inside = false
				break
			}
		}
		if inside {
			return &res.Cells[i]
		}
	}
	return nil
}
