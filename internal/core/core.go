// Package core implements the paper's two algorithms: RSA (r-Skyband
// Algorithm, Section 4) for the UTK1 problem and JAA (Joint Arrangement
// Algorithm, Section 5) for the UTK2 problem, over the substrates in the
// sibling packages (r-dominance graph, disposable half-space arrangements,
// LP-based drills).
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/arrangement"
	"repro/internal/bitset"
	"repro/internal/geom"
	"repro/internal/lp"
	"repro/internal/rtree"
	"repro/internal/scratch"
	"repro/internal/skyband"
)

// Options tunes the algorithms; the zero value is the paper's configuration.
type Options struct {
	// DisableDrill turns off the drill optimization of Section 4.3
	// (used by the ablation benchmarks).
	DisableDrill bool
	// LinearDrill replaces the graph-guided branch-and-bound top-k search of
	// the drill with a linear scan over candidates (ablation).
	LinearDrill bool
	// Cancel, when non-nil, is polled at every Verify/Partition recursion
	// step. Once it returns true the refinement abandons its remaining work
	// and the algorithm returns ErrCanceled, so an expired query frees its
	// slot promptly instead of running to completion. It must be cheap.
	Cancel func() bool
}

// Stats reports the work an algorithm run performed.
type Stats struct {
	// Candidates is the r-skyband size (output of the filtering step).
	Candidates int
	// FilterDuration and RefineDuration split the response time between the
	// filtering and refinement steps.
	FilterDuration time.Duration
	RefineDuration time.Duration
	// Drills and DrillHits count drill attempts and successes.
	Drills    int
	DrillHits int
	// VerifyCalls counts Verify invocations (RSA) and PartitionCalls counts
	// Partition invocations (JAA).
	VerifyCalls    int
	PartitionCalls int
	// Arrangement aggregates counters over every disposable arrangement.
	Arrangement arrangement.Stats
	// GraphBytes is the r-dominance graph footprint; PeakBytes adds the peak
	// arrangement footprint (the paper's space metric, Figure 13(b)).
	GraphBytes int
	PeakBytes  int
	// Partitions is the number of cells in the UTK2 output; UniqueTopKSets
	// counts the distinct top-k sets across them.
	Partitions     int
	UniqueTopKSets int
}

// Errors returned on invalid queries.
var (
	ErrBadK         = errors.New("core: k must be positive")
	ErrDimMismatch  = errors.New("core: region dimensionality must be one less than data dimensionality")
	ErrEmptyDataset = errors.New("core: empty dataset")
)

// ErrCanceled is returned when Options.Cancel interrupted a refinement
// before it produced a complete answer.
var ErrCanceled = errors.New("core: refinement canceled")

// refiner holds the state shared by the RSA and JAA refinement steps for a
// single query: the r-dominance graph, the query region, and the half-space
// cache for candidate/competitor pairs.
type refiner struct {
	g    *skyband.Graph
	r    *geom.Region
	k    int
	dim  int
	opts Options
	st   *Stats
	// hs caches the dual half-space "competitor q outscores candidate p",
	// keyed by q*n+p.
	hs map[int]geom.Halfspace
	// stopped latches the first true verdict of opts.Cancel, so one poll per
	// recursion step suffices and the unwind never resumes work.
	stopped bool
	// sc is the task's scratch arena: every transient bitset of the
	// partition/verify recursion and the drill probes comes from it, and it
	// rewinds wholesale when the task releases the refiner. ws is the pooled
	// LP workspace the arrangement and drill LPs reuse their dictionaries from.
	// Nothing that survives release (emitted cells, verdicts) may alias
	// either — see package scratch for the ownership rules.
	sc *scratch.Arena
	ws *lp.Workspace
	// anchors is the reusable scoring buffer of selectAnchor (never live
	// across a recursion step).
	anchors []anchorScored
}

type anchorScored struct {
	node  int
	score float64
	id    int
}

// stop polls the cancellation hook (if any), latching a positive verdict.
func (rf *refiner) stop() bool {
	if rf.stopped {
		return true
	}
	if rf.opts.Cancel != nil && rf.opts.Cancel() {
		rf.stopped = true
	}
	return rf.stopped
}

func newRefiner(g *skyband.Graph, r *geom.Region, k int, opts Options, st *Stats) *refiner {
	return &refiner{
		g:    g,
		r:    r,
		k:    k,
		dim:  r.Dim(),
		opts: opts,
		st:   st,
		hs:   make(map[int]geom.Halfspace),
		sc:   scratch.Get(),
		ws:   lp.GetWorkspace(),
	}
}

// release returns the refiner's pooled scratch memory. Every slice and
// bitset obtained from the arena is dead after this call; callers must have
// deep-copied anything that escapes the task.
func (rf *refiner) release() {
	scratch.Put(rf.sc)
	lp.PutWorkspace(rf.ws)
	rf.sc = nil
	rf.ws = nil
}

// newSet returns an empty arena-backed bitset over the graph's nodes.
func (rf *refiner) newSet() bitset.Set {
	n := rf.g.Len()
	return bitset.FromWords(rf.sc.Words(bitset.Words(n)), n)
}

// cloneSet returns an arena-backed copy of s.
func (rf *refiner) cloneSet(s bitset.Set) bitset.Set {
	return s.CloneInto(rf.sc.Words(bitset.Words(s.Len())))
}

// fullSet returns an arena-backed bitset with every graph node marked.
func (rf *refiner) fullSet() bitset.Set {
	s := rf.newSet()
	for i := 0; i < rf.g.Len(); i++ {
		s.Set(i)
	}
	return s
}

// halfspace returns the half-space of the preference domain where competitor
// q outscores candidate p. Ties (records with identical scores everywhere)
// break deterministically by dataset id, so ranking is a total order.
func (rf *refiner) halfspace(q, p int) geom.Halfspace {
	key := q*rf.g.Len() + p
	if h, ok := rf.hs[key]; ok {
		return h
	}
	h := geom.DualHalfspace(rf.g.Records[q], rf.g.Records[p])
	if h.IsTrivial() && h.B >= -geom.Eps && h.B <= geom.Eps {
		// Identical scores over the whole domain: the lower dataset id wins.
		if rf.g.IDs[q] < rf.g.IDs[p] {
			h = geom.Halfspace{A: make([]float64, rf.dim), B: -1} // always true
		} else {
			h = geom.Halfspace{A: make([]float64, rf.dim), B: 1} // always false
		}
	}
	rf.hs[key] = h
	return h
}

// above reports whether candidate q ranks above candidate p at weight vector
// w, with the same deterministic tie-breaking as halfspace.
func (rf *refiner) above(q, p int, w []float64) bool {
	sq := geom.Score(rf.g.Records[q], w)
	sp := geom.Score(rf.g.Records[p], w)
	if sq > sp+geom.Eps {
		return true
	}
	if sq < sp-geom.Eps {
		return false
	}
	return rf.g.IDs[q] < rf.g.IDs[p]
}

// sources returns the competitors in comp whose r-dominance count restricted
// to comp is zero — the "strongest" competitors whose half-spaces seed every
// local arrangement (Sections 4.2 and 5). The slice is arena-backed (it
// lives across the recursion of the calling frame, which the arena's
// task-end release covers).
func (rf *refiner) sources(comp bitset.Set) []int {
	out := rf.sc.Ints(comp.Count())
	comp.ForEach(func(q int) bool {
		if rf.g.Anc[q].IntersectionCount(comp) == 0 {
			out = append(out, q)
		}
		return true
	})
	return out
}

// cannotAffect implements Lemma 1: given the inserted source competitors and
// a cell, it returns the set of competitors that are r-dominated by some
// inserted competitor whose half-space does not cover the cell — those can
// never outscore the candidate inside the cell.
func (rf *refiner) cannotAffect(srcs []int, cell *arrangement.Cell, comp bitset.Set) bitset.Set {
	out := rf.newSet()
	for _, q := range srcs {
		if !cell.Covering().Has(q) {
			out.Or(rf.g.Desc[q])
		}
	}
	out.And(comp)
	return out
}

// checkQuery validates the common UTK inputs.
func checkQuery(t *rtree.Tree, r *geom.Region, k int) error {
	if t == nil || t.Len() == 0 {
		return ErrEmptyDataset
	}
	if k <= 0 {
		return ErrBadK
	}
	if r.Dim() != t.Dim()-1 {
		return fmt.Errorf("%w: region dim %d, data dim %d", ErrDimMismatch, r.Dim(), t.Dim())
	}
	return nil
}

// fullSet returns a bit set with the first n indices marked.
func fullSet(n int) bitset.Set {
	s := bitset.New(n)
	for i := 0; i < n; i++ {
		s.Set(i)
	}
	return s
}
