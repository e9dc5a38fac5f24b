// Package shard is the partitioned band maintainer: S skyband.Dynamic parts,
// each holding a round-robin share of one dataset, behind the same small
// interface engine.Engine drives a single skyband.Dynamic through. Sharding
// changes only where the k-skyband comes from; everything above the band —
// result cache, single-flight, executor, invalidation probes, two-stage
// commit, stats — is the engine's, once.
//
// Exactness: a record with fewer than k dominators in the whole dataset has
// fewer than k within its part, so the union of the per-part k-skybands
// contains the global one; and a union record with at least k dominators
// anywhere has at least k inside the union (its dominators within the global
// k-skyband are all union members). The classic k-skyband of the union
// therefore IS the global k-skyband, and Band returns exactly what a single
// skyband.Dynamic over all the records would — counts and order included.
//
// Record ids are global: initial record i lives on part i mod S, inserts
// continue the round-robin, and every part numbers its own records locally.
// A Band is not safe for concurrent use; the engine serializes access under
// its update lock and publishes each batch to queries as one index swap, so
// a batch spanning several parts is atomic to readers.
package shard

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/skyband"
)

// Errors returned when building a partitioned band.
var (
	// ErrBadShards reports a non-positive part count.
	ErrBadShards = errors.New("shard: shard count must be positive")
	// ErrTooFewRecords reports fewer initial records than parts.
	ErrTooFewRecords = errors.New("shard: every shard needs at least one initial record")
)

// place locates a record: which part holds it and under which local id.
type place struct {
	part  int
	local int
}

// Band maintains the global k-skyband of a horizontally partitioned dataset.
type Band struct {
	k     int
	parts []*skyband.Dynamic

	// owner locates every live global id. localToGlobal is, per part, the
	// global id assigned to each local id (indexed by local id); entries are
	// append-only and outlive deletions, mirroring the parts' id allocators.
	owner         map[int]place
	localToGlobal [][]int
	nextGlobal    int
	nextPart      int

	// ids/recs/counts memoize the reduced global band while no part reports
	// a band change (stale is raised by ApplyOps).
	ids    []int
	recs   [][]float64
	counts []int
	stale  bool
}

// New partitions the records (global ids 0..n-1, record i on part i mod
// parts) and builds one dynamic k-skyband per part. The record slices are
// referenced, never mutated.
func New(records [][]float64, parts, k int) (*Band, error) {
	if parts < 1 {
		return nil, ErrBadShards
	}
	if len(records) < parts {
		return nil, fmt.Errorf("%w: %d records across %d shards", ErrTooFewRecords, len(records), parts)
	}
	b := &Band{
		k:             k,
		parts:         make([]*skyband.Dynamic, parts),
		owner:         make(map[int]place, len(records)),
		localToGlobal: make([][]int, parts),
		nextGlobal:    len(records),
		nextPart:      len(records) % parts,
		stale:         true,
	}
	split := make([][][]float64, parts)
	for g, rec := range records {
		p := g % parts
		b.owner[g] = place{part: p, local: len(split[p])}
		b.localToGlobal[p] = append(b.localToGlobal[p], g)
		split[p] = append(split[p], rec)
	}
	for p, recs := range split {
		var err error
		if b.parts[p], err = skyband.NewDynamic(recs, k); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Parts returns the number of partitions.
func (b *Band) Parts() int { return len(b.parts) }

// Record returns the coordinates of a live record (shared slice; do not
// mutate), or nil when the id is not live.
func (b *Band) Record(id int) []float64 {
	p, ok := b.owner[id]
	if !ok {
		return nil
	}
	return b.parts[p.part].Record(p.local)
}

// ApplyOps applies a batch with global ids: inserts are placed round-robin
// and assigned sequential global ids, deletes go to the owning part —
// including the part an earlier insert of the same batch was placed on, so
// such a pair meets in one sub-batch and coalesces there exactly as it would
// in a single skyband.Dynamic (the insert still consumes its global and its
// local id). The whole batch is planned and validated before any part is
// touched; each part then applies its sub-batch in one ApplyOps call and the
// per-op effects are stitched back into batch order.
func (b *Band) ApplyOps(ops []skyband.Op) ([]int, []skyband.Effect, error) {
	type route struct{ part, pos int } // pos indexes the part's sub-batch
	nparts := len(b.parts)
	nextLocal := make([]int, nparts)
	for p, dyn := range b.parts {
		nextLocal[p] = dyn.NextID()
	}
	ids := make([]int, len(ops))
	routes := make([]route, len(ops))
	sub := make([][]skyband.Op, nparts)
	inserted := map[int]place{}
	deleted := map[int]bool{}
	nextGlobal, nextPart := b.nextGlobal, b.nextPart
	for i, op := range ops {
		var at place
		if op.Insert {
			at = place{part: nextPart, local: nextLocal[nextPart]}
			nextLocal[nextPart]++
			nextPart = (nextPart + 1) % nparts
			ids[i] = nextGlobal
			inserted[nextGlobal] = at
			nextGlobal++
			sub[at.part] = append(sub[at.part], skyband.Op{Insert: true, Record: op.Record})
		} else {
			if deleted[op.ID] {
				return nil, nil, skyband.ErrDuplicateDelete
			}
			var ok bool
			if at, ok = b.owner[op.ID]; !ok {
				if at, ok = inserted[op.ID]; !ok {
					return nil, nil, skyband.ErrUnknownID
				}
			}
			deleted[op.ID] = true
			ids[i] = op.ID
			sub[at.part] = append(sub[at.part], skyband.Op{ID: at.local})
		}
		routes[i] = route{part: at.part, pos: len(sub[at.part]) - 1}
	}

	partEffs := make([][]skyband.Effect, nparts)
	for p, s := range sub {
		if len(s) == 0 {
			continue
		}
		_, effs, err := b.parts[p].ApplyOps(s)
		if err != nil {
			// Unreachable after the plan above (every delete targets a live
			// local id or a predicted one); surfaced because earlier parts
			// have already applied.
			return nil, nil, fmt.Errorf("shard %d: sub-batch failed after partial application: %w", p, err)
		}
		partEffs[p] = effs
	}
	effs := make([]skyband.Effect, len(ops))
	for i, r := range routes {
		effs[i] = partEffs[r.part][r.pos]
		b.stale = b.stale || effs[i].BandChanged
	}

	for i, op := range ops {
		if op.Insert {
			at := inserted[ids[i]]
			b.localToGlobal[at.part] = append(b.localToGlobal[at.part], ids[i])
			b.owner[ids[i]] = at
		}
	}
	for g := range deleted {
		delete(b.owner, g)
	}
	b.nextGlobal, b.nextPart = nextGlobal, nextPart
	return ids, effs, nil
}

// Band returns the global k-skyband in skyband.Dynamic.Band's shape and order
// — global ids, records and exact dominator counts, count-major with ties by
// id — as the k-skyband of the union of the part bands (see the package
// comment), reduced by the sweep NewDynamic builds its band with. The counts
// are global ones: every dominator of a global-band record is in the union.
// The reduction reruns only after a part's band changed; the returned slices
// are shared between calls and must be treated as immutable.
func (b *Band) Band() ([]int, [][]float64, []int) {
	if !b.stale {
		return b.ids, b.recs, b.counts
	}
	var union []int
	for p, dyn := range b.parts {
		lids, _, _ := dyn.Band()
		for _, lid := range lids {
			union = append(union, b.localToGlobal[p][lid])
		}
	}
	// In ascending id order, CountBand's ties by index are ties by id.
	slices.Sort(union)
	recs := make([][]float64, len(union))
	for i, g := range union {
		recs[i] = b.Record(g)
	}
	idx, counts := skyband.CountBand(recs, b.k)
	b.ids, b.recs, b.counts = make([]int, len(idx)), make([][]float64, len(idx)), counts
	for i, j := range idx {
		b.ids[i], b.recs[i] = union[j], recs[j]
	}
	b.stale = false
	return b.ids, b.recs, b.counts
}

// Stats folds the per-part stats together (skyband.DynamicStats.Add):
// SupersetSize and ShadowSize are the resident per-part totals (the served
// global band is at most SupersetSize).
func (b *Band) Stats() skyband.DynamicStats {
	agg := b.parts[0].Stats()
	for _, dyn := range b.parts[1:] {
		agg.Add(dyn.Stats())
	}
	return agg
}
