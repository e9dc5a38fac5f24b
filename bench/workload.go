package main

import (
	"hash/fnv"
	"math/rand"
	"strconv"

	"repro/internal/dataset"
)

// Every workload is d = 4 (a 3-dimensional preference domain), MaxK = 10 and
// two executor workers; see README.md for why each one exists.
const (
	dataDim     = 4
	prefDim     = dataDim - 1
	maxK        = 10
	workers     = 2
	datasetName = "bench"

	// fixtureSeed generates what the serving stack holds before the first
	// request: the dataset and each workload's hot-region set. --seed drives
	// everything a client decides per request (fresh regions, popularity
	// draws, update victims, inserted records). One dataset per run cannot
	// average out dataset-to-dataset variation (measured: 13 % spread of the
	// UTK2 median across ten datasets, 3 % across ten request streams on one).
	fixtureSeed = 20180801

	// warmFrac of the main sequence is replayed unrecorded as part of set-up:
	// it pays the per-k candidate-list derivation and lets caches fill.
	warmFrac = 0.05

	// replicas is how many times a run builds the whole stack and replays the
	// measured sequence; see run.
	replicas = 3
)

type opKind uint8

const (
	opUTK1 opKind = iota
	opUTK2
	opUpdate
	numKinds
)

var kindNames = [numKinds]string{"utk1", "utk2", "update"}

// box is one query region: the axis-parallel cube [lo, hi].
type box struct{ lo, hi []float64 }

// update is one /update body: deletes apply before inserts.
type update struct {
	del []int
	ins [][]float64
}

// op is one pre-generated request. body is what the handler receives; box and
// upd index the same inputs in decoded form for the twin instances the traced
// run drives below the HTTP layer.
type op struct {
	kind opKind
	k    int
	box  int
	upd  int
	body []byte
}

// sequence is a workload's whole fixed request stream: ops[:warm] is the
// unrecorded warm-up prefix, ops[warm:] the measured phase.
type sequence struct {
	ops     []op
	warm    int
	boxes   []box
	updates []update
	// deleted and inserted are the harness's mirror of what the whole
	// sequence does to the record collection: initial ids it deletes, and the
	// surviving inserts in id order.
	deleted     map[int]bool
	insertedIDs []int
	insertedRec [][]float64
}

func (s *sequence) measured() []op { return s.ops[s.warm:] }

// hash fingerprints the request stream (kinds and bodies, in order).
func (s *sequence) hash() uint64 {
	h := fnv.New64a()
	for i := range s.ops {
		h.Write([]byte{byte(s.ops[i].kind)})
		h.Write(s.ops[i].body)
	}
	return h.Sum64()
}

// mirror returns the live record collection after the whole sequence applied
// to the initial records: engine ids and coordinates, index-aligned.
func (s *sequence) mirror(initial [][]float64) (ids []int, recs [][]float64) {
	for id, rec := range initial {
		if !s.deleted[id] {
			ids = append(ids, id)
			recs = append(recs, rec)
		}
	}
	return append(ids, s.insertedIDs...), append(recs, s.insertedRec...)
}

// scale sizes one run: records in the dataset and ops in one replay of the
// measured phase.
type scale struct {
	n   int
	ops int
}

// spec describes one workload. opsPerSecond is the calibration constant that
// turns -seconds into a fixed op count (see README.md, "Run length"): runs are
// bounded by op count, never by the clock, so every run of a seed does
// identical work.
type spec struct {
	name         string
	why          string
	kind         dataset.Kind
	n            int
	cacheEntries int
	durable      bool
	opsPerSecond float64
	gen          func(g *seqGen, measuredOps int)
}

var specs = []spec{
	{
		name: "refine_miss",
		why:  "IND n=200k, every region a fresh sigma=0.015 box, k=10, UTK1:UTK2 5:3: refinement (core RSA/JAA, arrangement, lp) dominates; the cache never hits and updates are deep-record churn only",
		kind: dataset.IND, n: 200_000, opsPerSecond: 495, gen: genRefineMiss,
	},
	{
		name: "filter_anti",
		why:  "ANTI n=25k, fresh sigma=0.005 boxes, k=5/10, UTK1:UTK2 7:3: the 7.7k-record MaxK superset makes the skyband filter ~85 % of query time; refinement and cache barely matter",
		kind: dataset.ANTI, n: 25_000, opsPerSecond: 1070, gen: genFilterAnti,
	},
	{
		name: "reuse_hot",
		why:  "refine_miss data, 64 Zipf(1.2) parent boxes plus never-repeated nested boxes, 4096-entry cache: server codec, registry, rescache and clip derivation do the work, core and skyband almost none",
		kind: dataset.IND, n: 200_000, cacheEntries: 4096, opsPerSecond: 20000, gen: genReuseHot,
	},
	{
		name: "update_mix",
		why:  "IND n=10k on a file store (fsync always): each live /update (16 deletes + 16 inserts) is followed by 6 hot-box UTK1 and 2 fresh-box UTK2; band maintenance, repair steps, probes and the WAL dominate",
		kind: dataset.IND, n: 10_000, durable: true, opsPerSecond: 1180, gen: genUpdateMix,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// scaleFor converts the -seconds argument into the workload's fixed op count:
// the measured seconds are split evenly over the replicas.
func (sp *spec) scaleFor(seconds int) scale {
	return scale{n: sp.n, ops: int(sp.opsPerSecond * float64(seconds) / replicas)}
}

// seqGen accumulates a sequence; the gen functions append to it. fix draws
// the fixture (hot regions), rng the per-request decisions.
type seqGen struct {
	fix *rand.Rand
	rng *rand.Rand
	seq *sequence
	// Mirror of the live ids: the engine assigns insert ids sequentially from
	// n, so the harness predicts them exactly. live supports uniform victim
	// selection (update_mix); recOf holds the surviving inserts; deep is the
	// previous deep-churn update's inserts (the read workloads' churn).
	nextID int
	live   []int
	recOf  map[int][]float64
	deep   []int
}

// buildSequence generates the workload's request stream for a seed.
func (sp *spec) buildSequence(seed int64, sc scale) *sequence {
	g := &seqGen{
		fix:    rand.New(rand.NewSource(fixtureSeed)),
		rng:    rand.New(rand.NewSource(seed)),
		seq:    &sequence{deleted: map[int]bool{}},
		nextID: sc.n,
		recOf:  map[int][]float64{},
	}
	if sp.durable {
		g.live = make([]int, sc.n)
		for i := range g.live {
			g.live[i] = i
		}
	}
	sp.gen(g, sc.ops)
	for id := sc.n; id < g.nextID; id++ {
		if rec, ok := g.recOf[id]; ok {
			g.seq.insertedIDs = append(g.seq.insertedIDs, id)
			g.seq.insertedRec = append(g.seq.insertedRec, rec)
		}
	}
	return g.seq
}

// randBox places a cube of side sigma uniformly in the preference domain:
// the centre is a uniform simplex point shrunk so the cube stays inside.
func (g *seqGen) randBox(rng *rand.Rand, sigma float64) int {
	raw := make([]float64, prefDim+1)
	sum := 0.0
	for i := range raw {
		raw[i] = rng.ExpFloat64()
		sum += raw[i]
	}
	alpha := 1 - prefDim*sigma - 0.01
	b := box{lo: make([]float64, prefDim), hi: make([]float64, prefDim)}
	for i := range b.lo {
		b.lo[i] = raw[i] / sum * alpha
		b.hi[i] = b.lo[i] + sigma
	}
	g.seq.boxes = append(g.seq.boxes, b)
	return len(g.seq.boxes) - 1
}

// nestedBox places a fresh cube of side sigma strictly inside a parent box.
func (g *seqGen) nestedBox(parent int, sigma float64) int {
	p := g.seq.boxes[parent]
	b := box{lo: make([]float64, prefDim), hi: make([]float64, prefDim)}
	for i := range b.lo {
		room := p.hi[i] - p.lo[i] - sigma
		b.lo[i] = p.lo[i] + room*(0.05+0.9*g.rng.Float64())
		b.hi[i] = b.lo[i] + sigma
	}
	g.seq.boxes = append(g.seq.boxes, b)
	return len(g.seq.boxes) - 1
}

func appendFloats(b []byte, vs []float64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// query appends one UTK1/UTK2 op on a box.
func (g *seqGen) query(kind opKind, k, bx int) {
	g.seq.ops = append(g.seq.ops, g.queryOp(kind, k, bx))
}

// queryOp builds one UTK1/UTK2 op on a box without appending it.
func (g *seqGen) queryOp(kind opKind, k, bx int) op {
	b := g.seq.boxes[bx]
	body := append([]byte(`{"k":`), strconv.Itoa(k)...)
	body = append(body, `,"region":{"lo":`...)
	body = appendFloats(body, b.lo)
	body = append(body, `,"hi":`...)
	body = appendFloats(body, b.hi)
	body = append(body, "}}"...)
	return op{kind: kind, k: k, box: bx, body: body}
}

// emitUpdate appends one /update op and advances the mirror.
func (g *seqGen) emitUpdate(u update) {
	for _, id := range u.del {
		if _, own := g.recOf[id]; own {
			delete(g.recOf, id)
		} else {
			g.seq.deleted[id] = true
		}
	}
	for _, rec := range u.ins {
		g.recOf[g.nextID] = rec
		g.nextID++
	}
	body := []byte(`{"delete":[`)
	for i, id := range u.del {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(id), 10)
	}
	body = append(body, `],"insert":[`...)
	for i, rec := range u.ins {
		if i > 0 {
			body = append(body, ',')
		}
		body = appendFloats(body, rec)
	}
	body = append(body, "]}"...)
	g.seq.updates = append(g.seq.updates, u)
	g.seq.ops = append(g.seq.ops, op{kind: opUpdate, upd: len(g.seq.updates) - 1, body: body})
}

// batchSize is the number of deletes and of inserts in every /update.
const batchSize = 16

// liveUpdate deletes batchSize uniformly chosen live ids and inserts
// batchSize uniform records: real band maintenance.
func (g *seqGen) liveUpdate() {
	u := update{del: make([]int, batchSize), ins: make([][]float64, batchSize)}
	for i := range u.del {
		j, last := g.rng.Intn(len(g.live)), len(g.live)-1
		u.del[i] = g.live[j]
		g.live[j] = g.live[last]
		g.live = g.live[:last]
	}
	for i := range u.ins {
		rec := make([]float64, dataDim)
		for j := range rec {
			rec[j] = g.rng.Float64()
		}
		u.ins[i] = rec
		g.live = append(g.live, g.nextID+i)
	}
	g.emitUpdate(u)
}

// deepChurn is the read workloads' update: it inserts batchSize records deep
// inside the dominated region (every coordinate below 0.3, so thousands of
// records dominate each) and deletes the previous churn's inserts. Such a
// batch never touches the band, the epoch or the cache: it prices the /update
// path with band maintenance and invalidation bypassed, the control for
// update_mix.
func (g *seqGen) deepChurn() {
	u := update{del: g.deep, ins: make([][]float64, batchSize)}
	g.deep = make([]int, batchSize)
	for i := range u.ins {
		rec := make([]float64, dataDim)
		for j := range rec {
			rec[j] = 0.3 * g.rng.Float64()
		}
		u.ins[i] = rec
		g.deep[i] = g.nextID + i
	}
	g.emitUpdate(u)
}

// mainSequence emits total = measured/(1-warmFrac) ops through emit, one
// deep-churn update every churnEvery ops, and marks the warm-up prefix.
func (g *seqGen) mainSequence(measured, churnEvery int, emit func(i int)) {
	total := int(float64(measured)/(1-warmFrac) + 0.5)
	g.seq.warm = len(g.seq.ops) + total - measured
	for i, q := 0, 0; i < total; i++ {
		if i%churnEvery == churnEvery-1 {
			g.deepChurn()
			continue
		}
		emit(q)
		q++
	}
}

// refine_miss: every region distinct, UTK1 and UTK2 interleaved 5:3, one
// deep-churn update per 10 ops.
func genRefineMiss(g *seqGen, measured int) {
	pattern := [8]opKind{opUTK1, opUTK1, opUTK2, opUTK1, opUTK1, opUTK2, opUTK1, opUTK2}
	g.mainSequence(measured, 10, func(i int) {
		g.query(pattern[i%len(pattern)], maxK, g.randBox(g.rng, 0.015))
	})
}

// filter_anti: every region distinct, UTK1 and UTK2 interleaved 7:3, k
// alternating 5 and 10, one deep-churn update per 10 ops.
func genFilterAnti(g *seqGen, measured int) {
	pattern := [10]opKind{opUTK1, opUTK1, opUTK2, opUTK1, opUTK1, opUTK2, opUTK1, opUTK1, opUTK2, opUTK1}
	g.mainSequence(measured, 10, func(i int) {
		k := 5
		if i%2 == 1 {
			k = maxK
		}
		g.query(pattern[i%len(pattern)], k, g.randBox(g.rng, 0.005))
	})
}

// reuse_hot: 64 fixture parent boxes drawn Zipf(1.2) — 50 % UTK1 on a parent,
// 30 % UTK2 on a parent, 20 % UTK1 on a never-repeated box nested in a parent
// (derived from the parent's cached UTK2 cells, then admitted, so the zoom
// stream overflows the cache while the parents stay resident); one deep-churn
// update per 100 ops. Every parent is warmed in both variants first.
func genReuseHot(g *seqGen, measured int) {
	const parents = 64
	var utk1, utk2 [parents]op
	for p := range utk1 {
		bx := g.randBox(g.fix, 0.01)
		utk2[p], utk1[p] = g.queryOp(opUTK2, maxK, bx), g.queryOp(opUTK1, maxK, bx)
		g.seq.ops = append(g.seq.ops, utk2[p], utk1[p])
	}
	zipf := rand.NewZipf(g.rng, 1.2, 1, parents-1)
	g.mainSequence(measured, 100, func(int) {
		p := int(zipf.Uint64())
		switch u := g.rng.Float64(); {
		case u < 0.5:
			g.seq.ops = append(g.seq.ops, utk1[p])
		case u < 0.8:
			g.seq.ops = append(g.seq.ops, utk2[p])
		default:
			g.query(opUTK1, maxK, g.nestedBox(utk1[p].box, 0.0025))
		}
	})
}

// update_mix: rounds of one live /update followed by 6 UTK1 on 16 fixture hot
// boxes (hits, invalidations, read-your-writes) and 2 UTK2 on fresh boxes
// (computed on the current band). UTK2 stays off the hot boxes because a UTK2
// hit costs in proportion to the cached answer's cell count, and the answers
// drift with the seeded updates: its median then tracks the seed, not the code.
func genUpdateMix(g *seqGen, measured int) {
	const hot, perRound = 16, 9
	var hotUTK1 [hot]op
	for b := range hotUTK1 {
		hotUTK1[b] = g.queryOp(opUTK1, maxK, g.randBox(g.fix, 0.01))
	}
	rounds := (measured + perRound - 1) / perRound
	warmRounds := int(float64(rounds)*warmFrac/(1-warmFrac)) + 1
	g.seq.warm = warmRounds * perRound
	for r := 0; r < warmRounds+rounds; r++ {
		g.liveUpdate()
		for q := 0; q < perRound-1; q++ {
			if q%4 == 3 {
				g.query(opUTK2, maxK, g.randBox(g.rng, 0.005))
			} else {
				g.seq.ops = append(g.seq.ops, hotUTK1[g.rng.Intn(hot)])
			}
		}
	}
}
