package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"

	utk "repro"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/store"
)

// checkSamples is how many measured queries the correctness pass re-asks.
const checkSamples = 50

// answer is the part of a /utk1 or /utk2 response the pass compares.
type answer struct {
	Records []int `json:"records"`
	Cells   []struct {
		TopK     []int     `json:"top_k"`
		Interior []float64 `json:"interior"`
	} `json:"cells"`
}

// reference is the stateless ground truth over the harness's own mirror of
// the live records: a fresh utk.Dataset, plus the map from its positional ids
// back to engine ids (they differ once updates have run).
type reference struct {
	ds   *utk.Dataset
	recs [][]float64
	ids  []int
}

func (ref *reference) engineIDs(pos []int) []int {
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = ref.ids[p]
	}
	sort.Ints(out)
	return out
}

// topKAt is the brute-force top-k probe: a linear scan of every live record,
// sharing no code with the query path.
func (ref *reference) topKAt(w []float64, k int) []int {
	type scored struct {
		score float64
		pos   int
	}
	best := make([]scored, 0, k+1)
	for pos, rec := range ref.recs {
		s := rec[len(rec)-1]
		for j, wj := range w {
			s += wj * (rec[j] - rec[len(rec)-1])
		}
		if len(best) == k && s <= best[k-1].score {
			continue
		}
		i := sort.Search(len(best), func(i int) bool { return best[i].score < s })
		best = append(best, scored{})
		copy(best[i+1:], best[i:])
		best[i] = scored{s, pos}
		if len(best) > k {
			best = best[:k]
		}
	}
	pos := make([]int, len(best))
	for i, b := range best {
		pos[i] = b.pos
	}
	return ref.engineIDs(pos)
}

// verify compares one served answer with the stateless algorithms and the
// brute-force probe. UTK1: identical id set. UTK2: at every served cell's
// interior point the served top-k set equals both the stateless partitioning's
// (via CellAt) and the brute-force scan's, and the union over cells equals the
// exact UTK1 set.
func (ref *reference) verify(o *op, b box, got *answer) error {
	region, err := utk.NewBoxRegion(b.lo, b.hi)
	if err != nil {
		return err
	}
	q := utk.Query{K: o.k, Region: region}
	want1, err := ref.ds.UTK1(q)
	if err != nil {
		return err
	}
	wantIDs := ref.engineIDs(want1.Records)
	if o.kind == opUTK1 {
		if !slices.Equal(got.Records, wantIDs) {
			return fmt.Errorf("utk1 ids differ: got %d, want %d records", len(got.Records), len(wantIDs))
		}
		return nil
	}
	want2, err := ref.ds.UTK2(q)
	if err != nil {
		return err
	}
	union := map[int]bool{}
	for _, c := range got.Cells {
		served := append([]int(nil), c.TopK...)
		sort.Ints(served)
		cell := want2.CellAt(c.Interior)
		if cell == nil {
			return fmt.Errorf("utk2 cell interior %v lies outside the stateless partitioning", c.Interior)
		}
		if !slices.Equal(served, ref.engineIDs(cell.TopK)) {
			return fmt.Errorf("utk2 top-k at %v differs from stateless JAA", c.Interior)
		}
		if !slices.Equal(served, ref.topKAt(c.Interior, o.k)) {
			return fmt.Errorf("utk2 top-k at %v differs from brute force", c.Interior)
		}
		for _, id := range served {
			union[id] = true
		}
	}
	if len(union) != len(wantIDs) {
		return fmt.Errorf("utk2 cells cover %d records, exact UTK1 has %d", len(union), len(wantIDs))
	}
	for _, id := range wantIDs {
		if !union[id] {
			return fmt.Errorf("utk2 cells miss record %d", id)
		}
	}
	return nil
}

// ask sends one query op through a handler and decodes the answer.
func ask(c *client, h http.Handler, o *op) (*answer, error) {
	if _, status := c.do(h, o); status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(c.w.capture.Bytes()))
	}
	var a answer
	if err := json.Unmarshal(c.w.capture.Bytes(), &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// checkAnswers is the correctness pass, run after the timed phase: sampled
// measured queries are re-asked through the handler and verified against the
// reference; a durable workload is then closed, reopened from its directory
// and must report the same live count and the same answers. It returns the
// number of checks made and the number that failed.
func checkAnswers(r *runResult, logw io.Writer) (checked, bad int) {
	fail := func(format string, args ...any) {
		bad++
		fmt.Fprintf(logw, "  MISMATCH: "+format+"\n", args...)
	}
	in, seq := r.in, r.seq
	ref := &reference{}
	ref.ids, ref.recs = seq.mirror(in.records)
	var err error
	if ref.ds, err = utk.NewDataset(ref.recs); err != nil {
		fail("reference dataset: %v", err)
		return 1, bad
	}
	checked++
	if live := in.ent.Engine.Stats().Live; live != len(ref.ids) {
		fail("live count %d, mirror has %d", live, len(ref.ids))
	}

	// Sample evenly over the measured queries.
	var queries []*op
	for i := range seq.measured() {
		if o := &seq.measured()[i]; o.kind != opUpdate {
			queries = append(queries, o)
		}
	}
	sample := make([]*op, min(checkSamples, len(queries)))
	for i := range sample {
		sample[i] = queries[i*len(queries)/len(sample)]
	}

	c := newClient()
	c.w.capture = &bytes.Buffer{}
	served := make([]*answer, len(sample))
	for i, o := range sample {
		checked++
		a, err := ask(c, in.handler, o)
		if err != nil {
			fail("%s on box %d: %v", kindNames[o.kind], o.box, err)
			continue
		}
		served[i] = a
		if err := ref.verify(o, seq.boxes[o.box], a); err != nil {
			fail("%s k=%d on box %d: %v", kindNames[o.kind], o.k, o.box, err)
		}
	}
	if in.file == nil {
		return checked, bad
	}

	// Reopen check: every acknowledged update must be in the directory.
	checked++
	if err := in.reopen(); err != nil {
		fail("reopen: %v", err)
		return checked, bad
	}
	if live := in.ent.Engine.Stats().Live; live != len(ref.ids) {
		fail("reopened live count %d, mirror has %d", live, len(ref.ids))
	}
	for i, o := range sample {
		if served[i] == nil {
			continue
		}
		checked++
		a, err := ask(c, in.handler, o)
		if err != nil {
			fail("reopened %s on box %d: %v", kindNames[o.kind], o.box, err)
			continue
		}
		if err := ref.verify(o, seq.boxes[o.box], a); err != nil {
			fail("reopened %s k=%d on box %d: %v", kindNames[o.kind], o.k, o.box, err)
		}
	}
	return checked, bad
}

// reopen closes the instance's file store and recovers the registry from its
// directory, as a restarted server would; the instance then serves from the
// recovered registry.
func (in *instance) reopen() error {
	if err := in.file.Close(); err != nil {
		return err
	}
	f, err := store.OpenFile(in.dir, store.FileConfig{Sync: store.SyncAlways})
	if err != nil {
		return err
	}
	in.file = f
	if in.reg, err = registry.Open(f, registry.SnapshotPolicy{}); err != nil {
		return err
	}
	if in.ent, err = in.reg.Get(datasetName); err != nil {
		return err
	}
	in.handler = server.New(in.reg, server.Config{})
	return nil
}
