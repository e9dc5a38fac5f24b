package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	utk "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/registry"
	"repro/internal/rtree"
	"repro/internal/skyband"
	"repro/internal/store"
)

// The traced run measures every layer from outside the program: it times calls
// into each layer's public functions on the same op sequence. Per op it drives
//
//   - instance A through the HTTP handler (the traced end-to-end wall), and
//   - a twin built from the same records one layer down: queries go to
//     utk.Engine directly (whose Stats split filter and refine time), updates
//     to Engine.ApplyBatchPipelined (begin and commit timed apart) and, on a
//     durable workload, to a standalone store.File (the WAL append).
//
// Both see the same requests in the same order, so their state evolves
// identically and the op at an index does the same work on each. A layer's
// self time is its span minus its children's: server = handler - facade,
// engine = facade - filter - refine; for updates server+registry = handler -
// begin - max(commit, append), because the registry overlaps the two.

// span is one traced interval. Filter and refine spans carry the durations the
// engine's Stats report and are laid out back to back from their parent's
// start; every other span is a wall-clock interval the harness measured.
type span struct {
	op         int32 // index into the measured sequence
	kind       opKind
	layer      string
	start, end int64 // ns since the traced replay began
	parent     int32 // index of the parent span, -1 for a root
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(op int, kind opKind, layer string, start time.Time, d time.Duration, parent int) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{int32(op), kind, layer, s, s + d.Nanoseconds(), int32(parent)})
	return len(t.spans) - 1
}

// write streams the spans to dir/trace.json.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"spans\":[", workload, seed)
	var b []byte
	for i, s := range t.spans {
		b = b[:0]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n{\"op\":"...)
		b = strconv.AppendInt(b, int64(s.op), 10)
		b = append(b, ",\"kind\":\""...)
		b = append(b, kindNames[s.kind]...)
		b = append(b, "\",\"layer\":\""...)
		b = append(b, s.layer...)
		b = append(b, "\",\"start_ns\":"...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, ",\"end_ns\":"...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, ",\"parent\":"...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, '}')
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// twin is the one-layer-down counterpart of an instance.
type twin struct {
	eng  *utk.Engine
	file *store.File // standalone WAL, durable workloads only
	dir  string
	seq  uint64
}

func (tw *twin) close() {
	if tw.file != nil {
		tw.file.Close()
		os.RemoveAll(tw.dir)
	}
}

func (sp *spec) buildTwin(records [][]float64) (*twin, error) {
	ds, err := utk.NewDataset(records)
	if err != nil {
		return nil, err
	}
	tw := &twin{}
	if tw.eng, err = ds.NewEngine(utk.EngineConfig{MaxK: maxK, CacheEntries: sp.cacheEntries, Workers: workers}); err != nil {
		return nil, err
	}
	if !sp.durable {
		return tw, nil
	}
	// The standalone WAL needs a created dataset to append to; the registry
	// that creates it is dropped, only the file store is kept.
	if tw.dir, err = os.MkdirTemp(tmpRoot, "wal-"); err != nil {
		return nil, err
	}
	if tw.file, err = store.OpenFile(tw.dir, store.FileConfig{Sync: store.SyncAlways}); err != nil {
		os.RemoveAll(tw.dir)
		return nil, err
	}
	if _, err = registry.NewWithStore(tw.file, registry.SnapshotPolicy{}).Create(datasetName, records[:maxK*4], sp.options()); err != nil {
		tw.close()
		return nil, err
	}
	return tw, nil
}

// opTrace is what the traced replay keeps per measured op (nanoseconds).
type opTrace struct {
	handler int64
	facade  int64 // queries: Engine.UTK1/UTK2 wall on the twin
	filter  int64
	refine  int64
	begin   int64 // updates
	commit  int64
	wal     int64
	served  uint8 // 0 computed, 1 hit, 2 derived (as the twin reports)
	cands   int32
	snap    bool // the handler's update wrote a snapshot
}

const (
	servedComputed = iota
	servedHit
	servedDerived
)

type traceResult struct {
	attempted, failed int
	metrics           map[string]metric
}

// traced runs after the untraced run r and reports the per-layer metrics.
func (r *runResult) traced(logw io.Writer) (*traceResult, error) {
	sp, seq := r.sp, r.seq
	a, _, err := sp.build(r.sc)
	if err != nil {
		return nil, err
	}
	defer a.close()
	tw, err := sp.buildTwin(a.records)
	if err != nil {
		return nil, err
	}
	defer tw.close()

	c := newClient()
	c.w.capture = &bytes.Buffer{}
	tr := &tracer{spans: make([]span, 0, 3*len(seq.measured()))}
	ots := make([]opTrace, len(seq.measured()))
	res := &traceResult{}
	snaps := a.ent.Durability(true).SnapshotsWritten

	// Decoded forms of the requests, built outside the timed calls.
	regions := make([]*utk.Region, len(seq.boxes))
	for i, b := range seq.boxes {
		if regions[i], err = utk.NewBoxRegion(b.lo, b.hi); err != nil {
			return nil, err
		}
	}
	batches := make([][]utk.UpdateOp, len(seq.updates))
	walOps := make([][]engine.UpdateOp, len(seq.updates))
	for i, u := range seq.updates {
		for _, id := range u.del {
			batches[i] = append(batches[i], utk.UpdateOp{Kind: utk.UpdateDelete, ID: id})
			walOps[i] = append(walOps[i], engine.UpdateOp{Kind: engine.UpdateDelete, ID: id})
		}
		for _, rec := range u.ins {
			batches[i] = append(batches[i], utk.UpdateOp{Kind: utk.UpdateInsert, Record: rec})
			walOps[i] = append(walOps[i], engine.UpdateOp{Kind: engine.UpdateInsert, Record: rec})
		}
	}

	diverged := 0
	for i := range seq.ops {
		o := &seq.ops[i]
		m := i - seq.warm // measured index; negative during warm-up
		if m == 0 {
			tr.t0 = time.Now()
		}

		// Instance A: the handler.
		startA := time.Now()
		dA, status := c.do(a.handler, o)
		if status < 200 || status > 299 {
			res.failed++
		}
		servedA := servedComputed
		switch {
		case bytes.Contains(c.w.capture.Bytes(), []byte(`"derived":true`)):
			servedA = servedDerived
		case bytes.Contains(c.w.capture.Bytes(), []byte(`"cache_hit":true`)):
			servedA = servedHit
		}

		// The twin, one layer down.
		var ot opTrace
		ot.handler = int64(dA)
		root := -1
		if m >= 0 {
			res.attempted++
			root = tr.add(m, o.kind, "server", startA, dA, -1)
		}
		if o.kind == opUpdate {
			startB := time.Now()
			ures, commit, err := tw.eng.ApplyBatchPipelined(batches[o.upd])
			if err != nil {
				return nil, fmt.Errorf("twin update %d: %w", o.upd, err)
			}
			tBegin := time.Now()
			commit()
			tCommit := time.Now()
			ot.begin, ot.commit = int64(tBegin.Sub(startB)), int64(tCommit.Sub(tBegin))
			if tw.file != nil {
				tw.seq++
				if _, err := tw.file.Append(datasetName, &store.Batch{Seq: tw.seq, Epoch: ures.Epoch, Ops: walOps[o.upd]}); err != nil {
					return nil, fmt.Errorf("twin append %d: %w", o.upd, err)
				}
				ot.wal = int64(time.Since(tCommit))
			}
			if now := a.ent.Durability(true).SnapshotsWritten; now != snaps {
				snaps, ot.snap = now, true
			}
			if m >= 0 {
				tr.add(m, o.kind, "engine.begin", startB, time.Duration(ot.begin), root)
				tr.add(m, o.kind, "engine.commit", tBegin, time.Duration(ot.commit), root)
				if tw.file != nil {
					tr.add(m, o.kind, "store.append", tCommit, time.Duration(ot.wal), root)
				}
			}
		} else {
			q := utk.Query{K: o.k, Region: regions[o.box]}
			var st utk.Stats
			var hit, derived bool
			startB := time.Now()
			if o.kind == opUTK1 {
				qr, err := tw.eng.UTK1(context.Background(), q)
				ot.facade = int64(time.Since(startB))
				if err != nil {
					return nil, fmt.Errorf("twin utk1: %w", err)
				}
				st, hit, derived = qr.Stats, qr.CacheHit, qr.Derived
			} else {
				qr, err := tw.eng.UTK2(context.Background(), q)
				ot.facade = int64(time.Since(startB))
				if err != nil {
					return nil, fmt.Errorf("twin utk2: %w", err)
				}
				st, hit, derived = qr.Stats, qr.CacheHit, qr.Derived
			}
			switch {
			case derived:
				ot.served = servedDerived
			case hit:
				ot.served = servedHit
			default:
				ot.filter, ot.refine, ot.cands = int64(st.FilterDuration), int64(st.RefineDuration), int32(st.Candidates)
			}
			if int(ot.served) != servedA {
				diverged++
			}
			if m >= 0 {
				e := tr.add(m, o.kind, "engine", startB, time.Duration(ot.facade), root)
				if ot.served == servedComputed {
					tr.add(m, o.kind, "skyband.filter", startB, st.FilterDuration, e)
					tr.add(m, o.kind, "core.refine", startB.Add(st.FilterDuration), st.RefineDuration, e)
				}
			}
		}
		if m >= 0 {
			ots[m] = ot
		}
	}
	if diverged > 0 {
		fmt.Fprintf(logw, "  WARNING: handler and twin served %d ops differently (hit/derived/computed)\n", diverged)
	}
	if err := tr.write(outDir, sp.name, r.seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(logw, "  traced replay: %d spans written to %s\n", len(tr.spans), filepath.Join(outDir, "trace.json"))

	res.metrics = r.perLayer(a, ots, diverged, logw)
	return res, nil
}

// sample returns up to n distinct measured queries of a kind, in order.
func (s *sequence) sample(kind opKind, n int) []*op {
	seen := map[int]bool{}
	var out []*op
	for i := range s.measured() {
		o := &s.measured()[i]
		if o.kind == kind && !seen[o.box] && len(out) < n {
			seen[o.box] = true
			out = append(out, o)
		}
	}
	return out
}

// layerSample is how many distinct queries per kind the direct layer calls
// (cold filter, RSA/JAA replay) run on.
const layerSample = 150

// directLayers calls skyband and core directly on sampled regions of the
// sequence, over an R-tree of the initial records: the cold filter
// (skyband.BuildGraph) and the refinement's exact work counts.
func directLayers(records [][]float64, seq *sequence, m map[string]metric) error {
	tree, err := rtree.BulkLoad(records, rtree.DefaultFanout)
	if err != nil {
		return err
	}
	var cold []int64
	var verify, partition, drills, drillHits, partitions, splits, lps, n1, n2 float64
	for _, kind := range []opKind{opUTK1, opUTK2} {
		for _, o := range seq.sample(kind, layerSample) {
			b := seq.boxes[o.box]
			region, err := geom.NewBox(b.lo, b.hi)
			if err != nil {
				return err
			}
			t0 := time.Now()
			g := skyband.BuildGraph(tree, region, o.k)
			cold = append(cold, int64(time.Since(t0)))
			st := &core.Stats{}
			if kind == opUTK1 {
				if _, err := core.RSAFromGraph(g, region, o.k, core.Options{}, st); err != nil {
					return err
				}
				n1++
				verify += float64(st.VerifyCalls)
			} else {
				if _, err := core.JAAFromGraph(g, region, o.k, core.Options{}, st); err != nil {
					return err
				}
				n2++
				partition += float64(st.PartitionCalls)
				partitions += float64(st.Partitions)
				splits += float64(st.Arrangement.CellSplits)
				lps += float64(st.Arrangement.LPCalls)
			}
			drills += float64(st.Drills)
			drillHits += float64(st.DrillHits)
		}
	}
	slices.Sort(cold)
	m["skyband.cold_filter_us_p50"] = metric{pctUS(cold, 0.5), "us"}
	m["core.verify_calls_per_utk1"] = metric{ratio(verify, n1), "count"}
	m["core.partition_calls_per_utk2"] = metric{ratio(partition, n2), "count"}
	m["core.drill_hit_frac"] = metric{ratio(drillHits, drills), "frac"}
	m["core.partitions_per_utk2"] = metric{ratio(partitions, n2), "count"}
	m["arrangement.cell_splits_per_utk2"] = metric{ratio(splits, n2), "count"}
	m["lp.calls_per_utk2"] = metric{ratio(lps, n2), "count"}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p50p95(vs []int64) (float64, float64) {
	slices.Sort(vs)
	return pctUS(vs, 0.5), pctUS(vs, 0.95)
}

func mean(vs []int64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += float64(v)
	}
	return ratio(sum, float64(len(vs)))
}

// perLayer derives the per-layer metrics: from the traced replay (ots), from
// the untraced run's last replica (engine counters, runtime counters), and
// from direct layer calls.
func (r *runResult) perLayer(a *instance, ots []opTrace, diverged int, logw io.Writer) map[string]metric {
	m := map[string]metric{}
	ops := r.seq.measured()
	ph := r.phases[len(r.phases)-1]
	nOps := float64(len(ops))

	// server and engine self times, filter and refine, per op kind. The sum
	// check adds up what the report states per kind and layer — aggregate self
	// times (a negative aggregate counts as zero: the twin cannot have spent
	// more than its parent), filter, refine, begin, max(commit, append) — and
	// compares the total with the traced handler wall.
	var self [numKinds][]int64
	var hitUS, deriveUS, missSelf, filterUS, refine1, refine2, beginUS, commitUS, appendUS, regSelf []int64
	var wall, serverSelf, engineSelf, below [numKinds]float64
	var wallComputed, filterSum, refineSum, cands, wallComputed1, filterSum1, snapNS float64
	nComputed, nSnaps := 0.0, 0.0
	for i, o := range ops {
		ot := &ots[i]
		wall[o.kind] += float64(ot.handler)
		if o.kind == opUpdate {
			under := ot.begin + max(ot.commit, ot.wal)
			rs := ot.handler - under
			self[o.kind] = append(self[o.kind], ot.handler-ot.begin-ot.commit)
			beginUS = append(beginUS, ot.begin)
			commitUS = append(commitUS, ot.commit)
			appendUS = append(appendUS, ot.wal)
			if ot.snap {
				nSnaps++
				snapNS += float64(rs)
			} else {
				regSelf = append(regSelf, rs)
			}
			serverSelf[o.kind] += float64(rs)
			below[o.kind] += float64(under)
			continue
		}
		self[o.kind] = append(self[o.kind], ot.handler-ot.facade)
		engSelf := ot.facade - ot.filter - ot.refine
		serverSelf[o.kind] += float64(ot.handler - ot.facade)
		engineSelf[o.kind] += float64(engSelf)
		below[o.kind] += float64(ot.filter + ot.refine)
		switch ot.served {
		case servedHit:
			hitUS = append(hitUS, ot.facade)
		case servedDerived:
			deriveUS = append(deriveUS, ot.facade)
		default:
			nComputed++
			missSelf = append(missSelf, engSelf)
			filterUS = append(filterUS, ot.filter)
			wallComputed += float64(ot.facade)
			filterSum += float64(ot.filter)
			refineSum += float64(ot.refine)
			cands += float64(ot.cands)
			if o.kind == opUTK1 {
				refine1 = append(refine1, ot.refine)
				wallComputed1 += float64(ot.facade)
				filterSum1 += float64(ot.filter)
			} else {
				refine2 = append(refine2, ot.refine)
			}
		}
	}
	tracedWall, parts := 0.0, 0.0
	for k := range wall {
		tracedWall += wall[k]
		parts += max(serverSelf[k], 0) + max(engineSelf[k], 0) + below[k]
	}
	usOf := func(vs []int64) float64 { p, _ := p50p95(vs); return p }
	m["server.utk1_self_us"] = metric{mean(self[opUTK1]) / 1e3, "us"}
	m["server.utk2_self_us"] = metric{mean(self[opUTK2]) / 1e3, "us"}
	m["server.update_self_us"] = metric{mean(self[opUpdate]) / 1e3, "us"}
	m["server.resp_bytes_per_op"] = metric{float64(ph.respBytes) / nOps, "bytes"}
	all := slices.Clone(r.lat)
	slices.Sort(all)
	m["server.op_p99_us"] = metric{pctUS(all, 0.99), "us"}
	m["server.op_max_us"] = metric{pctUS(all, 1), "us"}

	const gets = 200_000
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		if _, err := a.reg.Get(datasetName); err != nil {
			break
		}
	}
	m["registry.get_ns"] = metric{float64(time.Since(t0).Nanoseconds()) / gets, "ns"}
	m["registry.update_self_us"] = metric{mean(regSelf) / 1e3, "us"}
	m["registry.snapshots"] = metric{nSnaps, "count"}
	m["registry.snapshot_ms_total"] = metric{snapNS / 1e6, "ms"}

	// Engine counters: deltas over the last untraced replay.
	s0, s1 := ph.stats0, ph.stats1
	queries := float64(s1.Queries - s0.Queries)
	m["engine.hit_frac"] = metric{ratio(float64(s1.Hits-s0.Hits), queries), "frac"}
	m["engine.derived_frac"] = metric{ratio(float64(s1.DerivedHits-s0.DerivedHits), queries), "frac"}
	m["engine.miss_frac"] = metric{ratio(float64(s1.Misses-s0.Misses), queries), "frac"}
	m["engine.hit_us_p50"] = metric{usOf(hitUS), "us"}
	m["engine.derive_us_p50"] = metric{usOf(deriveUS), "us"}
	m["engine.miss_self_us_p50"] = metric{usOf(missSelf), "us"}
	m["engine.evictions"] = metric{float64(s1.Evictions - s0.Evictions), "count"}
	m["engine.invalidations"] = metric{float64(s1.Invalidations - s0.Invalidations), "count"}
	m["engine.admission_skips"] = metric{float64(s1.AdmissionSkips - s0.AdmissionSkips), "count"}
	m["engine.probe_batches"] = metric{float64(s1.ProbeBatches - s0.ProbeBatches), "count"}
	b50, b95 := p50p95(beginUS)
	c50, c95 := p50p95(commitUS)
	m["engine.begin_us_p50"], m["engine.begin_us_p95"] = metric{b50, "us"}, metric{b95, "us"}
	m["engine.commit_us_p50"], m["engine.commit_us_p95"] = metric{c50, "us"}, metric{c95, "us"}
	m["exec.saturated"] = metric{float64(s1.Saturated - s0.Saturated), "count"}

	m["skyband.filter_us_p50"] = metric{usOf(filterUS), "us"}
	m["skyband.filter_share"] = metric{ratio(filterSum, wallComputed), "frac"}
	m["skyband.filter_share_utk1"] = metric{ratio(filterSum1, wallComputed1), "frac"}
	m["skyband.candidates_per_query"] = metric{ratio(cands, nComputed), "count"}
	m["skyband.superset_size"] = metric{float64(s1.SupersetSize), "count"}
	bandMS := float64(s1.BandMaintenanceNS-s0.BandMaintenanceNS) / 1e6
	m["skyband.band_maint_ms_total"] = metric{bandMS, "ms"}
	m["skyband.band_maint_share"] = metric{bandMS / ms(ph.wall), "frac"}
	m["skyband.repairs"] = metric{float64(s1.Repairs - s0.Repairs), "count"}
	m["skyband.repair_steps"] = metric{float64(s1.RepairSteps - s0.RepairSteps), "count"}
	m["skyband.exhaustions"] = metric{float64(s1.Exhaustions - s0.Exhaustions), "count"}
	m["skyband.rebuilds"] = metric{float64(s1.Rebuilds - s0.Rebuilds), "count"}

	m["core.refine_us_p50_utk1"] = metric{usOf(refine1), "us"}
	m["core.refine_us_p50_utk2"] = metric{usOf(refine2), "us"}
	m["core.refine_share"] = metric{ratio(refineSum, wallComputed), "frac"}
	if err := directLayers(a.records, r.seq, m); err != nil {
		fmt.Fprintf(logw, "  WARNING: direct layer calls: %v\n", err)
	}
	m["skyband.warm_over_cold"] = metric{ratio(m["skyband.filter_us_p50"].Value, m["skyband.cold_filter_us_p50"].Value), "frac"}

	a50, a95 := p50p95(appendUS)
	m["store.append_us_p50"], m["store.append_us_p95"] = metric{a50, "us"}, metric{a95, "us"}
	updates := float64(len(self[opUpdate]))
	m["store.wal_bytes_per_op"] = metric{ratio(float64(ph.dur1.WALBytes-ph.dur0.WALBytes), updates), "bytes"}
	m["store.snapshot_bytes"], m["store.reopen_ms"] = metric{0, "bytes"}, metric{0, "ms"}
	if a.file != nil {
		if fi, err := os.Stat(filepath.Join(a.dir, "datasets", datasetName, "snapshot.snap")); err == nil {
			m["store.snapshot_bytes"] = metric{float64(fi.Size()), "bytes"}
		}
		t0 := time.Now()
		if err := a.reopen(); err != nil {
			fmt.Fprintf(logw, "  WARNING: reopen: %v\n", err)
		}
		m["store.reopen_ms"] = metric{ms(time.Since(t0)), "ms"}
	}

	var gen, bulk, build, warm []float64
	for _, t := range r.setups {
		gen, bulk, build, warm = append(gen, t.genMS), append(bulk, t.bulkloadMS), append(build, t.buildMS), append(warm, t.warmupMS)
	}
	m["dataset.gen_ms"] = metric{median(gen), "ms"}
	m["rtree.bulkload_ms"] = metric{median(bulk), "ms"}
	m["engine.build_ms"] = metric{median(build), "ms"}
	m["bench.warmup_ms"] = metric{median(warm), "ms"}

	m["go.alloc_bytes_per_op"] = metric{float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc) / nOps, "bytes"}
	m["go.allocs_per_op"] = metric{float64(ph.mem1.Mallocs-ph.mem0.Mallocs) / nOps, "count"}
	m["go.gc_cycles"] = metric{float64(ph.mem1.NumGC - ph.mem0.NumGC), "count"}
	m["go.gc_pause_ms_total"] = metric{float64(ph.mem1.PauseTotalNs-ph.mem0.PauseTotalNs) / 1e6, "ms"}

	m["bench.calib_ms_before"] = metric{ms(ph.calibBefore), "ms"}
	m["bench.calib_ms_after"] = metric{ms(ph.calibAfter), "ms"}
	untraced := 0.0
	for _, v := range ph.lat {
		untraced += float64(v)
	}
	m["bench.trace_overhead_frac"] = metric{tracedWall/untraced - 1, "frac"}
	m["bench.ops_per_s"] = metric{nOps / ph.wall.Seconds(), "1/s"}
	lat := r.byKind(r.lat)
	m["bench.utk1_p95_us"] = metric{pctUS(lat[opUTK1], 0.95), "us"}
	m["bench.utk2_p95_us"] = metric{pctUS(lat[opUTK2], 0.95), "us"}
	m["bench.update_p99_us"] = metric{pctUS(lat[opUpdate], 0.99), "us"}
	m["bench.layer_sum_err_frac"] = metric{math.Abs(parts/tracedWall - 1), "frac"}
	m["bench.twin_divergence"] = metric{float64(diverged), "count"}
	m["bench.layer_checks_failed"] = metric{float64(layerChecks(r.sp.name, m, logw)), "count"}
	return m
}

// layerChecks asserts that the layers separate as the workloads were designed
// to make them (README.md, "Layer shares"); it returns the number of failed
// assertions and logs each.
func layerChecks(workload string, m map[string]metric, logw io.Writer) int {
	type check struct {
		name string
		ok   bool
	}
	v := func(name string) float64 { return m[name].Value }
	checks := []check{{"per-layer self times sum to within 10 % of the traced wall", v("bench.layer_sum_err_frac") <= 0.10}}
	switch workload {
	case "refine_miss":
		checks = append(checks,
			check{"core.refine_share >= 0.8", v("core.refine_share") >= 0.8},
			check{"engine.hit_frac == 0", v("engine.hit_frac") == 0})
	case "filter_anti":
		checks = append(checks,
			check{"skyband.filter_share_utk1 >= 0.7", v("skyband.filter_share_utk1") >= 0.7},
			check{"engine.hit_frac == 0", v("engine.hit_frac") == 0})
	case "reuse_hot":
		checks = append(checks, check{"engine.hit_frac + engine.derived_frac >= 0.95", v("engine.hit_frac")+v("engine.derived_frac") >= 0.95})
	case "update_mix":
		checks = append(checks, check{"skyband.band_maint_share >= 0.5", v("skyband.band_maint_share") >= 0.5})
	}
	failed := 0
	for _, c := range checks {
		if !c.ok {
			failed++
			fmt.Fprintf(logw, "  LAYER CHECK FAILED: %s\n", c.name)
		}
	}
	return failed
}
