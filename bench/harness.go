package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	utk "repro"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/store"
)

// instance is one fully built serving stack.
type instance struct {
	records [][]float64
	reg     *registry.Registry
	ent     *registry.Entry
	handler http.Handler
	file    *store.File // nil over the in-memory store
	dir     string
}

// close releases the file store and removes its directory.
func (in *instance) close() {
	if in.file != nil {
		in.file.Close()
		in.file = nil
	}
	if in.dir != "" {
		os.RemoveAll(in.dir)
		in.dir = ""
	}
}

// setupTiming splits one set-up by layer (milliseconds).
type setupTiming struct {
	genMS, bulkloadMS, buildMS, warmupMS float64
}

func (t setupTiming) seconds() float64 {
	return (t.genMS + t.bulkloadMS + t.buildMS + t.warmupMS) / 1e3
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tmpRoot is where durable workloads keep their store directories (inside the
// checkout, next to the build output); outDir receives trace.json. Both are
// created on demand.
var (
	tmpRoot = ".bench_build"
	outDir  = filepath.Join("bench", "out")
)

// build generates the dataset and builds registry + server over it; the
// caller replays the warm-up prefix to finish set-up.
func (sp *spec) build(sc scale) (*instance, setupTiming, error) {
	var t setupTiming
	in := &instance{}
	t0 := time.Now()
	in.records = dataset.Synthetic(sp.kind, sc.n, dataDim, fixtureSeed)
	t.genMS = ms(time.Since(t0))

	// The stateless dataset is built for its cost only: it is the R-tree
	// bulk load a library user pays before any engine exists.
	t0 = time.Now()
	if _, err := utk.NewDataset(in.records); err != nil {
		return nil, t, err
	}
	t.bulkloadMS = ms(time.Since(t0))

	t0 = time.Now()
	var err error
	if sp.durable {
		if err = os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, t, err
		}
		if in.dir, err = os.MkdirTemp(tmpRoot, "store-"); err != nil {
			return nil, t, err
		}
		if in.file, err = store.OpenFile(in.dir, store.FileConfig{Sync: store.SyncAlways}); err != nil {
			in.close()
			return nil, t, err
		}
		in.reg = registry.NewWithStore(in.file, registry.SnapshotPolicy{})
	} else {
		in.reg = registry.New()
	}
	in.ent, err = in.reg.Create(datasetName, in.records, sp.options())
	if err != nil {
		in.close()
		return nil, t, err
	}
	in.handler = server.New(in.reg, server.Config{})
	t.buildMS = ms(time.Since(t0))
	return in, t, nil
}

func (sp *spec) options() registry.Options {
	return registry.Options{MaxK: maxK, CacheEntries: sp.cacheEntries, Workers: workers}
}

// client is the single closed-loop client: one reusable request per op kind
// and one reusable response writer, so the timed path allocates nothing beyond
// the handler's own work.
type client struct {
	reqs [numKinds]*http.Request
	body bodyReader
	w    respWriter
}

func newClient() *client {
	c := &client{}
	for k := opKind(0); k < numKinds; k++ {
		req, err := http.NewRequest(http.MethodPost, "/"+kindNames[k]+"/"+datasetName, nil)
		if err != nil {
			panic(err)
		}
		c.reqs[k] = req
	}
	c.w.hdr = make(http.Header, 4)
	return c
}

// do sends one op through the handler and returns its wall time and status.
func (c *client) do(h http.Handler, o *op) (time.Duration, int) {
	c.body.Reset(o.body)
	req := c.reqs[o.kind]
	req.Body = &c.body
	c.w.reset()
	t0 := time.Now()
	h.ServeHTTP(&c.w, req)
	return time.Since(t0), c.w.status
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// respWriter counts response bytes; with capture set it also keeps the body
// (traced run and correctness pass only).
type respWriter struct {
	hdr     http.Header
	status  int
	n       int
	capture *bytes.Buffer
}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.status = http.StatusOK
	w.n = 0
	if w.capture != nil {
		w.capture.Reset()
	}
}
func (w *respWriter) Header() http.Header  { return w.hdr }
func (w *respWriter) WriteHeader(code int) { w.status = code }
func (w *respWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.capture != nil {
		w.capture.Write(p)
	}
	return len(p), nil
}

// replay sends ops in order from the one client. lat, when non-nil, receives
// every op's wall time in nanoseconds (index-aligned with ops). It returns the
// count of non-2xx responses and the response bytes.
func (c *client) replay(h http.Handler, ops []op, lat []int64) (failed int, respBytes int64) {
	for i := range ops {
		d, status := c.do(h, &ops[i])
		if lat != nil {
			lat[i] = int64(d)
		}
		if status < 200 || status > 299 {
			failed++
		}
		respBytes += int64(c.w.n)
	}
	return failed, respBytes
}

// calibrate times the noise sentinel: a fixed pure-Go kernel of float64 dot
// products, the fastest of three ~70 ms passes (~200 ms in all on the reference
// box). Taking the fastest pass ignores a blip that hits the sentinel itself;
// a neighbour's sustained burst slows all three, so before/after readings
// that disagree mean the machine changed speed across the replay.
func calibrate() time.Duration {
	const n, passes = 4096, 3
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i%97) * 0.25
		b[i] = float64(i%89) * 0.5
	}
	best := time.Duration(0)
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		sum := 0.0
		for r := 0; r < sentinelRounds; r++ {
			s := 0.0
			for i := range a {
				s += a[i] * b[i]
			}
			sum += s
		}
		d := time.Since(t0)
		calibSink += sum
		if p == 0 || d < best {
			best = d
		}
	}
	return best
}

// sentinelRounds sizes one sentinel pass (~70 ms on the reference box).
var sentinelRounds = 23000

var calibSink float64

// phase is the outcome of one measured replay.
type phase struct {
	lat         []int64 // per measured op, nanoseconds
	wall        time.Duration
	failed      int
	respBytes   int64
	calibBefore time.Duration
	calibAfter  time.Duration
	mem0, mem1  runtime.MemStats
	peakRSSMB   float64
	stats0      utk.EngineStats
	stats1      utk.EngineStats
	dur0, dur1  registry.DurabilityStats
}

// noisy reports whether the sentinel readings around the phase disagree by
// more than 5 %.
func (p *phase) noisy() bool {
	lo, hi := p.calibBefore, p.calibAfter
	if lo > hi {
		lo, hi = hi, lo
	}
	return float64(hi-lo) > 0.05*float64(lo)
}

// measure replays the measured phase on a warmed instance.
func measure(in *instance, seq *sequence) *phase {
	ops := seq.measured()
	p := &phase{lat: make([]int64, len(ops))}
	c := newClient()
	p.calibBefore = calibrate()
	p.stats0 = in.ent.Engine.Stats()
	p.dur0 = in.ent.Durability(in.reg.Durable())
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	t0 := time.Now()
	p.failed, p.respBytes = c.replay(in.handler, ops, p.lat)
	p.wall = time.Since(t0)
	runtime.ReadMemStats(&p.mem1)
	p.peakRSSMB = peakRSSMB()
	p.stats1 = in.ent.Engine.Stats()
	p.dur1 = in.ent.Durability(in.reg.Durable())
	p.calibAfter = calibrate()
	return p
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runResult is everything one untraced run produces.
type runResult struct {
	sp     *spec
	seed   int64
	sc     scale
	seq    *sequence
	in     *instance // the last replica's instance, still open
	setups []setupTiming
	phases []*phase // the accepted replays, one per replica
	lat    []int64  // per measured op: the minimum over the replicas
	reruns int
	// checked and bad count the correctness pass's comparisons and, in bad,
	// its mismatches plus every non-2xx response of the accepted replays.
	checked int
	bad     int
}

// maxReruns bounds how many noisy replays (see phase.noisy) a run discards
// and repeats; rerunBudget stops repeating once the process has run this
// long, so a persistently noisy box cannot blow the driver's time cap.
const (
	maxReruns   = 2
	rerunBudget = 20 * time.Second
)

var processStart = time.Now()

// prepare builds one instance and replays the warm-up prefix (part of
// set-up).
func (r *runResult) prepare(logw io.Writer) (*instance, error) {
	in, t, err := r.sp.build(r.sc)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	failed, _ := newClient().replay(in.handler, r.seq.ops[:r.seq.warm], nil)
	t.warmupMS = ms(time.Since(t0))
	if failed > 0 {
		in.close()
		return nil, fmt.Errorf("%s: %d warm-up ops failed", r.sp.name, failed)
	}
	r.setups = append(r.setups, t)
	fmt.Fprintf(logw, "  set-up %d: gen %.0f ms, bulkload %.0f ms, build %.0f ms, warm-up %.0f ms\n",
		len(r.setups), t.genMS, t.bulkloadMS, t.buildMS, t.warmupMS)
	return in, nil
}

// run executes one untraced run of the workload. The whole stack is built
// `replicas` times, one after another; setup_s is the median build. The
// measured sequence is replayed once on every instance, and an op's latency
// is the minimum of its three executions: all replicas do identical work, so
// what differs between them is interference (a neighbour's burst, a GC cycle
// landing on that op), which only ever adds time. The median of three was
// tried and is not enough: on the allocation-heavy workloads a GC cycle
// overlaps the same 0.4 ms update in two replicas often enough to spread its
// p95 by 80 %. The minimum needs the program's own stalls to land on the same
// op in every replica; update_mix is sized so that they do (see README.md).
// A replay whose noise sentinel moved by more than 5 % is discarded and
// repeated on a fresh instance. The correctness pass runs on the last
// instance; the caller closes r.in.
func (sp *spec) run(seed int64, sc scale, logw io.Writer) (*runResult, error) {
	r := &runResult{sp: sp, seed: seed, sc: sc, seq: sp.buildSequence(seed, sc)}
	for len(r.phases) < replicas {
		if r.in != nil {
			r.in.close()
			r.in = nil
			runtime.GC()
		}
		in, err := r.prepare(logw)
		if err != nil {
			return nil, err
		}
		r.in = in
		ph := measure(in, r.seq)
		fmt.Fprintf(logw, "  replay %d: %d ops in %.2f s (sentinel %.1f -> %.1f ms)\n",
			len(r.phases)+1, len(ph.lat), ph.wall.Seconds(), ms(ph.calibBefore), ms(ph.calibAfter))
		if ph.noisy() && r.reruns < maxReruns && time.Since(processStart) < rerunBudget {
			r.reruns++
			fmt.Fprintf(logw, "  noise sentinel moved > 5 %%: replay discarded, repeating (%d/%d)\n", r.reruns, maxReruns)
			continue
		}
		r.phases = append(r.phases, ph)
		r.bad += ph.failed
	}
	r.lat = slices.Clone(r.phases[0].lat)
	for _, ph := range r.phases[1:] {
		for i, v := range ph.lat {
			r.lat[i] = min(r.lat[i], v)
		}
	}
	checked, bad := checkAnswers(r, logw)
	r.checked, r.bad = checked, r.bad+bad
	return r, nil
}

// percentile returns the p-quantile (0..1) of sorted values by the
// nearest-rank rule.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// pctUS is percentile in microseconds.
func pctUS(sorted []int64, p float64) float64 { return float64(percentile(sorted, p)) / 1e3 }

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// byKind splits per-op latencies by op kind, sorted ascending.
func (r *runResult) byKind(lat []int64) [numKinds][]int64 {
	var out [numKinds][]int64
	for i, o := range r.seq.measured() {
		out[o.kind] = append(out[o.kind], lat[i])
	}
	for k := range out {
		slices.Sort(out[k])
	}
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the user-visible metrics of an untraced run.
func (r *runResult) endToEnd() map[string]metric {
	lat := r.byKind(r.lat)
	setups := make([]float64, len(r.setups))
	for i, t := range r.setups {
		setups[i] = t.seconds()
	}
	return map[string]metric{
		"setup_s":       {median(setups), "s"},
		"utk1_p50_us":   {pctUS(lat[opUTK1], 0.50), "us"},
		"utk2_p50_us":   {pctUS(lat[opUTK2], 0.50), "us"},
		"update_p50_us": {pctUS(lat[opUpdate], 0.50), "us"},
		"update_p95_us": {pctUS(lat[opUpdate], 0.95), "us"},
		"peak_rss_mb":   {r.phases[len(r.phases)-1].peakRSSMB, "MB"},
	}
}
