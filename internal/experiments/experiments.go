// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7). Each experiment is addressed by the paper's figure
// number (e.g., "11a") and prints an aligned text table with the same rows
// and series the paper plots; cmd/utkbench is the CLI front end and
// bench_test.go exposes one testing.B benchmark per figure.
//
// Experiments run at two scales: the default "quick" scale (reduced dataset
// cardinality and queries per point) finishes the full suite in minutes,
// while Config.Paper switches to the paper's Table 1 parameters (up to 1.6M
// records, 50 queries per point). Reported values are averages over randomly
// placed query hyper-cubes, exactly as in the paper.
package experiments

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/rtree"
)

// Config controls an experiment run.
type Config struct {
	// Paper switches to full paper-scale parameters (Table 1 defaults and
	// sweeps, 50 queries per point).
	Paper bool
	// Queries overrides the number of random query regions averaged per
	// measurement point (0 = 5 quick / 50 paper).
	Queries int
	// Seed drives dataset generation and query placement.
	Seed int64
	// Out receives the table output (default os.Stdout).
	Out io.Writer
	// CustomN overrides the default dataset cardinality (and shrinks the
	// cardinality sweep proportionally). Intended for smoke tests and quick
	// exploration; 0 keeps the scale defaults.
	CustomN int
}

func (c Config) queries() int {
	if c.Queries > 0 {
		return c.Queries
	}
	if c.Paper {
		return 50
	}
	return 5
}

func (c Config) out() io.Writer {
	if c.Out != nil {
		return c.Out
	}
	return os.Stdout
}

func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 2018
}

// Table 1 defaults (bold values).
const (
	DefaultD     = 4
	DefaultK     = 10
	DefaultSigma = 0.01 // R side-length: 1% of the axis
)

// DefaultN returns the default dataset cardinality at the given scale.
func (c Config) DefaultN() int {
	if c.CustomN > 0 {
		return c.CustomN
	}
	if c.Paper {
		return 400000
	}
	return 100000
}

// experiment is a registered figure/table reproduction.
type experiment struct {
	name  string
	about string
	run   func(Config) error
}

var registry []experiment

func register(name, about string, run func(Config) error) {
	registry = append(registry, experiment{name, about, run})
}

// orderKey sorts experiments in the paper's presentation order: figures by
// number then letter, then the named extras.
func orderKey(name string) (int, string) {
	num := 0
	i := 0
	for i < len(name) && name[i] >= '0' && name[i] <= '9' {
		num = num*10 + int(name[i]-'0')
		i++
	}
	if i == 0 {
		return 1000, name // non-figure experiments last
	}
	return num, name[i:]
}

func sortedRegistry() []experiment {
	out := append([]experiment(nil), registry...)
	sort.Slice(out, func(a, b int) bool {
		an, as := orderKey(out[a].name)
		bn, bs := orderKey(out[b].name)
		if an != bn {
			return an < bn
		}
		return as < bs
	})
	return out
}

// Names returns the registered experiment names with descriptions, in
// presentation order.
func Names() []string {
	reg := sortedRegistry()
	out := make([]string, len(reg))
	for i, e := range reg {
		out[i] = fmt.Sprintf("%-7s %s", e.name, e.about)
	}
	return out
}

// Run executes the named experiment ("9", "10a", ..., "16b", "table1",
// "all").
func Run(name string, cfg Config) error {
	if name == "all" {
		for _, e := range sortedRegistry() {
			if err := e.run(cfg); err != nil {
				return fmt.Errorf("experiment %s: %w", e.name, err)
			}
			fmt.Fprintln(cfg.out())
		}
		return nil
	}
	for _, e := range registry {
		if e.name == name {
			return e.run(cfg)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q (use -list)", name)
}

// --- dataset and index caching -------------------------------------------

type dataKey struct {
	kind string
	n, d int
	seed int64
}

var (
	cacheMu sync.Mutex
	cache   = map[dataKey]*indexed{}
)

type indexed struct {
	data [][]float64
	tree *rtree.Tree
}

// synthetic returns (building and caching on first use) an indexed synthetic
// dataset.
func synthetic(kind dataset.Kind, n, d int, seed int64) *indexed {
	return cached(dataKey{kind.String(), n, d, seed}, func() [][]float64 {
		return dataset.Synthetic(kind, n, d, seed)
	})
}

// real returns an indexed surrogate real dataset ("HOTEL", "HOUSE", "NBA").
func real(name string, n int, seed int64) *indexed {
	return cached(dataKey{name, n, 0, seed}, func() [][]float64 {
		switch name {
		case "HOTEL":
			return dataset.Hotel(n, seed)
		case "HOUSE":
			return dataset.House(n, seed)
		case "NBA":
			return dataset.NBA(n, seed)
		}
		panic("experiments: unknown real dataset " + name)
	})
}

func cached(key dataKey, gen func() [][]float64) *indexed {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if idx, ok := cache[key]; ok {
		return idx
	}
	data := gen()
	tree, err := rtree.BulkLoad(data, rtree.DefaultFanout)
	if err != nil {
		panic(fmt.Sprintf("experiments: bulk load %v: %v", key, err))
	}
	idx := &indexed{data: data, tree: tree}
	cache[key] = idx
	return idx
}

// DropCaches releases all cached datasets (used between memory-sensitive
// benchmark runs).
func DropCaches() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	cache = map[dataKey]*indexed{}
}

// --- measurement helpers --------------------------------------------------

// measurement aggregates per-query metrics.
type measurement struct {
	sum   map[string]float64
	count int
}

func newMeasurement() *measurement {
	return &measurement{sum: map[string]float64{}}
}

func (m *measurement) add(metric string, v float64) { m.sum[metric] += v }

func (m *measurement) avg(metric string) float64 {
	if m.count == 0 {
		return 0
	}
	return m.sum[metric] / float64(m.count)
}

// timer measures one query run.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// table prints an aligned text table.
type table struct {
	w      io.Writer
	header []string
	rows   [][]string
}

func newTable(w io.Writer, header ...string) *table {
	return &table{w: w, header: header}
}

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) flush() {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(t.w, "%-*s", widths[i]+2, c)
		}
		fmt.Fprintln(t.w)
	}
	line(t.header)
	for _, r := range t.rows {
		line(r)
	}
}

func ms(d time.Duration) string                      { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }
func msf(v float64) string                           { return fmt.Sprintf("%.2f", v) }
func count(v float64) string                         { return fmt.Sprintf("%.1f", v) }
func mb(bytes float64) string                        { return fmt.Sprintf("%.3f", bytes/(1024*1024)) }
func header(w io.Writer, f string, a ...interface{}) { fmt.Fprintf(w, f+"\n", a...) }

// sortedCopy returns a sorted copy of ids (presentation helper).
func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}
