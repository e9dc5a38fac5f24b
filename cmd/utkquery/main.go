// Command utkquery runs a single UTK query against a CSV dataset or a
// generated benchmark dataset and prints the result.
//
//	utkquery -data hotels.csv -k 5 -region 0.2,0.2:0.4,0.4
//	utkquery -gen IND -n 100000 -d 4 -k 10 -region 0.2,0.2,0.2:0.21,0.21,0.21 -mode utk2
//
// The region is given as lo1,...,loD:hi1,...,hiD in the reduced preference
// domain (one fewer coordinate than the data dimensionality). CSV input is
// one record per line, numeric fields only; higher values are better in
// every column.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/dataset"
)

func main() {
	var (
		dataPath = flag.String("data", "", "CSV file of numeric records (one per line)")
		gen      = flag.String("gen", "", "generate a dataset instead: IND, COR, ANTI, HOTEL, HOUSE, NBA")
		n        = flag.Int("n", 100000, "generated dataset cardinality")
		d        = flag.Int("d", 4, "generated dataset dimensionality (synthetic kinds only)")
		seed     = flag.Int64("seed", 1, "generation seed")
		k        = flag.Int("k", 10, "top-k depth")
		region   = flag.String("region", "", "query box lo1,..:hi1,.. in the reduced preference domain")
		mode     = flag.String("mode", "utk1", "utk1, utk2, or reverse")
		focal    = flag.Int("id", 0, "focal record id for -mode reverse")
		algo     = flag.String("algo", "rsa", "rsa, sk, or on (baselines support utk1 only)")
	)
	flag.Parse()

	records, err := dataset.Load(*dataPath, *gen, *n, *d, *seed)
	if err != nil {
		fail(err)
	}
	ds, err := utk.NewDataset(records)
	if err != nil {
		fail(err)
	}
	reg, err := parseRegion(*region, ds.Dim()-1)
	if err != nil {
		fail(err)
	}
	q := utk.Query{K: *k, Region: reg}
	switch *algo {
	case "rsa":
	case "sk":
		q.Algorithm = utk.AlgoBaselineSK
	case "on":
		q.Algorithm = utk.AlgoBaselineON
	default:
		fail(fmt.Errorf("unknown algorithm %q", *algo))
	}

	start := time.Now()
	switch *mode {
	case "utk1":
		res, err := ds.UTK1(q)
		if err != nil {
			fail(err)
		}
		fmt.Printf("UTK1: %d records may enter the top-%d for weights in R (%.2f ms, %d candidates)\n",
			len(res.Records), *k, float64(time.Since(start).Microseconds())/1000, res.Stats.Candidates)
		for _, id := range res.Records {
			fmt.Printf("  #%d %v\n", id, ds.Record(id))
		}
	case "utk2":
		res, err := ds.UTK2(q)
		if err != nil {
			fail(err)
		}
		fmt.Printf("UTK2: %d partitions, %d distinct top-%d sets (%.2f ms, %d candidates)\n",
			len(res.Cells), res.Stats.UniqueTopKSets, *k,
			float64(time.Since(start).Microseconds())/1000, res.Stats.Candidates)
		for i, c := range res.Cells {
			fmt.Printf("  cell %d around %v: top-%d = %v\n", i, round(c.Interior), *k, c.TopK)
		}
	case "reverse":
		cells, err := ds.ReverseTopK(*focal, reg, *k)
		if err != nil {
			fail(err)
		}
		fmt.Printf("reverse top-%d of record #%d: qualifies in %d sub-regions (%.2f ms)\n",
			*k, *focal, len(cells), float64(time.Since(start).Microseconds())/1000)
		for i, c := range cells {
			fmt.Printf("  region %d around %v: rank %d\n", i, round(c.Interior), len(c.Above)+1)
		}
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
}

func parseRegion(s string, dim int) (*utk.Region, error) {
	if s == "" {
		return nil, fmt.Errorf("provide -region lo1,..:hi1,..")
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return nil, fmt.Errorf("region must be lo1,..:hi1,..")
	}
	parse := func(p string) ([]float64, error) {
		fields := strings.Split(p, ",")
		if len(fields) != dim {
			return nil, fmt.Errorf("region needs %d coordinates per corner, got %d", dim, len(fields))
		}
		out := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	lo, err := parse(parts[0])
	if err != nil {
		return nil, err
	}
	hi, err := parse(parts[1])
	if err != nil {
		return nil, err
	}
	return utk.NewBoxRegion(lo, hi)
}

func round(w []float64) []float64 {
	out := make([]float64, len(w))
	for i, v := range w {
		out[i] = float64(int(v*1000+0.5)) / 1000
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "utkquery:", err)
	os.Exit(1)
}
