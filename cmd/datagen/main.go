// Command datagen emits benchmark datasets as CSV on stdout: the standard
// synthetic preference-query distributions (IND, COR, ANTI) and the
// surrogate real datasets (HOTEL, HOUSE, NBA).
//
//	datagen -kind ANTI -n 100000 -d 4 > anti.csv
//	datagen -kind NBA -n 21960 > nba.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/dataset"
)

func main() {
	var (
		kind = flag.String("kind", "IND", "IND, COR, ANTI, HOTEL, HOUSE, or NBA")
		n    = flag.Int("n", 100000, "number of records")
		d    = flag.Int("d", 4, "dimensionality (synthetic kinds only)")
		seed = flag.Int64("seed", 1, "generation seed")
	)
	flag.Parse()

	data, err := dataset.Generate(*kind, *n, *d, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, rec := range data {
		for i, v := range rec {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		w.WriteByte('\n')
	}
}
