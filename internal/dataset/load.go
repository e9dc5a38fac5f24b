package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// surrogates maps each real-dataset name to its record width and generator.
var surrogates = map[string]struct {
	width int
	gen   func(n int, seed int64) [][]float64
}{
	"HOTEL": {4, Hotel},
	"HOUSE": {6, House},
	"NBA":   {8, NBA},
}

// Width returns the record width Generate(name, n, d, seed) produces: 4 for
// HOTEL, 6 for HOUSE, 8 for NBA, and d for a synthetic kind. It rejects a
// name Generate would reject, so a caller can size a request before
// generating it.
func Width(name string, d int) (int, error) {
	if s, ok := surrogates[name]; ok {
		return s.width, nil
	}
	if _, err := ParseKind(name); err != nil {
		return 0, err
	}
	return d, nil
}

// Generate returns n records of the named dataset: a surrogate real dataset
// (HOTEL, HOUSE, NBA; d is ignored) or a synthetic kind (IND, COR, ANTI) of
// width d.
func Generate(name string, n, d int, seed int64) ([][]float64, error) {
	if s, ok := surrogates[name]; ok {
		return s.gen(n, seed), nil
	}
	kind, err := ParseKind(name)
	if err != nil {
		return nil, err
	}
	return Synthetic(kind, n, d, seed), nil
}

// Load returns the records the commands' -data/-gen flag pair selects: the
// CSV file at path when it is set, else Generate(gen, n, d, seed).
func Load(path, gen string, n, d int, seed int64) ([][]float64, error) {
	switch {
	case path != "":
		return ReadCSV(path)
	case gen == "":
		return nil, errors.New("provide -data or -gen")
	}
	return Generate(gen, n, d, seed)
}

// ReadCSV reads one record per line, numeric fields only, skipping blank
// lines and lines starting with #.
func ReadCSV(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out [][]float64
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		rec := make([]float64, len(fields))
		for i, fld := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(fld), 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, line, err)
			}
			rec[i] = v
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}
