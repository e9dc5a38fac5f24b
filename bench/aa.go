package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the contract the driver reads: workloads, metrics, bounds.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// child runs one workload in a fresh process (peak RSS is per process) and
// decodes the result line. The child's log goes to logw.
func child(workload string, seed int64, seconds, trace int, logw io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = logw
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}

// runAll runs every workload once, one process each, and prints one result
// line per workload.
func runAll(seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	code := 0
	for i := range specs {
		res, err := child(specs[i].name, seed, seconds, trace, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			code = 1
			continue
		}
		line, _ := json.Marshal(struct {
			Workload string `json:"workload"`
			*result
		}{specs[i].name, res})
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (exclusive
// method), which is what the driver uses.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)+1)
		j := int(pos)
		frac := pos - float64(j)
		j = min(max(j, 1), len(s)-1)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// runAA runs the suite as two interleaved sets (A1 B1 A2 B2 ...) of n runs
// per workload, run i of both sets on seed i, and compares them the way the
// driver does: the spread of each set (interquartile range over median) and
// the shift of set B's median against set A's, both against the metric's
// bound in BENCHMARK.json. It exits non-zero on any breach.
func runAA(n, seconds int, stdout, stderr io.Writer) int {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: -aa runs from the repository root: %v\n", err)
		return 2
	}
	breaches := 0
	fmt.Fprintf(stdout, "| workload | metric | median A | median B | IQR/median A | IQR/median B | B vs A | bound | verdict |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range bf.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 1; i <= n; i++ {
			for s := range sets {
				res, err := child(w.Name, int64(i), seconds, 0, io.Discard)
				if err != nil || !res.Correct {
					fmt.Fprintf(stderr, "bench: %s seed %d failed: %v\n", w.Name, i, err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
				fmt.Fprintf(stderr, "%s set %c run %d/%d done\n", w.Name, 'A'+s, i, n)
			}
		}
		for _, decl := range bf.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][decl.Name])
			b1, b2, b3 := quartiles(sets[1][decl.Name])
			shift := b2/a2 - 1 // positive = worse for "lower"
			if decl.Better == "higher" {
				shift = -shift
			}
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			verdict := "ok"
			if shift > decl.Bound || (decl.Name != "setup_s" && (spreadA > decl.Bound || spreadB > decl.Bound)) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4g | %.4g | %.1f %% | %.1f %% | %+.1f %% | %.0f %% | %s |\n",
				w.Name, decl.Name, a2, b2, 100*spreadA, 100*spreadB, 100*shift, 100*decl.Bound, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stderr, "bench: %d metric(s) outside their bound\n", breaches)
		return 1
	}
	return 0
}
