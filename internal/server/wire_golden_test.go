package server

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire_golden.txt from the running server")

// TestWireFormatGolden pins what monitoring clients parse: the exact key set
// of /stats/{dataset} and of the fleet /stats (nested keys dotted), and every
// "# HELP", "# TYPE" and series-name line of /metrics in order, values
// stripped. A new counter shows up here as a reviewed golden diff
// (go test ./internal/server -run TestWireFormatGolden -update).
func TestWireFormatGolden(t *testing.T) {
	_, srv := fixture(t, "alpha", "beta") // beta is sharded
	var got bytes.Buffer
	for _, path := range []string{"/stats/alpha", "/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		flattenKeys("", decode(t, resp), &keys)
		sort.Strings(keys)
		got.WriteString("== GET " + path + "\n" + strings.Join(keys, "\n") + "\n")
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString("== GET /metrics\n")
	for _, line := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')] // drop the sample value
		}
		got.WriteString(line + "\n")
	}

	const golden = "testdata/wire_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("wire format drifted from %s; got:\n%s", golden, got.Bytes())
	}
}

func flattenKeys(prefix string, m map[string]any, out *[]string) {
	for k, v := range m {
		if sub, ok := v.(map[string]any); ok {
			flattenKeys(prefix+k+".", sub, out)
		} else {
			*out = append(*out, prefix+k)
		}
	}
}
