package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

// timingField matches the two wall-clock stats, the only response bytes that
// differ between identical runs.
var timingField = regexp.MustCompile(`"(filter_ms|refine_ms)":[-0-9.eE+]+`)

// TestQueryResponseGolden pins the exact bodies (status, Content-Type and
// every byte, timings masked) of the hot routes on the fixture: /utk1 miss,
// hit and derived answers, box and polytope /utk2, /update with and without
// deletes, and hits served from an entry's memo. Any drift in key order,
// float formatting, null-vs-empty slices or the trailing newline shows up as
// a golden diff
// (go test ./internal/server -run TestQueryResponseGolden -update).
func TestQueryResponseGolden(t *testing.T) {
	_, srv := fixture(t, "alpha")
	box := `"region":{"lo":[0.2,0.2],"hi":[0.25,0.25]}`
	requests := []struct{ path, body string }{
		{"/utk1/alpha", `{"k":3,` + box + `}`},
		{"/utk1/alpha", `{"k":3,` + box + `}`},
		{"/utk2/alpha", `{"k":3,` + box + `}`},
		{"/utk1/alpha", `{"k":3,"region":{"lo":[0.21,0.21],"hi":[0.24,0.24]}}`},
		{"/utk2/alpha", `{"k":2,"halfspaces":[{"coef":[1,0],"offset":0.1},{"coef":[-1,0],"offset":-0.3},{"coef":[0,1],"offset":0.1},{"coef":[-1,-1],"offset":-0.5}]}`},
		{"/update/alpha", `{"delete":[3,17],"insert":[[0.5,0.5,0.5],[0.99,0.98,0.97]]}`},
		{"/update/alpha", `{"delete":[],"insert":[[0.1,0.2,0.3]]}`},
		{"/update/alpha", `{"insert":[[0.2,0.2,0.2]]}`},
		{"/update/alpha", `{"delete":[5]}`},
		{"/utk1/alpha", `{"k":3,` + box + `}`},
		{"/utk2/alpha", `{"k":1,"region":{"lo":[0.0000001,0.3],"hi":[0.05,0.35]}}`},
		// The box's entries after the updates: a UTK1 hit that encodes its
		// answer and fills the entry's memo, then one copied from the memo;
		// the UTK2 entry, which the updates invalidated, is recomputed and
		// then hit the same two ways.
		{"/utk1/alpha", `{"k":3,` + box + `}`},
		{"/utk1/alpha", `{"k":3,` + box + `}`},
		{"/utk2/alpha", `{"k":3,` + box + `}`},
		{"/utk2/alpha", `{"k":3,` + box + `}`},
		{"/utk2/alpha", `{"k":3,` + box + `}`},
	}
	var got bytes.Buffer
	for _, rq := range requests {
		resp, err := http.Post(srv.URL+rq.path, "application/json", strings.NewReader(rq.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== POST %s %s\n%d %s\n", rq.path, rq.body, resp.StatusCode, resp.Header.Get("Content-Type"))
		got.Write(timingField.ReplaceAll(body, []byte(`"$1":T`)))
	}

	const golden = "testdata/query_golden.txt"
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
		t.Fatalf("query responses drifted from %s; got:\n%s", golden, got.Bytes())
	}
}
