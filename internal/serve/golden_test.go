package serve

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
)

// unpinned matches the fields of a sample response that move from run to
// run: the wall-clock elapsed_us and the random trace id.
var unpinned = regexp.MustCompile(`"elapsed_us":\d+|"trace":"[0-9a-f]+"`)

// coldSampleBody posts one cold (nocache) /v1/sample with a fixed seed to a
// fresh static daemon and returns the body with elapsed_us and the trace id
// blanked.
func coldSampleBody(t *testing.T) string {
	t.Helper()
	d := newTestDaemon(t, Config{
		Population: gen.Population(4000, 3), Slaves: 2, Layout: dataset.Skewed, PartitionSeed: 3,
	})
	resp, err := http.Post(d.ts.URL+"/v1/sample", "application/json", strings.NewReader(
		`{"query": "nop >= 40 : 4 ; nop < 40 and fy < 2000 : 6 ; nop < 40 and fy >= 2000 : 3", "seed": 11, "nocache": true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return unpinned.ReplaceAllString(string(body), "_")
}

// TestColdSampleGolden: a cold /v1/sample answer is the bytes the daemon
// sent before reduce outputs carried their strata's sizes — the sizes stay
// off the wire. Regenerate testdata/sample_cold.golden only with a change
// that means to move draws or the response shape.
func TestColdSampleGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sample_cold.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := coldSampleBody(t); got != string(want) {
		t.Errorf("cold /v1/sample body moved\n--- got\n%s--- want\n%s", got, want)
	}
}
