package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mapreduce"
)

// exposition is what lintExposition read off one Prometheus text body.
type exposition struct {
	families map[string]string  // family name → type
	values   map[string]float64 // series as written (`name{k="v"}`) → value
}

var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// lintExposition is the one check of the text exposition format, run over
// every endpoint's output: each family has exactly one HELP and one TYPE line
// ahead of its samples and appears once; names fit the metric alphabet; label
// values carry only the three legal escapes, valid UTF-8 and no raw control
// byte; no series repeats; histogram buckets are cumulative and non-decreasing
// with le="+Inf" equal to _count.
func lintExposition(t *testing.T, what, body string) exposition {
	t.Helper()
	exp := exposition{families: map[string]string{}, values: map[string]float64{}}
	bad := func(line int, format string, args ...any) {
		t.Helper()
		t.Errorf("%s line %d: %s", what, line+1, fmt.Sprintf(format, args...))
	}
	type histogram struct {
		lastLe, lastCum, inf, count float64
		hasInf, hasCount            bool
	}
	hists := map[string]*histogram{} // family + other labels → state
	helped := map[string]bool{}
	var pendingHelp, open string

	if !strings.HasSuffix(body, "\n") {
		t.Errorf("%s: body does not end in a newline", what)
	}
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ := strings.Cut(line[len("# HELP "):], " ")
			if helped[name] {
				bad(i, "second HELP for %s", name)
			}
			if help == "" {
				bad(i, "empty HELP for %s", name)
			}
			helped[name], pendingHelp, open = true, name, ""
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, _ := strings.Cut(line[len("# TYPE "):], " ")
			if name != pendingHelp {
				bad(i, "TYPE %s does not follow its HELP", name)
			}
			if _, dup := exp.families[name]; dup {
				bad(i, "family %s appears twice", name)
			}
			if !metricName.MatchString(name) {
				bad(i, "family name %q outside the metric alphabet", name)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				bad(i, "family %s has type %q", name, typ)
			}
			exp.families[name], open, pendingHelp = typ, name, ""
		case line == "" || line[0] == '#':
			bad(i, "stray line %q", line)
		default:
			name, labels, value, err := parseSample(line)
			if err != nil {
				bad(i, "%v in %q", err, line)
				continue
			}
			series := line[:strings.LastIndexByte(line, ' ')]
			if _, dup := exp.values[series]; dup {
				bad(i, "series %s repeats", series)
			}
			exp.values[series] = value
			suffix, inFamily := strings.CutPrefix(name, open)
			if open == "" || !inFamily {
				bad(i, "sample %s outside its family (open: %q)", name, open)
				continue
			}
			if exp.families[open] != "histogram" {
				if suffix != "" {
					bad(i, "sample %s under %s family %s", name, exp.families[open], open)
				}
				continue
			}
			var le string
			var rest []string
			for _, l := range labels {
				if l[0] == "le" {
					le = l[1]
				} else {
					rest = append(rest, l[0]+"="+l[1])
				}
			}
			key := open + "{" + strings.Join(rest, ",") + "}"
			h := hists[key]
			if h == nil {
				h = &histogram{lastLe: math.Inf(-1)}
				hists[key] = h
			}
			switch suffix {
			case "_bucket":
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					bad(i, "bucket bound le=%q: %v", le, err)
				}
				if bound <= h.lastLe || value < h.lastCum {
					bad(i, "bucket le=%s (%g) after le=%g (%g): not cumulative", le, value, h.lastLe, h.lastCum)
				}
				h.lastLe, h.lastCum = bound, value
				if le == "+Inf" {
					h.inf, h.hasInf = value, true
				}
			case "_count":
				h.count, h.hasCount = value, true
			case "_sum":
			default:
				bad(i, "sample %s under histogram family %s", name, open)
			}
		}
	}
	for key, h := range hists {
		if !h.hasInf || !h.hasCount || h.inf != h.count {
			t.Errorf(`%s: histogram %s: le="+Inf" %g (present %v) != _count %g (present %v)`, what, key, h.inf, h.hasInf, h.count, h.hasCount)
		}
	}
	return exp
}

// parseSample splits `name{k="v",...} value`, refusing what the Prometheus
// text parser refuses.
func parseSample(line string) (name string, labels [][2]string, value float64, err error) {
	end := strings.IndexAny(line, "{ ")
	if end < 0 {
		return "", nil, 0, fmt.Errorf("no value")
	}
	name, rest := line[:end], line[end:]
	if !metricName.MatchString(name) {
		return "", nil, 0, fmt.Errorf("name %q outside the metric alphabet", name)
	}
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			eq := strings.Index(rest, `="`)
			if eq < 0 || !metricName.MatchString(rest[:eq]) || strings.Contains(rest[:eq], ":") {
				return "", nil, 0, fmt.Errorf("malformed label key")
			}
			key, val := rest[:eq], ""
			rest = rest[eq+2:]
			closed := false
			for j := 0; j < len(rest) && !closed; j++ {
				switch c := rest[j]; {
				case c == '\\':
					if j+1 == len(rest) || !strings.ContainsRune(`\"n`, rune(rest[j+1])) {
						return "", nil, 0, fmt.Errorf("illegal escape in label %s", key)
					}
					j++
				case c == '"':
					val, rest, closed = rest[:j], rest[j+1:], true
				case c < 0x20 || c == 0x7f:
					return "", nil, 0, fmt.Errorf("raw control byte %#x in label %s", c, key)
				}
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated label %s", key)
			}
			if !utf8.ValidString(val) {
				return "", nil, 0, fmt.Errorf("label %s is not valid UTF-8", key)
			}
			labels = append(labels, [2]string{key, val})
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if !strings.HasPrefix(rest, "}") {
				return "", nil, 0, fmt.Errorf("malformed label set after %s", key)
			}
			rest = rest[1:]
			break
		}
	}
	if !strings.HasPrefix(rest, " ") {
		return "", nil, 0, fmt.Errorf("no space before the value")
	}
	value, err = strconv.ParseFloat(rest[1:], 64)
	return name, labels, value, err
}

func (d *testDaemon) metrics(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(d.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// sampleAs posts one nocache sample under a tenant header on the handler
// itself (no socket: the cardinality test sends thousands).
func (d *testDaemon) sampleAs(tenant string) int {
	req := httptest.NewRequest(http.MethodPost, "/v1/sample", strings.NewReader(`{"query": "gender = 1 : 2", "nocache": true}`))
	req.Header.Set("X-Strata-Tenant", tenant)
	rec := httptest.NewRecorder()
	d.s.Handler().ServeHTTP(rec, req)
	return rec.Code
}

// expositions drives every endpoint that renders Prometheus text and returns
// the bodies by name: a static daemon, a live daemon after sample + mutate +
// subscribe (with a push) + a quota reject, and engine metrics with PerKey
// and Custom set.
func expositions(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}

	static := newTestDaemon(t, Config{
		Population: gen.Population(800, 1), Slaves: 2, Layout: dataset.Contiguous, PartitionSeed: 1,
		QuotaQPS: 0.0001, QuotaBurst: 2,
	})
	for i, want := range []int{http.StatusOK, http.StatusOK, http.StatusTooManyRequests} {
		if _, code := static.post(t, map[string]any{"query": "nop >= 30 : 2"}); code != want {
			t.Fatalf("static sample %d: status %d, want %d", i, code, want)
		}
	}
	out["serve /metrics"] = static.metrics(t)

	liveD := newTestDaemon(t, Config{
		Population: livePopulation(100), Slaves: 2, Layout: dataset.RoundRobin,
		Live: true, StalenessBound: 8, QuotaQPS: 0.0001, QuotaBurst: 1,
	})
	if code := liveD.postJSON(t, "/v1/subscribe", map[string]any{
		"query": "gender = 1 : 3 ; gender = 0 : 3", "seed": 1, "every_mutations": 1,
	}, nil); code != http.StatusOK {
		t.Fatalf("subscribe: status %d", code)
	}
	if code := liveD.postJSON(t, "/v1/mutate", map[string]any{"op": "delete", "id": 2}, nil); code != http.StatusOK {
		t.Fatalf("mutate: status %d", code)
	}
	if code := liveD.sampleAs("a"); code != http.StatusOK {
		t.Fatalf("live sample: status %d", code)
	}
	if code := liveD.sampleAs("a"); code != http.StatusTooManyRequests {
		t.Fatalf("live over-quota sample: status %d, want 429", code)
	}
	out["serve -live /metrics"] = liveD.metrics(t)

	var h mapreduce.Histogram
	h.Observe(3)
	h.Observe(40)
	m := mapreduce.Metrics{
		Job: "wordcount", MapTasks: 3, MapInputRecords: 16_000_000, WallTime: 1500 * 1e6,
		MapTaskNanos: h, Custom: map[string]*mapreduce.Histogram{"reservoir_size": &h},
		PerKey: map[string]mapreduce.KeyStats{"a": {Records: 3, Output: 1}, "\x00\x01b": {Records: 1, Output: 1}},
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	mapreduce.NewPromWriter(&buf).BuildInfo(static.s.started)
	out["-debug-addr /metrics"] = buf.String()
	return out
}

// TestExpositionLint runs the lint over every endpoint's output and pins the
// renderings the one writer decides: integer series print as integers however
// large, unlabelled series stay bare, floats keep %g.
func TestExpositionLint(t *testing.T) {
	bodies := expositions(t)
	for what, body := range bodies {
		lintExposition(t, what, body)
	}
	for what, wants := range map[string][]string{
		"serve /metrics": {
			"strata_serve_queries_total 2\n",
			`strata_serve_rejected_total{tenant=""} 1` + "\n",
			`strata_map_tasks_total{job="serve"} `,
			"# TYPE strata_serve_attr_wire_nanos histogram\n",
			"strata_serve_cache_entries 1\n",
		},
		"serve -live /metrics": {
			"strata_serve_pushes_total 1\n",
			`strata_serve_rejected_total{tenant="a"} 1` + "\n",
			"strata_live_mutation_seq 1\n",
			"strata_serve_cache_entries 1\n",
		},
		"-debug-addr /metrics": {
			`strata_map_input_records_total{job="wordcount"} 16000000` + "\n",
			`strata_wall_seconds{job="wordcount"} 1.5` + "\n",
			`strata_reservoir_size_bucket{job="wordcount",le="+Inf"} 2` + "\n",
			`strata_key_output_records_total{job="wordcount",key="\\x00\\x01b"} 1` + "\n",
			"strata_build_info{go_version=",
		},
	} {
		for _, want := range wants {
			if !strings.Contains(bodies[what], want) {
				t.Errorf("%s lacks %q", what, want)
			}
		}
	}
	if t.Failed() {
		for what, body := range bodies {
			t.Logf("%s:\n%s", what, body)
		}
	}
}

// TestEveryMetricDocumented: every family any endpoint exports is named in
// DESIGN.md's signal table (§7). The help string in code is the description;
// the table is where an operator finds that the signal exists.
func TestEveryMetricDocumented(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	seen := map[string]bool{}
	for what, body := range expositions(t) {
		for name := range lintExposition(t, what, body).families {
			if !seen[name] && !bytes.Contains(design, []byte("`"+name+"`")) {
				missing = append(missing, name)
			}
			seen[name] = true
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d of %d exported metric families are not named in DESIGN.md:\n%s", len(missing), len(seen), strings.Join(missing, "\n"))
	}
}

// TestTenantLabelEscaped is the scrape-breaking regression: a rejected request
// whose tenant header carries a tab, a non-UTF-8 byte and a quote must leave
// /metrics parseable.
func TestTenantLabelEscaped(t *testing.T) {
	d := newTestDaemon(t, Config{
		Population: livePopulation(100), Slaves: 2, QuotaQPS: 0.0001, QuotaBurst: 1,
	})
	const tenant = "a\tb\xff\"c"
	do := func() int {
		req, _ := http.NewRequest(http.MethodPost, d.ts.URL+"/v1/sample", strings.NewReader(`{"query": "gender = 1 : 2"}`))
		req.Header.Set("X-Strata-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := do(); code != http.StatusOK {
		t.Fatalf("first query: status %d", code)
	}
	if code := do(); code != http.StatusTooManyRequests {
		t.Fatalf("second query: status %d, want 429", code)
	}
	body := d.metrics(t)
	exp := lintExposition(t, "/metrics after a hostile tenant", body)
	if got := exp.values[`strata_serve_rejected_total{tenant="a\\x09b\\xff\"c"}`]; got != 1 {
		t.Errorf("rejection not counted under the escaped tenant (got %g):\n%s", got, body)
	}
	if d.s.Stats().Rejected[tenant] != 1 {
		t.Errorf("/v1/stats lost the raw tenant name: %v", d.s.Stats().Rejected)
	}
}

// TestRejectedCardinalityBounded: rejections are counted under the bucket the
// quota table charged, so an over-quota client rotating tenant names cannot
// grow Stats.rejected — or the tenant label set — past maxTenants + 1.
func TestRejectedCardinalityBounded(t *testing.T) {
	d := newTestDaemon(t, Config{
		Population: livePopulation(100), Slaves: 2, QuotaQPS: 0.0001, QuotaBurst: 1,
	})
	const extra = 2000
	// Spend every tenant's one token without buying 10⁴ passes.
	for i := 0; i < maxTenants; i++ {
		d.s.quotas.allow(fmt.Sprintf("t%d", i))
	}
	admitted := 0
	for i := 0; i < maxTenants+extra; i++ {
		switch code := d.sampleAs(fmt.Sprintf("t%d", i)); code {
		case http.StatusOK:
			admitted++ // the overflow bucket's one token
		case http.StatusTooManyRequests:
		default:
			t.Fatalf("tenant t%d: status %d", i, code)
		}
	}
	if admitted != 1 {
		t.Errorf("%d queries admitted, want 1", admitted)
	}
	rejected := d.s.Stats().Rejected
	if len(rejected) > maxTenants+1 {
		t.Errorf("%d rejected tenants tracked, cap is %d", len(rejected), maxTenants+1)
	}
	if got := rejected[overflowTenant]; got != extra-1 {
		t.Errorf("overflow bucket counts %d rejections, want %d", got, extra-1)
	}
	exp := lintExposition(t, "/metrics", d.metrics(t))
	labels := 0
	for series := range exp.values {
		if strings.HasPrefix(series, "strata_serve_rejected_total{") {
			labels++
		}
	}
	if labels != len(rejected) {
		t.Errorf("%d tenant label values for %d tracked tenants", labels, len(rejected))
	}
}

// TestStatsJSONStaysFlat pins /v1/stats' shape: Snapshot embeds Counters, and
// bench/ and strata loadgen read the keys at the top level.
func TestStatsJSONStaysFlat(t *testing.T) {
	d := newLiveDaemon(t, 100)
	d.post(t, map[string]any{"query": "gender = 1 : 2"})
	resp, err := http.Get(d.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"queries", "cache_hits", "cache_misses", "passes", "pass_queries", "coalesced",
		"single_flight", "errors", "batch_occupancy_mean", "batch_occupancy_max",
		"window_latency_p50_us", "window_latency_p99_us", "latency_attribution", "live", "resident_bytes",
		"cache_entries",
	} {
		if _, ok := got[key]; !ok {
			t.Errorf("/v1/stats lacks %q", key)
		}
	}
	if _, nested := got["Counters"]; nested {
		t.Error("/v1/stats nests the counters")
	}
}
