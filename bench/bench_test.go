package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/mapreduce"
)

func TestPercentileAndTenBeyond(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 0.50); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := percentile(v, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := percentile(v, 1); got != 200 {
		t.Errorf("max of 1..200 = %v, want 200", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{200, 0.95, 10, true},
		{199, 0.95, 9, false},
		{200, 0.99, 2, false},
		{1000, 0.99, 10, true},
		{20, 0.50, 10, true},
		{19, 0.50, 9, false},
	} {
		if got := beyond(tc.n, tc.p); got != tc.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.beyond)
		}
		if got := gateable(tc.n, tc.p); got != tc.ok {
			t.Errorf("gateable(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.ok)
		}
	}
	// A burst over a fifth of a leg is the whole p95 of the leg, and does not
	// reach the quietest block.
	l := &leg{wall: time.Minute, classes: opLog{}}
	for i := 0; i < 500; i++ {
		op := opSample{start: time.Duration(i) * time.Millisecond, lat: 10 * time.Millisecond}
		if i >= 200 && i < 300 {
			op.lat = 100 * time.Millisecond
		}
		// Logged out of order, as two clients' logs are when they merge.
		l.classes.add(classSample, op)
		if i%2 == 1 {
			ops := l.classes[classSample]
			ops[i-1], ops[i] = ops[i], ops[i-1]
		}
	}
	if whole, blocks := percentile(l.latencies(classSample), 0.95), l.quietPercentile(classSample, 0.95); whole != 100 || blocks != 10 {
		t.Errorf("p95 under a burst: whole leg %v ms, quietest block %v ms; want 100 and 10", whole, blocks)
	}
	if got := l.quietPercentile(classMutate, 0.5); got != 0 {
		t.Errorf("quiet median of a class with no ops = %v, want 0", got)
	}
	// Blocks hold at least minBlockOps ops, and there are at most quietBlocks.
	for n, want := range map[int]int{0: 1, 19: 1, 40: 2, 239: 11, 240: 12, 5000: 12} {
		if got := blockCount(n); got != want {
			t.Errorf("blockCount(%d) = %d, want %d", n, got, want)
		}
	}
	// Throughput and CPU per op are read from the quietest block too: 240 ops
	// at 1 ms apart, but for one block of 20 at 4 ms apart.
	c := &opClock{cuts: []opCut{{}}}
	for i := 0; i < 240; i++ {
		last := c.cuts[len(c.cuts)-1]
		gap := time.Millisecond
		if i >= 100 && i < 120 {
			gap = 4 * time.Millisecond
		}
		c.cuts = append(c.cuts, opCut{at: last.at.Add(gap), cpu: last.cpu + 2*gap})
	}
	quiet := &leg{clock: c}
	if thr, cpu := quiet.throughput(), quiet.cpuPerOp(); thr != 1000 || cpu != 2 {
		t.Errorf("quietest block: %v ops/s, %v ms CPU per op; want 1000 and 2", thr, cpu)
	}
	if rule := (stopRule{minDur: time.Second, minOps: 200}); rule.done(2*time.Second, 199) || rule.done(time.Millisecond, 500) || !rule.done(time.Second, 200, 201) {
		t.Error("a phase ends only after its time and with every class at its minimum")
	}
}

func TestSpanSelfTimeOverlappingChildren(t *testing.T) {
	msec := time.Millisecond
	spans := []mapreduce.Span{
		{Job: "serve", Phase: "request", Trace: "t", ID: 1, Start: 0, Wall: 100 * msec},
		// Two children overlap on [20,40): together they cover [10,60).
		{Job: "serve", Phase: "window", Trace: "t", ID: 2, Parent: 1, Start: 10 * msec, Wall: 30 * msec},
		{Job: "serve", Phase: "batch", Trace: "t", ID: 3, Parent: 1, Start: 20 * msec, Wall: 40 * msec},
		// A grandchild inside the batch, and a child on another clock (an
		// engine run counts its own offsets from zero).
		{Job: "serve", Phase: "pass", Trace: "t", ID: 4, Parent: 3, Start: 25 * msec, Wall: 30 * msec},
		{Job: "mr-mqe", Phase: "job", Trace: "t", Run: "b1.p0", ID: 5, Parent: 4, Start: 0, Wall: 28 * msec},
		// The same ids in another trace must not leak in.
		{Job: "serve", Phase: "window", Trace: "u", ID: 9, Parent: 1, Start: 0, Wall: 100 * msec},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 50 * msec, 2: 30 * msec, 3: 10 * msec, 4: 2 * msec, 5: 28 * msec} {
		if got := self[spanKey{"t", id}]; got != want {
			t.Errorf("self time of span %d = %v, want %v", id, got, want)
		}
	}
	// Children that outlast their parent cannot push self time below zero.
	late := []mapreduce.Span{
		{Job: "serve", Phase: "pass", Trace: "t", ID: 1, Wall: 10 * msec},
		{Job: "serve", Phase: "demux", Trace: "t", ID: 2, Parent: 1, Start: 5 * msec, Wall: 50 * msec},
	}
	if got := selfTimes(late)[spanKey{"t", 1}]; got != 0 {
		t.Errorf("self time under an outlasting child = %v, want 0", got)
	}
	tab := tabulate(spans)
	if got := tab.selfMS("request"); got != 50 {
		t.Errorf("mean request self = %v ms, want 50", got)
	}
	if got := tab.perJobMS(mapreduce.PhaseJob); got != 28 {
		t.Errorf("job wall per engine job = %v ms, want 28", got)
	}
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	pop := gen.Population(3000, 7)
	render := func(seed int64) []byte {
		var b bytes.Buffer
		set, err := makeTemplates(pop, seed, kindLone)
		if err != nil {
			t.Fatal(err)
		}
		// Request sequence: which body each client sends as its i-th request.
		for c := 0; c < 2; c++ {
			picks := newPickSequence(seed, c, len(set.Adhoc))
			for i := 0; i < 300; i++ {
				b.Write(sampleBody(set.Adhoc[picks.at(i)].Text, seed, true))
			}
		}
		for _, tpl := range set.Primed {
			b.Write(sampleBody(tpl.Text, seed, false))
		}
		// Mutation stream.
		for i := 0; i < 50; i++ {
			b.Write(mutationBody(seed, i, pop.Len(), pop.Schema()))
		}
		// Arrival schedule.
		for _, periodic := range []bool{true, false} {
			sched := newSchedule(seed, 40, periodic, newMixSequence(seed, 10, loneMix), newPickSequence(seed, 11, len(set.Primed)))
			for i := 0; i < 300; i++ {
				fmt.Fprintln(&b, sched.at(i))
			}
		}
		return b.Bytes()
	}
	a, again, other := render(3), render(3), render(4)
	if !bytes.Equal(a, again) {
		t.Error("the same seed generated different request, mutation or arrival sequences")
	}
	if bytes.Equal(a, other) {
		t.Error("different seeds generated identical sequences")
	}

	// Every cycle of the lone mix holds each narrow template once and each wide
	// one three times, whatever the seed.
	mix, cycle := newMixSequence(3, 10, loneMix), 16
	for at := 0; at+cycle <= len(mix); at += cycle {
		var count [8]int
		for _, pick := range mix[at : at+cycle] {
			count[pick]++
		}
		if count != [8]int{1, 1, 1, 1, 3, 3, 3, 3} {
			t.Fatalf("lone picks %d..%d hold %v, want the exact 1:3 mix", at, at+cycle, count)
		}
	}
	if len(mix) < 4000 || reflect.DeepEqual(mix[:cycle], mix[cycle:2*cycle]) && reflect.DeepEqual(mix[:cycle], mix[2*cycle:3*cycle]) {
		t.Errorf("lone mix of %d picks repeats one order; want about 4096 picks, shuffled per cycle", len(mix))
	}

	sched := newSchedule(3, 40, true, mix, newPickSequence(3, 11, 32))
	if a0, a1, a2 := sched.at(0), sched.at(1), sched.at(2); a0.Class != 0 || a1.Class != 1 || a2.Class != 0 ||
		a1.Due != 25*time.Millisecond || a2.Due != 50*time.Millisecond {
		t.Errorf("periodic schedule at 40/s = %v %v %v, want classes alternating every 25ms", a0, a1, a2)
	}
	// A Poisson schedule keeps the mean rate, never runs backwards, and goes
	// on past its generated cycle.
	poisson := newSchedule(3, 100, false, newPickSequence(3, 10, 1), newPickSequence(3, 11, 4))
	n := 3 * len(poisson.dues)
	for i := 1; i < n; i++ {
		if poisson.at(i).Due < poisson.at(i-1).Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if rate := float64(n) / poisson.at(n).Due.Seconds(); rate < 97 || rate > 103 {
		t.Errorf("Poisson schedule runs at %.1f arrivals/s, want 100", rate)
	}
	// Every mutation batch is self-contained: ids it deletes it inserted.
	batch := mutationBatch(3, 5, pop.Len(), pop.Schema())
	inserted := map[int64]bool{}
	for _, m := range batch {
		switch m.Op {
		case "insert":
			inserted[m.ID] = true
		case "delete":
			if !inserted[m.ID] {
				t.Errorf("batch deletes #%d, which it did not insert", m.ID)
			}
		case "update":
			if m.ID >= int64(pop.Len()) {
				t.Errorf("batch updates #%d, not an original member", m.ID)
			}
		}
	}
	if len(batch) != mutationBatchOps {
		t.Errorf("batch has %d ops, want %d", len(batch), mutationBatchOps)
	}
}

// stallingServer answers every request instantly, except that all requests
// arriving within `stall` of the first one are held until the stall ends.
func stallingServer(stall time.Duration) *httptest.Server {
	var once sync.Once
	var release time.Time
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { release = time.Now().Add(stall) })
		time.Sleep(time.Until(release))
		fmt.Fprintln(w, `{}`)
	}))
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	ts := stallingServer(stall)
	defer ts.Close()
	tpl, err := newTemplate("nop >= 10 : 5 ; nop < 10 : 5", gen.AuthorSchema())
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{
		w: workload{Kind: kindLone, Rate: 40}, seed: 1, ts: ts,
		tpls:        &templateSet{Adhoc: []*template{tpl}, Primed: []*template{tpl}},
		adhocBodies: [][]byte{[]byte(`{}`)}, primedBodies: [][]byte{[]byte(`{}`)},
	}
	for i := range d.clients {
		d.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
		defer d.clients[i].CloseIdleConnections()
	}
	l := &leg{clock: newOpClock()}
	logs := d.openLoop(stopRule{minDur: stall + 100*time.Millisecond, minOps: 4}, l)
	var ops []opSample
	for _, log := range logs {
		for _, class := range log {
			ops = append(ops, class...)
		}
	}
	// The stall holds both connections, so the arrivals due at 50..175ms are
	// sent late. Each must be charged from its due time: the op due at 50ms
	// waited about 150ms even though the server answered it at once.
	inflated, late := 0, 0
	for _, op := range ops {
		if op.start > 0 && op.start < stall {
			want := stall - op.start - 10*time.Millisecond
			if op.lat >= want {
				inflated++
			} else {
				t.Errorf("op due at %v has latency %v, want at least %v (timed from its due time)", op.start, op.lat, want)
			}
			if op.lag > 10*time.Millisecond {
				late++
			}
		}
		if op.start > stall+50*time.Millisecond && op.lat > 50*time.Millisecond {
			t.Errorf("op due at %v, after the stall, has latency %v", op.start, op.lat)
		}
	}
	if inflated < 4 || late < 2 {
		t.Errorf("%d ops inflated by the stall, %d sent late; want at least 4 and 2 (of %d ops)", inflated, late, len(ops))
	}
}

// A lone answer that differs from a direct RunSQE is a failed op, unless the
// daemon says that many requests shared a pass with another.
func TestLoneComparisonExemptsCoalescedPasses(t *testing.T) {
	pop := gen.Population(3000, 7)
	tpls, err := makeTemplates(pop, 7, kindLone)
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{pop: pop, tpls: tpls}
	for coalesced, wantFailed := range map[int64]int{0: 2, 1: 0} {
		l := &leg{
			classes:    opLog{classSample: make([]opSample, 10)},
			loneBodies: []loneBody{{pick: 0, body: []byte(`{"strata":[]}`)}, {pick: 1, body: []byte(`{"strata":[]}`)}},
		}
		l.stats1.Coalesced = coalesced
		if err := finishLeg(7, d, l); err != nil {
			t.Fatal(err)
		}
		if _, failed := l.counts(); failed != wantFailed {
			t.Errorf("%d requests coalesced, 2 answers differ: %d failed ops, want %d", coalesced, failed, wantFailed)
		}
	}
}

func TestCheckerRejectsBadAnswers(t *testing.T) {
	schema := gen.AuthorSchema()
	tpl, err := newTemplate("nop >= 100 : 2 ; nop < 100 : 3", schema)
	if err != nil {
		t.Fatal(err)
	}
	tpl.Sizes = []int{50, 2} // stratum 2 has only two members: exact fill is 2
	hi1, hi2 := "#1(a)[150 0 0 1990 2000 1 1 0]", "#2(b)[200 0 0 1990 2000 1 1 0]"
	lo1, lo2 := "#3(c)[10 0 0 1990 2000 1 1 0]", "#4(d)[20 0 0 1990 2000 1 1 0]"
	answer := func(s1, s2 []string) []byte {
		type stratum struct {
			Count       int      `json:"count"`
			Individuals []string `json:"individuals"`
		}
		body, _ := json.Marshal(map[string]any{"strata": []stratum{{len(s1), s1}, {len(s2), s2}}})
		return body
	}
	if err := tpl.checkSample(answer([]string{hi1, hi2}, []string{lo1, lo2}), drift{}); err != nil {
		t.Errorf("exact answer rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		body []byte
		want string
	}{
		"under-filled":    {answer([]string{hi1}, []string{lo1, lo2}), "count 1"},
		"over-filled":     {answer([]string{hi1, hi2}, []string{lo1, lo2, "#5(e)[30 0 0 1990 2000 1 1 0]"}), "count 3"},
		"duplicated":      {answer([]string{hi1, hi1}, []string{lo1, lo2}), "selected twice"},
		"wrong stratum":   {answer([]string{hi1, lo1}, []string{lo1, lo2}), "does not satisfy"},
		"short tuple":     {answer([]string{hi1, "#2(b)[200 0]"}, []string{lo1, lo2}), "attributes"},
		"missing stratum": {[]byte(`{"strata":[{"count":0,"individuals":[]}]}`), "1 strata"},
		"count mismatch":  {[]byte(`{"strata":[{"count":2,"individuals":["` + hi1 + `"]},{"count":2,"individuals":["` + lo1 + `","` + lo2 + `"]}]}`), "but 1 individuals"},
		"not json":        {[]byte(`<html>`), "decoding"},
	} {
		err := tpl.checkSample(tc.body, drift{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s answer: got %v, want an error naming %q", name, err, tc.want)
		}
	}
	// On a live population a stratum may have drifted by the mutations sent.
	if err := tpl.checkSample(answer([]string{hi1, hi2}, []string{lo1}), drift{ops: 1}); err != nil {
		t.Errorf("answer within the live drift rejected: %v", err)
	}
	if err := tpl.checkSample(answer([]string{hi1, hi2}, nil), drift{ops: 1}); err == nil {
		t.Error("answer beyond the live drift accepted")
	}

	warm := func(count int, individuals []string, members, staleness int) []byte {
		return []byte(fmt.Sprintf(`{"live":true,"strata":[{"count":2,"individuals":["%s","%s"]},{"count":%d,"individuals":["%s"]}],
			"live_meta":[{"members":50,"staleness":0},{"members":%d,"staleness":%d}]}`,
			hi1, hi2, count, strings.Join(individuals, `","`), members, staleness))
	}
	if err := tpl.checkWarm(warm(2, []string{lo1, lo2}, 5, 1), 64); err != nil {
		t.Errorf("warm answer one short with staleness 1 rejected: %v", err)
	}
	if err := tpl.checkWarm(warm(1, []string{lo1}, 5, 0), 64); err == nil {
		t.Error("warm answer short without staleness accepted")
	}
	if err := tpl.checkWarm(warm(2, []string{lo1, lo2}, 5, 65), 64); err == nil {
		t.Error("warm answer over the staleness bound accepted")
	}
	if err := tpl.checkWarm(answer([]string{hi1, hi2}, []string{lo1, lo2}), 64); err == nil {
		t.Error("cold answer accepted as warm")
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := marshalManifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is out of date: regenerate it with `bash bench/run.sh manifest -write BENCHMARK.json`")
	}
	// It round-trips through its own schema with nothing lost.
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, buildManifest()) {
		t.Error("BENCHMARK.json does not round-trip")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		check(d.Name)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", d.Name)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end must hold setup_s, in s, lower is better")
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(m.PerLayer))
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		check(d.Name)
		if d.Bound != nil {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
	// Every metric names only workloads that exist.
	for _, d := range allMetrics() {
		for _, w := range d.On {
			if _, ok := workloadByName(w); !ok {
				t.Errorf("metric %s applies to unknown workload %q", d.Name, w)
			}
		}
	}
}

func TestContractLineCarriesEveryMetric(t *testing.T) {
	untraced := (&runResult{Metrics: values{"setup_s": 1.5, "warm_p50_ms": 2}}).contractLine()
	if len(untraced.Metrics) != len(endToEnd) || untraced.Metrics["setup_s"].Value != 1.5 || untraced.Metrics["setup_s"].Unit != "s" {
		t.Errorf("untraced line = %+v, want exactly the end-to-end metrics", untraced.Metrics)
	}
	traced := (&runResult{Traced: true, Metrics: values{"serve.pass_p50_ms": 7}}).contractLine()
	if len(traced.Metrics) != len(tracedMetrics()) {
		t.Errorf("traced line has %d metrics, want %d", len(traced.Metrics), len(tracedMetrics()))
	}
	if v, ok := traced.Metrics["worker.exec_ms_per_pass"]; !ok || v.Value != 0 {
		t.Errorf("a layer the workload does not exercise reads %+v, want 0", v)
	}
}

func TestCompareVerdicts(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	lat := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	thr := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c, c * 1.01, c} }
	for name, tc := range map[string]struct {
		d    metricDef
		a, b []float64
		want verdict
	}{
		"latency up 20%":          {lat, tight(10), tight(12), worse},
		"latency up 5%":           {lat, tight(10), tight(10.5), same},
		"latency down 20%":        {lat, tight(10), tight(8), better},
		"throughput down 20%":     {thr, tight(100), tight(80), worse},
		"throughput up 20%":       {thr, tight(100), tight(120), better},
		"spread wider than bound": {lat, []float64{8, 9, 10, 11, 12}, []float64{9, 10, 12, 13, 14}, unresolved},
		"wide but disjoint":       {lat, []float64{8, 9, 10, 11, 12}, []float64{4, 5, 5.5, 6, 7}, better},
		"any failure":             {metricDef{Name: "failed_ratio", Better: "lower"}, []float64{0}, []float64{0.001}, worse},
		"no failure":              {metricDef{Name: "failed_ratio", Better: "lower"}, []float64{0}, []float64{0}, same},
		"exact ratio moved":       {metricDef{Name: "cps_cost_ratio", Better: "lower", Bound: 1e-9}, []float64{0.754}, []float64{0.755}, worse},
		"exact ratio held":        {metricDef{Name: "cps_cost_ratio", Better: "lower", Bound: 1e-9}, []float64{0.754}, []float64{0.754}, same},
	} {
		if got, _ := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", name, got, tc.want)
		}
	}
}
