package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/serve"
)

// cmdLoadgen drives a serve daemon (-addr) with concurrent closed-loop
// clients and reports achieved QPS plus latency percentiles. Requests set
// "nocache": true so every query exercises the engine, not the result cache;
// mutation batches update members drawn from the IDs the daemon's /healthz
// reports. It drives load and measures nothing else: throughput and latency
// numbers that are compared across commits come from bench/ (EXPERIMENTS.md
// "One measurement story").
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "", "target daemon host:port (a running \"strata serve\")")
	clients := fs.Int("clients", 32, "concurrent client goroutines")
	requests := fs.Int("requests", 2000, "total requests across all clients")
	seed := fs.Int64("seed", 1, "sampling seed sent with every query")
	mutate := fs.Float64("mutate", 0, "fraction of requests that are mutation batches (0..1; needs a -live daemon)")
	jsonOut := fs.String("json", "", "write the report as JSON to this file")
	subUsage(fs, "strata loadgen -addr host:port [flags]")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("loadgen: -addr is required (start a daemon with \"strata serve\")")
	}
	if *mutate < 0 || *mutate > 1 {
		return fmt.Errorf("loadgen: -mutate must be in [0,1]")
	}

	baseURL := "http://" + *addr
	popN, err := daemonPopulation(baseURL)
	if err != nil {
		return err
	}
	report := loadgenReport{
		Population: popN, Clients: *clients, Requests: *requests, DistinctQueries: loadQueries,
		MutateRatio: *mutate,
	}
	load := loadSpec{
		clients: *clients, requests: *requests, seed: *seed,
		mutate: *mutate, popN: popN, schema: gen.AuthorSchema(),
	}
	run, err := driveLoad(baseURL, load)
	if err != nil {
		return err
	}
	report.Batched = run
	printRun(*addr, run)

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *jsonOut)
	}
	return nil
}

// daemonPopulation reads the population size the daemon at baseURL reports
// on /healthz; mutation batches update members with IDs below it.
func daemonPopulation(baseURL string) (int, error) {
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		return 0, fmt.Errorf("loadgen: %w", err)
	}
	defer resp.Body.Close()
	var hz struct {
		Population int `json:"population"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		return 0, fmt.Errorf("loadgen: reading /healthz: %w", err)
	}
	if hz.Population <= 0 {
		return 0, fmt.Errorf("loadgen: the daemon at %s reports no population", baseURL)
	}
	return hz.Population, nil
}

// loadgenReport is the -json output shape.
type loadgenReport struct {
	Population      int        `json:"population"`
	Clients         int        `json:"clients"`
	Requests        int        `json:"requests"`
	DistinctQueries int        `json:"distinct_queries"`
	MutateRatio     float64    `json:"mutate_ratio,omitempty"`
	Batched         loadgenRun `json:"batched"`
}

// loadgenRun is one measured load run.
type loadgenRun struct {
	OK       int     `json:"ok"`
	Failed   int     `json:"failed"`
	WallMS   int64   `json:"wall_ms"`
	QPS      float64 `json:"qps"`
	P50MS    float64 `json:"latency_p50_ms"`
	P90MS    float64 `json:"latency_p90_ms"`
	P99MS    float64 `json:"latency_p99_ms"`
	MaxMS    float64 `json:"latency_max_ms"`
	MeanMS   float64 `json:"latency_mean_ms"`
	StddevMS float64 `json:"latency_stddev_ms"`
	// QPSTimeline is the achieved query rate in each of ten equal slices of
	// the wall time (completion-time buckets), exposing warmup and tail
	// effects a single aggregate QPS hides. TimelineBucketMS is the slice
	// width.
	TimelineBucketMS int64          `json:"timeline_bucket_ms,omitempty"`
	QPSTimeline      []float64      `json:"qps_timeline,omitempty"`
	Mutations        int            `json:"mutations,omitempty"` // mutation requests (each mutationBatchSize ops)
	MutP50MS         float64        `json:"mutate_p50_ms,omitempty"`
	MutP99MS         float64        `json:"mutate_p99_ms,omitempty"`
	Stats            serve.Snapshot `json:"daemon_stats"`
	statsErr         error          // non-nil when /v1/stats could not be read
}

// loadSpec parameterizes one driveLoad call.
type loadSpec struct {
	clients, requests int
	seed              int64
	// mutate makes that fraction of requests POST /v1/mutate batches of
	// mutationBatchSize operations (insert/update/delete over popN + schema).
	mutate float64
	popN   int
	schema *dataset.Schema
}

// loadQueries is how many distinct query templates the clients cycle, and
// mutationBatchSize how many mutations one mutation request carries.
const loadQueries, mutationBatchSize = 8, 8

// loadQuery returns the i-th query template. Templates are distinct
// single-attribute SSDs over nop so any subset coalesces into one MQE pass.
func loadQuery(i int) string {
	t := 50 + 10*(i%60)
	return fmt.Sprintf("nop >= %d : 5 ; nop < %d : 10", t, t)
}

// driveLoad fires spec.requests concurrent requests from spec.clients
// goroutines against baseURL and aggregates latency. With spec.mutate > 0,
// that fraction of requests are POST /v1/mutate batches (interleaved
// deterministically by request index); the rest are POST /v1/sample.
func driveLoad(baseURL string, spec loadSpec) (loadgenRun, error) {
	client := &http.Client{Timeout: 2 * time.Minute}
	type result struct {
		d        time.Duration
		at       time.Duration // completion offset from run start (for the QPS timeline)
		err      error
		mutation bool
	}
	requests := spec.requests
	results := make([]result, requests)
	// isMutation spreads mutation requests evenly through the index space.
	isMutation := func(i int) bool {
		if spec.mutate <= 0 {
			return false
		}
		return float64(i%100) < spec.mutate*100
	}
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				var err error
				t0 := time.Now()
				if isMutation(i) {
					err = postMutations(client, baseURL, mutationBatch(i, spec.popN, spec.schema))
					results[i] = result{d: time.Since(t0), at: time.Since(start), err: err, mutation: true}
					continue
				}
				body, _ := json.Marshal(map[string]any{
					"query": loadQuery(i % loadQueries), "seed": spec.seed, "nocache": true,
				})
				resp, err := client.Post(baseURL+"/v1/sample", "application/json", bytes.NewReader(body))
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
				results[i] = result{d: time.Since(t0), at: time.Since(start), err: err}
			}
		}()
	}
	for i := 0; i < requests; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)

	run := loadgenRun{WallMS: wall.Milliseconds()}
	var lat, mutLat, doneAt []time.Duration
	for _, r := range results {
		if r.err != nil {
			run.Failed++
			continue
		}
		if r.mutation {
			run.Mutations++
			mutLat = append(mutLat, r.d)
			continue
		}
		run.OK++
		lat = append(lat, r.d)
		doneAt = append(doneAt, r.at)
	}
	if run.Failed > 0 {
		for _, r := range results {
			if r.err != nil {
				return run, fmt.Errorf("loadgen: %d/%d requests failed, first: %w", run.Failed, requests, r.err)
			}
		}
	}
	slices.Sort(mutLat)
	run.MutP50MS, run.MutP99MS = ms(quantile(mutLat, 0.50)), ms(quantile(mutLat, 0.99))
	slices.Sort(lat)
	run.P50MS, run.P90MS, run.P99MS = ms(quantile(lat, 0.50)), ms(quantile(lat, 0.90)), ms(quantile(lat, 0.99))
	run.MaxMS = ms(quantile(lat, 1))
	run.QPS = float64(run.OK) / wall.Seconds()
	if n := float64(len(lat)); n > 0 {
		var sum, sq float64
		for _, d := range lat {
			sum += ms(d)
		}
		run.MeanMS = sum / n
		for _, d := range lat {
			dev := ms(d) - run.MeanMS
			sq += dev * dev
		}
		run.StddevMS = math.Sqrt(sq / n)
	}
	// QPS timeline: ten equal wall-time slices, completions counted into the
	// slice they finished in.
	if wall > 0 && len(doneAt) > 0 {
		const slices = 10
		counts := make([]int, slices)
		for _, at := range doneAt {
			i := int(int64(at) * slices / int64(wall))
			if i >= slices {
				i = slices - 1
			}
			counts[i]++
		}
		sliceSec := wall.Seconds() / slices
		run.TimelineBucketMS = wall.Milliseconds() / slices
		run.QPSTimeline = make([]float64, slices)
		for i, c := range counts {
			run.QPSTimeline[i] = float64(c) / sliceSec
		}
	}

	resp, err := client.Get(baseURL + "/v1/stats")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&run.Stats)
		resp.Body.Close()
	}
	run.statsErr = err
	return run, nil
}

// mutationBatch builds one self-contained mutation batch for request i:
// inserts fresh members (ids partitioned by request index so concurrent
// clients never collide), updates originals, then deletes half of the fresh
// inserts again — applied in order, so the batch is rejection-free and the
// population stays near its starting size.
func mutationBatch(i int, popN int, schema *dataset.Schema) []map[string]any {
	const size = mutationBatchSize
	rng := rand.New(rand.NewSource(int64(i) + 1))
	attrs := func() []int64 {
		a := make([]int64, schema.NumFields())
		for f := 0; f < schema.NumFields(); f++ {
			fld := schema.Field(f)
			a[f] = fld.Min + rng.Int63n(fld.Width())
		}
		return a
	}
	base := int64(1)<<40 + int64(i)*int64(size)
	muts := make([]map[string]any, 0, size)
	inserts := (size + 1) / 2
	for j := 0; j < inserts; j++ {
		muts = append(muts, map[string]any{"op": "insert", "id": base + int64(j), "attrs": attrs()})
	}
	for j := 0; len(muts) < size-inserts/2; j++ {
		muts = append(muts, map[string]any{"op": "update", "id": rng.Int63n(int64(popN)), "attrs": attrs()})
	}
	for j := 0; j < inserts/2; j++ {
		muts = append(muts, map[string]any{"op": "delete", "id": base + int64(j)})
	}
	return muts
}

// postMutations applies one batch and fails on any per-mutation rejection
// (the batches are constructed to be rejection-free).
func postMutations(client *http.Client, baseURL string, muts []map[string]any) error {
	body, _ := json.Marshal(map[string]any{"mutations": muts})
	resp, err := client.Post(baseURL+"/v1/mutate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("mutate: status %d", resp.StatusCode)
	}
	var applied struct {
		Applied  int   `json:"applied"`
		Rejected []any `json:"rejected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&applied); err != nil {
		return err
	}
	if len(applied.Rejected) > 0 {
		return fmt.Errorf("mutate: %d of %d mutations rejected", len(applied.Rejected), len(muts))
	}
	return nil
}

// ms renders a duration as milliseconds at microsecond resolution.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// quantile is the q-th quantile (nearest rank, rounding down) of ascending
// durations; 0 for none. Every percentile this command prints comes from it.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func printRun(label string, r loadgenRun) {
	fmt.Printf("\n[%s] %d ok / %d failed in %dms — %.0f QPS\n",
		label, r.OK, r.Failed, r.WallMS, r.QPS)
	fmt.Printf("  latency ms: p50 %.1f  p90 %.1f  p99 %.1f  max %.1f  mean %.1f ± %.1f\n",
		r.P50MS, r.P90MS, r.P99MS, r.MaxMS, r.MeanMS, r.StddevMS)
	if len(r.QPSTimeline) > 0 {
		fmt.Printf("  qps over time (%dms slices):", r.TimelineBucketMS)
		for _, q := range r.QPSTimeline {
			fmt.Printf(" %.0f", q)
		}
		fmt.Println()
	}
	if r.Mutations > 0 {
		fmt.Printf("  mutations: %d requests, ms p50 %.2f p99 %.2f\n",
			r.Mutations, r.MutP50MS, r.MutP99MS)
	}
	if r.statsErr == nil {
		fmt.Printf("  daemon: %d passes for %d queries (%.1f distinct/pass, max %d), %d coalesced, %d single-flight\n",
			r.Stats.Passes, r.Stats.Queries, r.Stats.BatchMean, r.Stats.BatchMax,
			r.Stats.Coalesced, r.Stats.SingleFlight)
		if len(r.Stats.Attribution) > 0 {
			fmt.Printf("  attribution p50 ms:")
			for _, name := range []string{"window", "queue", "pass", "wire"} {
				if a, ok := r.Stats.Attribution[name]; ok {
					fmt.Printf(" %s %.1f", name, float64(a.P50Usec)/1000)
				}
			}
			fmt.Println()
		}
	}
}
