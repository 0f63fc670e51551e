package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/dataset"
	"repro/internal/live"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sampling"
	"repro/internal/stratified"
	"repro/internal/wire"
)

// Probes are direct, single-caller timings of one layer's public functions on
// the workload's own inputs, run after the load phase of the traced run. They
// say what a layer costs with nothing contending; the gap to the same layer's
// time under load is contention.

// prober times probes and keeps one span per probe.
type prober struct {
	w      workload
	seed   int64
	pop    *dataset.Relation
	tpls   []*template // the ad-hoc templates (or the CPS surveys)
	splits []dataset.Split
	values map[string]float64
	spans  []mapreduce.Span
	start  time.Time
	err    error
}

func newProber(w workload, seed int64, pop *dataset.Relation, tpls []*template) *prober {
	return &prober{w: w, seed: seed, pop: pop, tpls: tpls, values: map[string]float64{}, start: time.Now()}
}

// timed runs fn reps times and returns the median duration; the whole probe
// becomes one span.
func (p *prober) timed(name string, reps int, fn func() error) time.Duration {
	begin := time.Now()
	durs := make([]float64, 0, reps)
	for i := 0; i < reps && p.err == nil; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
		}
		durs = append(durs, float64(time.Since(t0)))
	}
	p.spans = append(p.spans, mapreduce.Span{
		Job: "bench", Phase: "probe", Trace: "probes", Run: name,
		ID:    mapreduce.SpanID("probes", name),
		Start: begin.Sub(p.start), Wall: time.Since(begin), Records: int64(reps),
	})
	return time.Duration(median(durs))
}

// wants reports whether the per-layer metric applies to this workload.
func (p *prober) wants(metric string) bool {
	for _, d := range perLayer {
		if d.Name == metric {
			return d.appliesTo(p.w.Name)
		}
	}
	return false
}

// common runs the probes that need no daemon.
func (p *prober) common() {
	// The daemon's split layout: every later probe runs over it.
	p.values["dataset.partition_ms"] = ms(p.timed("dataset.partition", 1, func() error {
		var err error
		p.splits, err = dataset.Partition(p.pop, dataset.DefaultSplits(serveSlaves), dataset.Contiguous, rand.New(rand.NewSource(p.seed)))
		return err
	}))
	if p.err != nil {
		return
	}
	split := p.splits[0]
	schema := p.pop.Schema()

	if p.wants("query.parse_us") {
		d := p.timed("query.parse", 200, func() error {
			for _, t := range p.tpls {
				if _, err := query.ParseSSD("Q", t.Text); err != nil {
					return err
				}
			}
			return nil
		})
		p.values["query.parse_us"] = float64(d.Nanoseconds()) / 1e3 / float64(len(p.tpls))
		d = p.timed("predicate.boxes", 200, func() error {
			for _, t := range p.tpls {
				for _, s := range t.Q.Strata {
					if _, err := predicate.Boxes(s.Cond, schema); err != nil {
						return err
					}
				}
			}
			return nil
		})
		p.values["predicate.boxes_us"] = float64(d.Nanoseconds()) / 1e3 / float64(len(p.tpls))
	}

	if p.wants("predicate.eval_ns_per_tuple") {
		matched := 0
		d := p.timed("predicate.eval", 5, func() error {
			for _, t := range p.tpls {
				for i := range split {
					if query.MatchStratum(t.preds, &split[i]) >= 0 {
						matched++
					}
				}
			}
			return nil
		})
		p.values["predicate.eval_ns_per_tuple"] = float64(d.Nanoseconds()) / float64(len(split)*len(p.tpls))
	}

	if p.wants("stratified.sqe_pass_ms") {
		reps := 15
		if p.w.Pop > 100_000 {
			reps = 5
		}
		queries := make([]*query.SSD, len(p.tpls))
		for i, t := range p.tpls {
			queries[i] = t.Q
		}
		c := mapreduce.NewCluster(serveSlaves)
		opts := stratified.Options{Seed: p.seed}
		p.values["stratified.sqe_pass_ms"] = ms(p.timed("stratified.sqe", reps, func() error {
			_, _, err := stratified.RunSQE(c, queries[0], schema, p.splits, opts)
			return err
		}))
		p.values["stratified.mqe2_pass_ms"] = ms(p.timed("stratified.mqe2", reps, func() error {
			_, _, err := stratified.RunMQE(c, queries[:2], schema, p.splits, opts)
			return err
		}))
		p.values["stratified.mqe8_pass_ms"] = ms(p.timed("stratified.mqe8", reps, func() error {
			_, _, err := stratified.RunMQE(c, queries, schema, p.splits, opts)
			return err
		}))
	}

	if p.wants("sampling.reservoir_ns_per_item") {
		rng := rand.New(rand.NewSource(p.seed))
		d := p.timed("sampling.reservoir", 20, func() error {
			sampling.NewReservoir[dataset.Tuple](wideStratumFreq, rng).AddSlice(split)
			return nil
		})
		p.values["sampling.reservoir_ns_per_item"] = float64(d.Nanoseconds()) / float64(len(split))
		parts := make([]sampling.Weighted[dataset.Tuple], 8)
		for i := range parts {
			parts[i] = sampling.Weighted[dataset.Tuple]{Sample: split[i*wideStratumFreq : (i+1)*wideStratumFreq], N: int64(len(split))}
		}
		d = p.timed("sampling.unified", 200, func() error {
			if got := len(sampling.UnifiedSample(parts, wideStratumFreq, rng)); got != wideStratumFreq {
				return fmt.Errorf("unified sample of %d, want %d", got, wideStratumFreq)
			}
			return nil
		})
		p.values["sampling.unified_us_per_merge"] = float64(d.Nanoseconds()) / 1e3
	}

	if p.wants("dataset.batch_encode_ns_per_tuple") {
		var buf []byte
		d := p.timed("dataset.batch_encode", 10, func() error {
			b, ok := dataset.BatchOfTuples(split)
			if !ok {
				return fmt.Errorf("split has ragged arity")
			}
			buf = b.AppendWire(buf[:0])
			return nil
		})
		p.values["dataset.batch_encode_ns_per_tuple"] = float64(d.Nanoseconds()) / float64(len(split))
		d = p.timed("dataset.batch_decode", 10, func() error {
			b, err := dataset.ReadTupleBatchWire(wire.NewReader(buf))
			if err == nil && b.Len() != len(split) {
				err = fmt.Errorf("decoded %d tuples, want %d", b.Len(), len(split))
			}
			return err
		})
		p.values["dataset.batch_decode_ns_per_tuple"] = float64(d.Nanoseconds()) / float64(len(split))
	}
}

// frontend times the daemon's front end alone — HTTP decode, canonicalise,
// cache lookup, render — by serving a cached request on a recorder.
func (p *prober) frontend(h http.Handler, body []byte) {
	serveOnce := func() (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sample", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return rec, nil
	}
	if _, err := serveOnce(); err != nil { // fills the cache
		p.err = fmt.Errorf("probe serve.frontend: %w", err)
		return
	}
	d := p.timed("serve.frontend", 200, func() error {
		rec, err := serveOnce()
		if err == nil && !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
			err = fmt.Errorf("primed request missed the cache")
		}
		return err
	})
	p.values["serve.frontend_us"] = float64(d.Nanoseconds()) / 1e3
}

// livePopulation times Apply and Snapshot on a private copy of the population
// carrying the workload's standing queries.
func (p *prober) livePopulation(standing []*template) {
	splits, err := dataset.Partition(p.pop, dataset.DefaultSplits(serveSlaves), dataset.Contiguous, nil)
	if err != nil {
		p.err = err
		return
	}
	lp, err := live.NewPopulation(p.pop.Schema(), splits, live.Config{})
	if err != nil {
		p.err = err
		return
	}
	keys := make([]string, len(standing))
	for i, t := range standing {
		keys[i] = fmt.Sprintf("q%d", i)
		if _, err := lp.Register(keys[i], t.Q, p.seed); err != nil {
			p.err = err
			return
		}
	}
	const reps = 200
	batches := make([][]live.Mutation, reps)
	for b := range batches {
		for _, m := range mutationBatch(p.seed, b, p.w.Pop, p.pop.Schema()) {
			op, err := live.ParseOp(m.Op)
			if err != nil {
				p.err = err
				return
			}
			batches[b] = append(batches[b], live.Mutation{Op: op, ID: m.ID, Tuple: dataset.Tuple{ID: m.ID, Attrs: m.Attrs}})
		}
	}
	next := 0
	d := p.timed("live.apply", reps, func() error {
		res := lp.Apply(batches[next])
		next++
		if len(res.Rejected) > 0 {
			return fmt.Errorf("%d mutations rejected: %s", len(res.Rejected), res.Rejected[0].Err)
		}
		return nil
	})
	p.values["live.apply_us_per_mutation"] = float64(d.Nanoseconds()) / 1e3 / mutationBatchOps
	d = p.timed("live.snapshot", reps, func() error {
		for _, k := range keys {
			if _, _, _, ok := lp.Snapshot(k); !ok {
				return fmt.Errorf("standing query %s not registered", k)
			}
		}
		return nil
	})
	p.values["live.snapshot_us"] = float64(d.Nanoseconds()) / 1e3 / float64(len(keys))
}
