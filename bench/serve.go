package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mapreduce"
	"repro/internal/serve"
	"repro/internal/worker"
)

// daemon is one set-up serve workload: the generated inputs, the daemon under
// test mounted on a loopback httptest server in this process (as
// `strata loadgen -selfhost` does), and the two client connections.
type daemon struct {
	w    workload
	seed int64

	pop  *dataset.Relation
	tpls *templateSet
	// bodies are the pre-marshalled request bodies, by role.
	adhocBodies, standingBodies, primedBodies [][]byte

	srv     *serve.Server
	ts      *httptest.Server
	exec    *worker.TCPExecutor // tcp backend only
	clients [2]*http.Client
	engine  engineAcc

	staleness int
	// mutOps counts mutation ops sent, bounding how far live strata drifted.
	mutOps atomic.Int64
	// mutBatches numbers mutation batches across warm-up and measurement, so
	// inserted ids never repeat.
	mutBatches int
	// setup is what set-up cost: everything but the checker's own scan.
	setup time.Duration
}

// newDaemon generates the inputs from seed, starts the daemon, primes it and
// warms it up. tracer may be nil.
func newDaemon(w workload, seed int64, tracer *mapreduce.MemTracer) (*daemon, error) {
	d := &daemon{w: w, seed: seed}
	start := time.Now()
	d.pop = gen.Population(w.Pop, seed)
	d.setup = time.Since(start)

	// The checker's scan of exact stratum sizes is not the program's set-up.
	tpls, err := makeTemplates(d.pop, seed, w.Kind)
	if err != nil {
		return nil, err
	}
	d.tpls = tpls
	for _, t := range tpls.Adhoc {
		d.adhocBodies = append(d.adhocBodies, sampleBody(t.Text, seed, true))
	}
	for _, t := range tpls.Standing {
		d.standingBodies = append(d.standingBodies, sampleBody(t.Text, seed, false))
	}
	for _, t := range tpls.Primed {
		d.primedBodies = append(d.primedBodies, sampleBody(t.Text, seed, false))
	}

	start = time.Now()
	cfg := serve.Config{
		Population: d.pop, Slaves: serveSlaves, Layout: dataset.Contiguous, PartitionSeed: seed,
		Window: serveWindow, AdaptiveWindow: true, Live: w.Kind == kindLive,
		OnMetrics: d.engine.record,
	}
	if tracer != nil {
		cfg.Tracer = tracer
	}
	if w.Backend == "tcp" {
		exec, err := worker.NewTCPExecutor(worker.TCPConfig{})
		if err != nil {
			return nil, err
		}
		exec.SpawnLocal(2)
		if err := exec.AwaitWorkers(2, 10*time.Second); err != nil {
			exec.Close()
			return nil, err
		}
		d.exec = exec
		cfg.NewCluster = func(slaves int) *mapreduce.Cluster {
			c := mapreduce.NewCluster(slaves)
			c.Executor = exec
			return c
		}
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		d.close()
		return nil, err
	}
	d.srv = srv
	d.ts = httptest.NewServer(srv.Handler())
	for i := range d.clients {
		d.clients[i] = &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
	}
	if err := d.prime(); err != nil {
		d.close()
		return nil, err
	}
	warm := d.drive(stopRule{minOps: w.Warmup})
	if _, failed := warm.counts(); failed > 0 {
		d.close()
		return nil, fmt.Errorf("%s: %d warm-up ops failed", w.Name, failed)
	}
	d.setup += time.Since(start)
	return d, nil
}

// prime subscribes the standing queries (live) and fills the result cache
// with the primed queries (lone).
func (d *daemon) prime() error {
	for _, t := range d.tpls.Standing {
		if _, err := d.post(0, "/v1/subscribe", subscribeBody(t.Text, d.seed)); err != nil {
			return fmt.Errorf("subscribing %q: %w", t.Text, err)
		}
	}
	for i, body := range d.primedBodies {
		resp, err := d.post(0, "/v1/sample", body)
		if err == nil {
			err = d.tpls.Primed[i].checkSample(resp, drift{})
		}
		if err != nil {
			return fmt.Errorf("priming %q: %w", d.tpls.Primed[i].Text, err)
		}
	}
	if d.srv.Stats().Live != nil {
		d.staleness = d.srv.Stats().Live.StalenessBound
	}
	return nil
}

func (d *daemon) close() {
	if d.srv != nil {
		d.srv.BeginDrain()
	}
	if d.ts != nil {
		d.ts.Close()
	}
	if d.srv != nil {
		d.srv.Drain()
	}
	if d.exec != nil {
		d.exec.Close()
	}
	for _, c := range d.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
}

// post sends one request on client c's connection and returns the whole
// response body; anything but a 200 is an error.
func (d *daemon) post(c int, path string, body []byte) ([]byte, error) {
	resp, err := d.clients[c].Post(d.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// timedPost is post with the op's timing: latency runs from `from` (the due
// time of an open-loop op, else the send time) to the last response byte.
func (d *daemon) timedPost(c int, path string, body []byte, phaseStart, from time.Time) ([]byte, opSample) {
	sent := time.Now()
	resp, err := d.post(c, path, body)
	return resp, opSample{
		start: from.Sub(phaseStart), lat: time.Since(from), lag: sent.Sub(from),
		bytes: len(resp), err: err,
	}
}

// drive runs the workload's traffic until rule says stop.
func (d *daemon) drive(rule stopRule) *leg {
	l := &leg{primary: classSample, stats0: d.srv.Stats()}
	if d.exec != nil {
		l.shuffle0 = d.exec.ShuffleStats()
	}
	switch d.w.Kind {
	case kindAdhoc:
		l.measured(func() []opLog { return d.closedLoop(rule, 2, l.clock, nil) })
	case kindLive:
		l.measured(func() []opLog { return d.liveMixed(rule, l.clock) })
	case kindLone:
		l.measured(func() []opLog { return d.openLoop(rule, l) })
	}
	l.stats1 = d.srv.Stats()
	l.engine, l.passes = d.engine.take()
	if d.exec != nil {
		l.shuffle1 = d.exec.ShuffleStats()
	}
	return l
}

// closedLoop runs n closed-loop clients, each sending its next nocache sample
// only after the previous answer arrived, until rule is met across them. It
// closes stopped (when given) as soon as the rule is met.
func (d *daemon) closedLoop(rule stopRule, n int, clock *opClock, stopped chan<- struct{}) []opLog {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		logs  = make([]opLog, n)
		start = time.Now()
	)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := opLog{}
			logs[c] = log
			picks := newPickSequence(d.seed, c, len(d.adhocBodies))
			for i := 0; !rule.done(time.Since(start), clock.count()); i++ {
				pick := picks.at(i)
				body, op := d.timedPost(c, "/v1/sample", d.adhocBodies[pick], start, time.Now())
				if op.err == nil {
					op.err = d.tpls.Adhoc[pick].checkSample(body, drift{ops: int(d.mutOps.Load())})
				}
				log.add(classSample, op)
				clock.tick()
			}
			if stopped != nil {
				once.Do(func() { close(stopped) })
			}
		}(c)
	}
	wg.Wait()
	return logs
}

// liveMixed runs client 1 as a closed-loop sampler and client 2 on a seeded
// Poisson schedule alternating one mutation batch and one warm read of a
// subscribed query, timed from the due time. Client 2 runs until client 1 is done and it
// has rule.minOps of each of its own classes.
func (d *daemon) liveMixed(rule stopRule, clock *opClock) []opLog {
	sampler := make(chan struct{})
	var writerLog opLog
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writerLog = d.scheduledWriter(rule, sampler)
	}()
	logs := d.closedLoop(rule, 1, clock, sampler)
	wg.Wait()
	return append(logs, writerLog)
}

func (d *daemon) scheduledWriter(rule stopRule, samplerDone <-chan struct{}) opLog {
	log := opLog{}
	// The writer's own classes need their ten samples beyond p95 too.
	minWriterOps := min(rule.minOps, minClassOps)
	sched := newSchedule(d.seed, d.w.Rate, false, newPickSequence(d.seed, 10, 1), newPickSequence(d.seed, 11, len(d.standingBodies)))
	schema := d.pop.Schema()
	start := time.Now()
	for i := 0; ; i++ {
		select {
		case <-samplerDone:
			if len(log[classMutate]) >= minWriterOps && len(log[classWarm]) >= minWriterOps {
				return log
			}
		default:
		}
		a := sched.at(i)
		var body []byte
		if a.Class == 0 {
			body = mutationBody(d.seed, d.mutBatches, d.w.Pop, schema)
			d.mutBatches++
		} else {
			body = d.standingBodies[a.Pick]
		}
		due := start.Add(a.Due)
		time.Sleep(time.Until(due))
		if a.Class == 0 {
			// Counted before sending: a pass racing this batch may see it.
			d.mutOps.Add(mutationBatchOps)
			resp, op := d.timedPost(1, "/v1/mutate", body, start, due)
			if op.err == nil {
				op.err = checkApplied(resp)
			}
			log.add(classMutate, op)
		} else {
			resp, op := d.timedPost(1, "/v1/sample", body, start, due)
			if op.err == nil {
				op.err = d.tpls.Standing[a.Pick].checkWarm(resp, d.staleness)
			}
			log.add(classWarm, op)
		}
	}
}

// openLoop sends evenly spaced arrivals from one scheduler goroutine
// over two connections, alternating a nocache lone query and a cacheable
// repeat of a primed query. Latency runs from the due time, so a stall
// inflates every op that was due meanwhile.
func (d *daemon) openLoop(rule stopRule, l *leg) []opLog {
	type job struct {
		a   arrival
		due time.Time
	}
	sched := newSchedule(d.seed, d.w.Rate, true, newMixSequence(d.seed, 10, loneMix[:len(d.adhocBodies)]), newPickSequence(d.seed, 11, len(d.primedBodies)))
	jobs := make(chan job)
	logs := make([]opLog, 2)
	var kept [2][]loneBody
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := opLog{}
			logs[c] = log
			for j := range jobs {
				if j.a.Class == 0 {
					body, op := d.timedPost(c, "/v1/sample", d.adhocBodies[j.a.Pick], start, j.due)
					if op.err == nil {
						op.err = d.tpls.Adhoc[j.a.Pick].checkSample(body, drift{})
					}
					// A seeded 1-in-10 of the lone answers is kept for the
					// comparison with a direct RunSQE after the leg.
					if op.err == nil && (int64(len(log[classSample]))+d.seed)%10 == 0 {
						kept[c] = append(kept[c], loneBody{pick: j.a.Pick, body: body})
					}
					log.add(classSample, op)
					l.clock.tick()
				} else {
					body, op := d.timedPost(c, "/v1/sample", d.primedBodies[j.a.Pick], start, j.due)
					if op.err == nil {
						op.err = d.tpls.Primed[j.a.Pick].checkSample(body, drift{})
					}
					log.add(classCached, op)
				}
			}
		}(c)
	}
	for i := 0; ; i++ {
		// Classes alternate, so after an even number of arrivals each has i/2.
		if i%2 == 0 && rule.done(time.Since(start), i/2) {
			break
		}
		a := sched.at(i)
		due := start.Add(a.Due)
		time.Sleep(time.Until(due))
		jobs <- job{a: a, due: due}
	}
	close(jobs)
	wg.Wait()
	l.loneBodies = append(kept[0], kept[1]...)
	return logs
}

// checkApplied fails a mutation batch any of whose ops was rejected.
func checkApplied(body []byte) error {
	var applied struct {
		Applied  int   `json:"applied"`
		Rejected []any `json:"rejected"`
	}
	if err := json.Unmarshal(body, &applied); err != nil {
		return err
	}
	if len(applied.Rejected) > 0 || applied.Applied != mutationBatchOps {
		return fmt.Errorf("mutate: %d applied, %d rejected of %d", applied.Applied, len(applied.Rejected), mutationBatchOps)
	}
	return nil
}
