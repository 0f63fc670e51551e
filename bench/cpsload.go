package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cps"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mapreduce"
	"repro/internal/query"
)

// exactJobs is how many measured jobs the seed-deterministic readings of
// batch_cps_1e5 cover. A run measures for a time, so its job count varies;
// these readings take the same jobs every time and repeat exactly.
const exactJobs = 50

// cpsSample is the per-SSD sample size: the paper's §6 value.
const cpsSample = 400

// cpsGroupSeed draws the query group's attributes, subrange jitter and penalty
// table. It is a constant: which two attributes the surveys stratify on decides
// how many stratum selections and LP variables a job has, and left to -seed it
// moved a job's cost by 50 % from one seed to the next. The population, and
// with it every subrange boundary, still comes from -seed.
const cpsGroupSeed = 99

// cpsReadings are sums over the first exactJobs measured jobs.
type cpsReadings struct {
	jobs                 int
	costRatio            float64
	lpVars               int
	lpSolve              time.Duration
	planned, residual    int
	engine               mapreduce.Metrics
	engineWall, selfWall time.Duration
}

// batch is the set-up batch_cps_1e5 workload: no daemon, one caller running
// validated cps.Run jobs on a fresh cluster each, as `strata mssd` does.
type batch struct {
	w      workload
	pop    *dataset.Relation
	mssd   *query.MSSD
	costs  query.PenaltyCosts
	checks []*template
	splits []dataset.Split
	tracer *mapreduce.MemTracer
	// next is the next job's seed: 0, 1, 2, ... across warm-up and measurement.
	next  int64
	setup time.Duration
}

func newBatch(w workload, seed int64, tracer *mapreduce.MemTracer) (*batch, error) {
	b := &batch{w: w, tracer: tracer}
	start := time.Now()
	b.pop = gen.Population(w.Pop, seed)
	rng := rand.New(rand.NewSource(cpsGroupSeed))
	queries, err := gen.QueryGroup(gen.Small, b.pop, cpsSample, rng)
	if err != nil {
		return nil, err
	}
	b.costs = gen.DefaultPenaltyTable(gen.Small.N, rng)
	b.mssd = query.NewMSSD(b.costs, queries...)
	b.splits, err = dataset.Partition(b.pop, dataset.DefaultSplits(serveSlaves), dataset.Contiguous, nil)
	if err != nil {
		return nil, err
	}
	b.setup = time.Since(start)

	// The checker's scan of exact stratum sizes is not the program's set-up.
	for _, q := range queries {
		preds, err := q.Compile(b.pop.Schema())
		if err != nil {
			return nil, err
		}
		b.checks = append(b.checks, &template{Q: q, preds: preds, Sizes: make([]int, len(preds))})
	}
	countStrata(b.pop, b.checks)

	start = time.Now()
	warm := b.drive(stopRule{minOps: w.Warmup})
	if _, failed := warm.counts(); failed > 0 {
		return nil, fmt.Errorf("%s: %d warm-up jobs failed", w.Name, failed)
	}
	b.setup += time.Since(start)
	return b, nil
}

func (b *batch) drive(rule stopRule) *leg {
	l := &leg{primary: classJob}
	l.measured(func() []opLog {
		log := opLog{}
		start := time.Now()
		for !rule.done(time.Since(start), len(log[classJob])) {
			log.add(classJob, b.job(start, &l.cps))
			l.clock.tick()
		}
		return []opLog{log}
	})
	return l
}

// job runs one cps.Run and checks it: validation passed, every survey's fill
// is exact, individuals are distinct and in their strata.
func (b *batch) job(phaseStart time.Time, r *cpsReadings) opSample {
	c := mapreduce.NewCluster(serveSlaves)
	if b.tracer != nil {
		c.Tracer = b.tracer
		c.TraceContext = &mapreduce.TraceContext{Trace: "cps", Run: fmt.Sprintf("j%d", b.next)}
	}
	seed := b.next
	b.next++
	t0 := time.Now()
	res, err := cps.Run(c, b.mssd, b.pop.Schema(), b.splits, cps.Options{Seed: seed})
	op := opSample{start: t0.Sub(phaseStart), lat: time.Since(t0), err: err}
	if err != nil {
		return op
	}
	for i, ans := range res.Answers {
		if err := b.checks[i].checkAnswer(ans); err != nil {
			op.err = fmt.Errorf("job %d survey %d: %w", seed, i+1, err)
			return op
		}
	}
	if r.jobs < exactJobs {
		r.jobs++
		r.costRatio += ratio(res.Answers.Cost(b.costs), res.Initial.Cost(b.costs))
		r.lpVars += res.LP.Vars
		r.lpSolve += res.LP.SolveTime
		r.planned += res.PlannedTuples
		r.residual += res.ResidualTuples
		r.engine.Add(res.Metrics)
		r.engineWall += res.Metrics.WallTime
		r.selfWall += op.lat - res.Metrics.WallTime
	}
	return op
}
