package gen

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
)

// AttrSpec binds one schema attribute to its marginal distribution and its
// loading on the latent "productivity" factor used to induce realistic
// cross-attribute correlations (a Gaussian copula: the marginals stay exactly
// the laws of Table 1, while ranks correlate through the shared factor).
type AttrSpec struct {
	Field dataset.Field
	Dist  Distribution
	// Rho is the copula loading in [-1, 1]: how strongly the attribute's
	// rank follows the author's latent productivity.
	Rho float64
}

// AuthorAttrs returns the attribute specifications of Table 1: names,
// domains, distributions and parameters exactly as printed, plus copula
// loadings reflecting the paper's remark that columns are correlated
// ("as in almost any realistic dataset").
func AuthorAttrs() []AttrSpec {
	return []AttrSpec{
		{
			Field: dataset.Field{Name: "nop", Min: 1, Max: 699, Desc: "Total number of papers"},
			Dist:  Dagum{K: 0.68, Alpha: 0.52, Beta: 0.89, Gamma: 1},
			Rho:   0.85,
		},
		{
			Field: dataset.Field{Name: "ayp", Min: 0, Max: 40, Desc: "Average number of papers per year"},
			Dist:  Dagum{K: 0.24, Alpha: 0.87, Beta: 0.66, Gamma: 1},
			Rho:   0.75,
		},
		{
			Field: dataset.Field{Name: "myp", Min: 0, Max: 140, Desc: "Maximum number of papers per year"},
			Dist:  Dagum{K: 0.16, Alpha: 0.86, Beta: 0.78, Gamma: 1},
			Rho:   0.75,
		},
		{
			Field: dataset.Field{Name: "fy", Min: 1936, Max: 2013, Desc: "Year of first publication"},
			Dist:  PowerFunc{Alpha: 7.75, A: 1936, B: 2013},
			Rho:   -0.45, // prolific authors started earlier
		},
		{
			Field: dataset.Field{Name: "ly", Min: 1936, Max: 2013, Desc: "Year of last publication"},
			Dist:  PowerFunc{Alpha: 11.83, A: 1936, B: 2013},
			Rho:   0.30,
		},
		{
			Field: dataset.Field{Name: "cc", Min: 1, Max: 1000, Desc: "Distinct coauthors for all papers"},
			Dist:  Burr{K: 0.47, Alpha: 2.96, Beta: 3.05, Gamma: 0},
			Rho:   0.70,
		},
		{
			Field: dataset.Field{Name: "ndcc", Min: 1, Max: 2500, Desc: "Non distinct coauthors"},
			Dist:  Burr{K: 0.32, Alpha: 2.92, Beta: 2.83, Gamma: 0},
			Rho:   0.70,
		},
		{
			Field: dataset.Field{Name: "accpp", Min: 0, Max: 129, Desc: "Average number of coauthors per paper"},
			Dist:  Dagum{K: 0.98, Alpha: 3.41, Beta: 3.42, Gamma: 0},
			Rho:   0.40,
		},
	}
}

// AuthorSchema returns the schema of the author dataset (Table 1 without the
// free-text id and name columns, which live on the Tuple itself).
func AuthorSchema() *dataset.Schema { return schemaOf(AuthorAttrs()) }

// schemaOf returns the schema of specs' fields, in order.
func schemaOf(specs []AttrSpec) *dataset.Schema {
	fields := make([]dataset.Field, len(specs))
	for i, s := range specs {
		fields[i] = s.Field
	}
	return dataset.MustSchema(fields...)
}

// minRowsPerWorker is the smallest share of rows the transform phase of
// Population hands one goroutine: below it the fan-out costs more than the
// quantiles it spreads, so small populations stay on the caller.
const minRowsPerWorker = 4096

// Population generates n authors with the Table 1 marginals and correlated
// ranks (Gaussian copula over a per-author latent factor). The generation is
// deterministic in the seed. Publication-year sanity (ly ≥ fy) is enforced.
//
// It runs in two phases. The draw consumes the seed's one random stream on
// the calling goroutine, row by row — the latent factor, then one copula
// normal per attribute — and parks each normal's float64 bits in the
// attribute's own slot of the tuple arena. The transform, Φ → clip →
// quantile → clamp and the fy/ly swap, is a pure function of those bits, so
// it runs over contiguous shares of rows on up to GOMAXPROCS goroutines. The
// relation's bytes are the same at any GOMAXPROCS.
func Population(n int, seed int64) *dataset.Relation {
	specs := AuthorAttrs()
	schema := schemaOf(specs)
	rel := dataset.NewRelation(schema)
	rel.Grow(n)
	k := len(specs)
	arena, next := AuthorTuples(n, k)
	rng := rand.New(rand.NewSource(seed))
	// z's expression is the one-loop generator's, verbatim: rewritten, it may
	// round (or fuse into an FMA) differently and move the bytes.
	for row := 0; row < len(arena); row += k {
		latent := rng.NormFloat64()
		for j, s := range specs {
			z := s.Rho*latent + math.Sqrt(1-s.Rho*s.Rho)*rng.NormFloat64()
			arena[row+j] = int64(math.Float64bits(z))
		}
	}
	fyIdx, _ := schema.Index("fy")
	lyIdx, _ := schema.Index("ly")
	// One closure for every worker: each takes the next share index, so the
	// fan-out allocates the same two objects at any width.
	workers := max(1, min(runtime.GOMAXPROCS(0), n/minRowsPerWorker))
	var fan struct {
		next atomic.Int64
		wg   sync.WaitGroup
	}
	share := func() {
		i := int(fan.next.Add(1) - 1)
		lo, hi := i*n/workers, (i+1)*n/workers
		transformRows(arena[lo*k:hi*k], specs, fyIdx, lyIdx)
		fan.wg.Done()
	}
	fan.wg.Add(workers)
	for i := 1; i < workers; i++ {
		go share()
	}
	share()
	fan.wg.Wait()
	for id := 0; id < n; id++ {
		rel.MustAdd(next())
	}
	return rel
}

// transformRows turns the copula normals Population's draw parked in attrs —
// whole rows of len(specs) float64 bit patterns — into attribute values in
// place: each normal through Φ, clipped into (0, 1), inverted by its law's
// quantile and clamped into its domain; then ly ≥ fy by swapping.
func transformRows(attrs []int64, specs []AttrSpec, fyIdx, lyIdx int) {
	k := len(specs)
	for row := 0; row < len(attrs); row += k {
		a := attrs[row : row+k : row+k]
		for j, s := range specs {
			u := stdNormalCDF(math.Float64frombits(uint64(a[j])))
			if u <= 0 {
				u = 1e-12
			}
			if u >= 1 {
				u = 1 - 1e-12
			}
			a[j] = ClampInt(s.Dist.Quantile(u), s.Field.Min, s.Field.Max)
		}
		if a[lyIdx] < a[fyIdx] {
			a[fyIdx], a[lyIdx] = a[lyIdx], a[fyIdx]
		}
	}
}

// UniformPopulation generates n authors over the same schema with every
// attribute independently uniform on its domain — the synthetic
// no-correlation dataset of Section 6.2.1 used to test whether value
// distributions affect cost savings.
func UniformPopulation(n int, seed int64) *dataset.Relation {
	schema := AuthorSchema()
	rel := dataset.NewRelation(schema)
	rel.Grow(n)
	numFields := schema.NumFields()
	_, next := AuthorTuples(n, numFields)
	rng := rand.New(rand.NewSource(seed))
	for id := 0; id < n; id++ {
		t := next()
		for j := 0; j < numFields; j++ {
			f := schema.Field(j)
			t.Attrs[j] = f.Min + rng.Int63n(f.Width())
		}
		rel.MustAdd(t)
	}
	return rel
}

// AuthorTuples returns the attribute arena of n authors and a function that
// yields their tuples, IDs 0, 1, … in order, each named "author-" and its ID
// zero-padded to seven digits, with attributes zero for the caller to fill.
// All attributes are cut from the one arena — row-major, fields values a row,
// so tuple i's Attrs is arena[i*fields:(i+1)*fields] — and all names from one
// string, so a population costs two allocations beyond its tuple array, not
// two per author. Each tuple's Attrs has its capacity equal to its length:
// appending to one author's attributes copies them rather than writing its
// neighbour's. The function must be called at most n times.
func AuthorTuples(n, fields int) ([]int64, func() dataset.Tuple) {
	arena := make([]int64, n*fields)
	// A name is "author-" and at least seven digits; every ID at or above
	// 10⁷, 10⁸, … has one digit more.
	size := 14 * n
	for p := 10_000_000; p < n; p *= 10 {
		size += n - p
	}
	var names strings.Builder
	names.Grow(size)
	id := 0
	return arena, func() dataset.Tuple {
		start := names.Len()
		var digits [20]byte
		d := strconv.AppendInt(digits[:0], int64(id), 10)
		names.WriteString("author-")
		for i := len(d); i < 7; i++ {
			names.WriteByte('0')
		}
		names.Write(d)
		t := dataset.Tuple{
			ID:    int64(id),
			Name:  names.String()[start:],
			Attrs: arena[id*fields : (id+1)*fields : (id+1)*fields],
		}
		id++
		return t
	}
}

// stdNormalCDF is Φ(z), computed from the error function.
func stdNormalCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}
