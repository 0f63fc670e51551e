// Package graph generates a synthetic coauthorship network — the social
// network substrate behind the paper's DBLP dataset. Instead of drawing the
// coauthor attributes of Table 1 from closed-form laws, this package builds
// actual papers with author sets (preferential attachment, so productivity
// and degree follow the heavy-tailed shapes seen in DBLP) and derives every
// attribute of the author schema from the network structure itself.
//
// The experiments use the distribution-driven generator of internal/gen; the
// graph generator exists so examples and tests can exercise the sampling
// pipeline on a population whose attributes truly "relate to edges of the
// network" (Section 3.1).
package graph

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/gen"
)

// Paper is one publication: its year and its author list (node indexes).
type Paper struct {
	Year    int
	Authors []int
}

// Coauthorship is a coauthorship hypergraph: authors 0..N-1 and papers.
type Coauthorship struct {
	N      int
	Papers []Paper
}

// Params tunes the generator.
type Params struct {
	// Authors is the number of author nodes.
	Authors int
	// Papers is the number of publications to generate.
	Papers int
	// MeanAuthorsPerPaper controls paper sizes (geometric, mean ≈ this,
	// at least 1). DBLP-like values are 2–4.
	MeanAuthorsPerPaper float64
	// FirstYear and LastYear bound publication years; years skew recent
	// with the power-function law of Table 1.
	FirstYear, LastYear int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultParams returns DBLP-flavoured parameters scaled to n authors.
func DefaultParams(n int, seed int64) Params {
	return Params{
		Authors:             n,
		Papers:              n * 17 / 10, // DBLP: 1.7M papers / 1M authors
		MeanAuthorsPerPaper: 2.8,
		FirstYear:           1936,
		LastYear:            2013,
		Seed:                seed,
	}
}

// Generate builds a coauthorship network: paper author-sets are filled by
// preferential attachment on current paper counts, so a few authors become
// very prolific while most stay occasional — the DBLP shape.
func Generate(p Params) (*Coauthorship, error) {
	if p.Authors < 1 || p.Papers < 1 {
		return nil, fmt.Errorf("graph: need at least 1 author and 1 paper, got %d/%d", p.Authors, p.Papers)
	}
	if p.MeanAuthorsPerPaper < 1 {
		p.MeanAuthorsPerPaper = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	yearDist := gen.PowerFunc{Alpha: 7.75, A: float64(p.FirstYear), B: float64(p.LastYear)}

	g := &Coauthorship{N: p.Authors, Papers: make([]Paper, 0, p.Papers)}
	// ballot holds author indexes weighted by paper count + 1 for
	// preferential attachment (the +1 keeps newcomers reachable).
	ballot := make([]int, 0, p.Authors+p.Papers*3)
	for a := 0; a < p.Authors; a++ {
		ballot = append(ballot, a)
	}
	pGeom := 1 / p.MeanAuthorsPerPaper
	for i := 0; i < p.Papers; i++ {
		size := 1
		for rng.Float64() > pGeom {
			size++
			if size >= 12 {
				break
			}
		}
		authors := make([]int, 0, size)
		seen := make(map[int]struct{}, size)
		for len(authors) < size {
			a := ballot[rng.Intn(len(ballot))]
			if _, dup := seen[a]; dup {
				// Dense collaborations may not find enough distinct
				// authors quickly; fall back to a uniform draw.
				a = rng.Intn(p.Authors)
				if _, dup2 := seen[a]; dup2 {
					continue
				}
			}
			seen[a] = struct{}{}
			authors = append(authors, a)
		}
		year := int(yearDist.Quantile(openUnit(rng)))
		g.Papers = append(g.Papers, Paper{Year: year, Authors: authors})
		ballot = append(ballot, authors...)
	}
	return g, nil
}

func openUnit(rng *rand.Rand) float64 {
	for {
		if u := rng.Float64(); u > 0 && u < 1 {
			return u
		}
	}
}

// AuthorStats aggregates per-author structural attributes.
type AuthorStats struct {
	NOP   int         // papers
	FY    int         // first publication year
	LY    int         // last publication year
	MYP   int         // max papers in one year
	CC    int         // distinct coauthors
	NDCC  int         // non-distinct coauthors
	ACCPP int         // average coauthors per paper (rounded)
	years map[int]int // papers per year (internal)
}

// Stats derives the Table 1 attributes for every author from the network.
// Authors with no papers get a minimal default career (nop clamped to the
// schema minimum of 1 paper at a uniformly chosen year).
func (g *Coauthorship) Stats(rng *rand.Rand) []AuthorStats {
	stats := make([]AuthorStats, g.N)
	coauthors := make([]map[int]struct{}, g.N)
	for i := range stats {
		stats[i].FY = 1 << 30
		stats[i].years = make(map[int]int)
	}
	for _, p := range g.Papers {
		for _, a := range p.Authors {
			s := &stats[a]
			s.NOP++
			if p.Year < s.FY {
				s.FY = p.Year
			}
			if p.Year > s.LY {
				s.LY = p.Year
			}
			s.years[p.Year]++
			s.NDCC += len(p.Authors) - 1
			if coauthors[a] == nil {
				coauthors[a] = make(map[int]struct{})
			}
			for _, b := range p.Authors {
				if b != a {
					coauthors[a][b] = struct{}{}
				}
			}
		}
	}
	for a := range stats {
		s := &stats[a]
		if s.NOP == 0 {
			s.NOP = 1
			y := 1936 + rng.Intn(2013-1936+1)
			s.FY, s.LY = y, y
			s.MYP = 1
			s.CC, s.NDCC, s.ACCPP = 1, 1, 1
			s.years = nil
			continue
		}
		for _, c := range s.years {
			if c > s.MYP {
				s.MYP = c
			}
		}
		s.CC = len(coauthors[a])
		if s.CC == 0 {
			s.CC = 1 // schema domain starts at 1
		}
		if s.NDCC == 0 {
			s.NDCC = 1
		}
		s.ACCPP = (s.NDCC + s.NOP/2) / s.NOP
		s.years = nil
	}
	return stats
}

// Population converts the network into a relation over the author schema,
// with every attribute derived from graph structure.
func (g *Coauthorship) Population(seed int64) (*dataset.Relation, error) {
	rng := rand.New(rand.NewSource(seed))
	schema := gen.AuthorSchema()
	rel := dataset.NewRelation(schema)
	idx := func(name string) int {
		i, ok := schema.Index(name)
		if !ok {
			panic("graph: schema missing " + name)
		}
		return i
	}
	nop, ayp, myp := idx("nop"), idx("ayp"), idx("myp")
	fy, ly, cc, ndcc, accpp := idx("fy"), idx("ly"), idx("cc"), idx("ndcc"), idx("accpp")

	stats := g.Stats(rng)
	rel.Grow(len(stats))
	_, next := gen.AuthorTuples(len(stats), schema.NumFields())
	for _, s := range stats {
		t := next()
		attrs := t.Attrs
		years := int64(s.LY - s.FY + 1)
		attrs[nop] = clampField(schema.Field(nop), int64(s.NOP))
		attrs[ayp] = clampField(schema.Field(ayp), int64(s.NOP)/years)
		attrs[myp] = clampField(schema.Field(myp), int64(s.MYP))
		attrs[fy] = clampField(schema.Field(fy), int64(s.FY))
		attrs[ly] = clampField(schema.Field(ly), int64(s.LY))
		attrs[cc] = clampField(schema.Field(cc), int64(s.CC))
		attrs[ndcc] = clampField(schema.Field(ndcc), int64(s.NDCC))
		attrs[accpp] = clampField(schema.Field(accpp), int64(s.ACCPP))
		if err := rel.Add(t); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

func clampField(f dataset.Field, v int64) int64 {
	if v < f.Min {
		return f.Min
	}
	if v > f.Max {
		return f.Max
	}
	return v
}

// DegreeHistogram returns how many authors have each paper count, capped at
// the last bucket; useful for eyeballing the heavy tail.
func (g *Coauthorship) DegreeHistogram(buckets int) []int {
	counts := make([]int, g.N)
	for _, p := range g.Papers {
		for _, a := range p.Authors {
			counts[a]++
		}
	}
	hist := make([]int, buckets)
	for _, c := range counts {
		if c >= buckets {
			c = buckets - 1
		}
		hist[c]++
	}
	return hist
}
