package graph

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

func TestGenerateShape(t *testing.T) {
	g, err := Generate(DefaultParams(500, 1))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 500 {
		t.Fatalf("N = %d", g.N)
	}
	if len(g.Papers) != 850 {
		t.Fatalf("papers = %d, want 850", len(g.Papers))
	}
	for _, p := range g.Papers {
		if len(p.Authors) < 1 || len(p.Authors) > 12 {
			t.Fatalf("paper has %d authors", len(p.Authors))
		}
		if p.Year < 1936 || p.Year > 2013 {
			t.Fatalf("paper year %d", p.Year)
		}
		seen := map[int]bool{}
		for _, a := range p.Authors {
			if a < 0 || a >= g.N {
				t.Fatalf("author index %d out of range", a)
			}
			if seen[a] {
				t.Fatal("duplicate author on one paper")
			}
			seen[a] = true
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Params{Authors: 0, Papers: 1}); err == nil {
		t.Fatal("want error for zero authors")
	}
	if _, err := Generate(Params{Authors: 1, Papers: 0}); err == nil {
		t.Fatal("want error for zero papers")
	}
}

func TestStatsConsistent(t *testing.T) {
	g, err := Generate(DefaultParams(300, 2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	stats := g.Stats(rng)
	if len(stats) != g.N {
		t.Fatalf("stats for %d authors", len(stats))
	}
	// Recompute nop independently and cross-check.
	nop := make([]int, g.N)
	for _, p := range g.Papers {
		for _, a := range p.Authors {
			nop[a]++
		}
	}
	for a, s := range stats {
		if nop[a] > 0 && s.NOP != nop[a] {
			t.Fatalf("author %d: NOP %d, want %d", a, s.NOP, nop[a])
		}
		if s.LY < s.FY {
			t.Fatalf("author %d: LY %d < FY %d", a, s.LY, s.FY)
		}
		if s.MYP < 1 || s.MYP > s.NOP {
			t.Fatalf("author %d: MYP %d with NOP %d", a, s.MYP, s.NOP)
		}
		if s.CC < 1 || s.NDCC < s.CC {
			t.Fatalf("author %d: CC %d NDCC %d", a, s.CC, s.NDCC)
		}
	}
}

func TestPopulationValidAgainstSchema(t *testing.T) {
	g, err := Generate(DefaultParams(400, 3))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := g.Population(3)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 400 {
		t.Fatalf("population %d", rel.Len())
	}
	if rel.Schema().NumFields() != gen.AuthorSchema().NumFields() {
		t.Fatal("schema mismatch")
	}
	// Relation.Add already validated domains; spot-check ly >= fy.
	fy, _ := rel.Schema().Index("fy")
	ly, _ := rel.Schema().Index("ly")
	for i := 0; i < rel.Len(); i++ {
		tp := rel.Tuple(i)
		if tp.Attrs[ly] < tp.Attrs[fy] {
			t.Fatalf("author %d: ly < fy", tp.ID)
		}
	}
}

func TestPreferentialAttachmentIsHeavyTailed(t *testing.T) {
	g, err := Generate(DefaultParams(1000, 4))
	if err != nil {
		t.Fatal(err)
	}
	// hist counts the authors with each paper count, 19 or more in the last
	// bucket.
	papers := make([]int, g.N)
	for _, p := range g.Papers {
		for _, a := range p.Authors {
			papers[a]++
		}
	}
	hist := make([]int, 20)
	for _, c := range papers {
		hist[min(c, len(hist)-1)]++
	}
	// Most authors have few papers; a nontrivial tail has many.
	low := hist[0] + hist[1] + hist[2]
	tail := hist[19]
	if low < 400 {
		t.Fatalf("only %d authors with <3 papers; head missing", low)
	}
	if tail == 0 {
		t.Fatal("no prolific authors; preferential attachment broken")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultParams(200, 9))
	b, _ := Generate(DefaultParams(200, 9))
	if len(a.Papers) != len(b.Papers) {
		t.Fatal("paper counts differ")
	}
	for i := range a.Papers {
		if a.Papers[i].Year != b.Papers[i].Year || len(a.Papers[i].Authors) != len(b.Papers[i].Authors) {
			t.Fatal("papers differ across identical seeds")
		}
	}
}
