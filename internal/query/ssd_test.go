package query

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/predicate"
)

func demoSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Field{Name: "gender", Min: 0, Max: 1},
		dataset.Field{Name: "income", Min: 0, Max: 500000},
		dataset.Field{Name: "age", Min: 0, Max: 120},
	)
}

func demoSSD() *SSD {
	return NewSSD("Q1",
		Stratum{Cond: predicate.MustParse("gender = 0"), Freq: 2},
		Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 3},
	)
}

func TestSSDValidateAccepts(t *testing.T) {
	if err := demoSSD().Validate(demoSchema()); err != nil {
		t.Fatal(err)
	}
}

func TestSSDValidateRejectsOverlap(t *testing.T) {
	q := NewSSD("bad",
		Stratum{Cond: predicate.MustParse("income < 100"), Freq: 1},
		Stratum{Cond: predicate.MustParse("income < 200"), Freq: 1},
	)
	err := q.Validate(demoSchema())
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("want overlap error, got %v", err)
	}
}

func TestSSDValidateRejectsNegativeFreqAndBadAttr(t *testing.T) {
	q := NewSSD("bad", Stratum{Cond: predicate.MustParse("gender = 0"), Freq: -1})
	if err := q.Validate(demoSchema()); err == nil {
		t.Fatal("want negative-frequency error")
	}
	q2 := NewSSD("bad2", Stratum{Cond: predicate.MustParse("nope = 0"), Freq: 1})
	if err := q2.Validate(demoSchema()); err == nil {
		t.Fatal("want unknown-attribute error")
	}
}

func TestSSDTotalFreqAndCoverage(t *testing.T) {
	q := demoSSD()
	if q.TotalFreq() != 5 {
		t.Fatalf("TotalFreq = %d", q.TotalFreq())
	}
	cover := q.CoverageFormula()
	// gender=0 or gender=1 covers everything in this schema: no point of the
	// whole domain is outside it.
	schema := demoSchema()
	c, err := predicate.NewClassifier([]predicate.Expr{predicate.Not{X: cover}}, schema)
	if err != nil {
		t.Fatal(err)
	}
	domain := make([]predicate.Interval, schema.NumFields())
	for j := range domain {
		domain[j] = predicate.Interval{Lo: schema.Field(j).Min, Hi: schema.Field(j).Max}
	}
	if c.Meets(domain) {
		t.Fatal("coverage of a gender partition should be total")
	}
}

func TestMatchStratum(t *testing.T) {
	schema := demoSchema()
	preds, err := demoSSD().Compile(schema)
	if err != nil {
		t.Fatal(err)
	}
	male := dataset.Tuple{Attrs: []int64{1, 0, 0}}
	female := dataset.Tuple{Attrs: []int64{0, 0, 0}}
	if k := MatchStratum(preds, &female); k != 0 {
		t.Fatalf("female stratum %d, want 0", k)
	}
	if k := MatchStratum(preds, &male); k != 1 {
		t.Fatalf("male stratum %d, want 1", k)
	}
}

func popOf(t *testing.T, n int) *dataset.Relation {
	t.Helper()
	r := dataset.NewRelation(demoSchema())
	for i := int64(0); i < int64(n); i++ {
		r.MustAdd(dataset.Tuple{ID: i, Attrs: []int64{i % 2, (i * 1000) % 500001, i % 121}})
	}
	return r
}

func TestAnswerSatisfies(t *testing.T) {
	r := popOf(t, 20)
	q := demoSSD()
	preds, _ := q.Compile(r.Schema())
	ans := NewAnswer(2)
	for i := range r.Tuples() {
		tp := r.Tuple(i)
		k := MatchStratum(preds, &tp)
		if k == 0 && len(ans.Strata[0]) < 2 {
			ans.Strata[0] = append(ans.Strata[0], tp)
		}
		if k == 1 && len(ans.Strata[1]) < 3 {
			ans.Strata[1] = append(ans.Strata[1], tp)
		}
	}
	if err := ans.Satisfies(q, r); err != nil {
		t.Fatal(err)
	}
	if ans.Size() != 5 || len(ans.Union()) != 5 {
		t.Fatalf("Size/Union wrong: %d/%d", ans.Size(), len(ans.Union()))
	}

	// Wrong count.
	short := NewAnswer(2)
	short.Strata[0] = ans.Strata[0][:1]
	short.Strata[1] = ans.Strata[1]
	if err := short.Satisfies(q, r); err == nil {
		t.Fatal("want count error")
	}
	// Wrong stratum membership.
	wrong := NewAnswer(2)
	wrong.Strata[0] = ans.Strata[1][:2]
	wrong.Strata[1] = ans.Strata[1]
	if err := wrong.Satisfies(q, r); err == nil {
		t.Fatal("want membership error")
	}
	// Duplicate tuple.
	dup := NewAnswer(2)
	dup.Strata[0] = []dataset.Tuple{ans.Strata[0][0], ans.Strata[0][0]}
	dup.Strata[1] = ans.Strata[1]
	if err := dup.Satisfies(q, r); err == nil {
		t.Fatal("want duplicate error")
	}
}

func TestAnswerSatisfiesSmallPopulation(t *testing.T) {
	// Only 1 male exists but freq asks 3: answer with that 1 male is valid.
	r := dataset.NewRelation(demoSchema())
	r.MustAdd(dataset.Tuple{ID: 1, Attrs: []int64{1, 0, 0}})
	r.MustAdd(dataset.Tuple{ID: 2, Attrs: []int64{0, 0, 0}})
	q := NewSSD("Q", Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 3})
	ans := NewAnswer(1)
	ans.Strata[0] = []dataset.Tuple{r.Tuple(0)}
	if err := ans.Satisfies(q, r); err != nil {
		t.Fatal(err)
	}
}

func TestMultiAnswerAssignmentsAndCost(t *testing.T) {
	t1 := dataset.Tuple{ID: 1, Attrs: []int64{0, 0, 0}}
	t2 := dataset.Tuple{ID: 2, Attrs: []int64{1, 0, 0}}
	a1 := NewAnswer(1)
	a1.Strata[0] = []dataset.Tuple{t1, t2}
	a2 := NewAnswer(1)
	a2.Strata[0] = []dataset.Tuple{t1}
	ma := MultiAnswer{a1, a2}

	taus := ma.Assignments()
	if taus[1] != NewTau(0, 1) || taus[2] != NewTau(0) {
		t.Fatalf("Assignments = %v", taus)
	}
	pc := PenaltyCosts{Interview: 4}
	// t1 shared (one interview), t2 alone: total $8.
	if got := ma.Cost(pc); got != 8 {
		t.Fatalf("Cost = %g", got)
	}
	hist := ma.SharingHistogram()
	if hist[1] != 1 || hist[2] != 1 {
		t.Fatalf("SharingHistogram = %v", hist)
	}
	if ma.UniqueIndividuals() != 2 {
		t.Fatalf("UniqueIndividuals = %d", ma.UniqueIndividuals())
	}
}

func TestMSSDValidate(t *testing.T) {
	schema := demoSchema()
	m := NewMSSD(PenaltyCosts{Interview: 4}, demoSSD())
	if err := m.Validate(schema); err != nil {
		t.Fatal(err)
	}
	if m.TotalFreq() != 5 {
		t.Fatalf("TotalFreq = %d", m.TotalFreq())
	}
	if err := (&MSSD{}).Validate(schema); err == nil {
		t.Fatal("want error for empty MSSD")
	}
	noCost := &MSSD{Queries: []*SSD{demoSSD()}}
	if err := noCost.Validate(schema); err == nil {
		t.Fatal("want error for missing costs")
	}
}
