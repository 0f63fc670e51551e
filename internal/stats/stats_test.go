package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestChiSquarePKnownValues(t *testing.T) {
	// Reference values (e.g. R: pchisq(x, df, lower.tail=FALSE)).
	cases := []struct {
		chi2 float64
		df   int
		want float64
	}{
		{0, 1, 1},
		{3.841459, 1, 0.05},
		{5.991465, 2, 0.05},
		{16.918978, 9, 0.05},
		{2.705543, 1, 0.10},
		{23.209251, 10, 0.01},
	}
	for _, c := range cases {
		got := ChiSquareP(c.chi2, c.df)
		if math.Abs(got-c.want) > 2e-4 {
			t.Fatalf("ChiSquareP(%g, %d) = %g, want %g", c.chi2, c.df, got, c.want)
		}
	}
}

func TestChiSquareStatErrors(t *testing.T) {
	if _, err := ChiSquareStat([]int64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want length-mismatch error")
	}
	if _, err := ChiSquareStat([]int64{1}, []float64{0}); err == nil {
		t.Fatal("want non-positive expected error")
	}
}

func TestChiSquareUniformPAcceptsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := make([]int64, 10)
	for i := 0; i < 100000; i++ {
		counts[rng.Intn(10)]++
	}
	p, err := ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-3 {
		t.Fatalf("uniform counts rejected: p = %g", p)
	}
}

func TestChiSquareUniformPRejectsSkew(t *testing.T) {
	counts := []int64{1000, 100, 100, 100}
	p, err := ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Fatalf("clearly skewed counts accepted: p = %g", p)
	}
}

func TestChiSquareUniformPDegenerate(t *testing.T) {
	if p, _ := ChiSquareUniformP([]int64{0, 0}); p != 1 {
		t.Fatalf("empty counts: p = %g", p)
	}
	if p, _ := ChiSquareUniformP([]int64{5}); p != 1 {
		t.Fatalf("single cell: p = %g", p)
	}
}

func TestHypergeometricPMFSumsToOne(t *testing.T) {
	const r, c, x = 30, 12, 7
	var sum float64
	for y := int64(0); y <= c; y++ {
		sum += HypergeometricPMF(r, c, x, y)
	}
	if math.Abs(sum-1) > 1e-10 {
		t.Fatalf("pmf sums to %g", sum)
	}
}

func TestHypergeometricKnownValue(t *testing.T) {
	// P(Y=1) drawing 2 from 5 with 2 marked: C(2,1)C(3,1)/C(5,2) = 6/10.
	got := HypergeometricPMF(5, 2, 2, 1)
	if math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("pmf = %g, want 0.6", got)
	}
	if HypergeometricPMF(5, 2, 2, 3) != 0 {
		t.Fatal("impossible outcome must have probability 0")
	}
}

// TestHypergeometricMoments: the pmf's mean and variance are the closed
// forms E[Y] = x·c/r and Var[Y] = x·(c/r)·(1−c/r)·(r−x)/(r−1).
func TestHypergeometricMoments(t *testing.T) {
	const r, c, x = 50, 20, 10
	const p = float64(c) / r
	mean, variance := float64(x)*p, float64(x)*p*(1-p)*(r-x)/(r-1)
	if math.Abs(mean-4) > 1e-12 {
		t.Fatalf("mean = %g, want 4", mean)
	}
	var m, v float64
	for y := int64(0); y <= c; y++ {
		p := HypergeometricPMF(r, c, x, y)
		m += float64(y) * p
	}
	for y := int64(0); y <= c; y++ {
		p := HypergeometricPMF(r, c, x, y)
		v += (float64(y) - m) * (float64(y) - m) * p
	}
	if math.Abs(m-mean) > 1e-9 || math.Abs(v-variance) > 1e-9 {
		t.Fatalf("moments disagree: pmf (%g, %g) vs closed form (%g, %g)", m, v, mean, variance)
	}
}

func TestMoments(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Fatalf("Mean = %g", Mean(xs))
	}
	if math.Abs(Variance(xs)-2.5) > 1e-12 {
		t.Fatalf("Variance = %g", Variance(xs))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate moments wrong")
	}
}

func TestPearsonCorr(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if c := PearsonCorr(xs, ys); math.Abs(c-1) > 1e-12 {
		t.Fatalf("perfect correlation = %g", c)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if c := PearsonCorr(xs, neg); math.Abs(c+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %g", c)
	}
	if c := PearsonCorr(xs, []float64{1, 1, 1, 1, 1}); c != 0 {
		t.Fatalf("degenerate correlation = %g", c)
	}
	if c := PearsonCorr(xs, []float64{1}); c != 0 {
		t.Fatalf("mismatched lengths = %g", c)
	}
}
