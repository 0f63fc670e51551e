package mapreduce

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// Min is the smallest observation (0 when empty).
func (h Histogram) Min() int64 { return h.min }

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.String() != "empty" || h.Quantile(0.5) != 0 {
		t.Fatal("zero histogram not empty")
	}
	for _, v := range []int64{1, 2, 3, 100, 1000, 0, -5} {
		h.Observe(v)
	}
	if h.Count() != 7 || h.Sum() != 1101 || h.Min() != -5 || h.Max() != 1000 {
		t.Fatalf("summary wrong: %s", h.String())
	}
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %d, want max 1000", q)
	}
	if q := h.Quantile(0); q != -5 {
		t.Fatalf("p0 = %d, want min -5", q)
	}
	// p50 of {-5,0,1,2,3,100,1000} is 2; the bucket bound answer must be
	// within a factor of 2 (bucket [2,3]).
	if q := h.Quantile(0.5); q < 2 || q > 3 {
		t.Fatalf("p50 = %d, want in [2,3]", q)
	}
}

// TestHistogramQuantileInterpolation pins the within-bucket linear
// interpolation: on uniformly spread data the estimate lands on (essentially)
// the true order statistic instead of snapping to the bucket's 2^i−1 upper
// bound, and the estimate is monotone in q.
func TestHistogramQuantileInterpolation(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	// Old behavior returned bucket upper bounds: p50=511, p90=1000 (clamped
	// from 1023). Interpolation pins the uniform data's near-exact answers
	// (the p50's fractional rank 499.5 lands between 500 and 501 and rounds
	// half away from zero).
	if q := h.Quantile(0.5); q != 501 {
		t.Fatalf("p50 = %d, want 501", q)
	}
	if q := h.Quantile(0.9); q != 900 {
		t.Fatalf("p90 = %d, want 900", q)
	}
	if q := h.Quantile(0.99); q != 990 {
		t.Fatalf("p99 = %d, want 990", q)
	}

	// Monotone in q, and always inside the observed range.
	prev := h.Quantile(0)
	for q := 0.01; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone: q=%.2f gave %d after %d", q, v, prev)
		}
		if v < h.Min() || v > h.Max() {
			t.Fatalf("Quantile(%.2f) = %d outside [%d,%d]", q, v, h.Min(), h.Max())
		}
		prev = v
	}

	// A single observation is its own every-quantile (the min/max clamp
	// collapses the bucket to the point).
	var one Histogram
	one.Observe(10)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if v := one.Quantile(q); v != 10 {
			t.Fatalf("single-observation Quantile(%.2f) = %d, want 10", q, v)
		}
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 5, 5, 128, 1 << 40, math.MaxInt64, -9} {
		h.Observe(v)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, back) {
		t.Fatalf("round trip changed histogram: %s vs %s", h, back)
	}
	if err := back.UnmarshalJSON([]byte(`{"count":1,"buckets":[{"le":5,"count":1}]}`)); err == nil {
		t.Fatal("accepted a bucket bound that is not 2^i-1")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(4)
	a.Observe(1000)
	b.Observe(-1)
	b.Observe(7)
	a.Merge(b)
	if a.Count() != 4 || a.Min() != -1 || a.Max() != 1000 || a.Sum() != 1010 {
		t.Fatalf("merge wrong: %s", a.String())
	}
	var empty Histogram
	a.Merge(empty)
	if a.Count() != 4 {
		t.Fatal("merging empty changed count")
	}
	empty.Merge(a)
	if !reflect.DeepEqual(empty, a) {
		t.Fatal("merge into empty lost state")
	}
}

// TestHistogramMergeJSONRoundTrip is the audit-aggregation contract: per-run
// histograms serialized into metrics JSON can be decoded and merged across
// runs without re-bucketing, and the aggregate itself round-trips.
func TestHistogramMergeJSONRoundTrip(t *testing.T) {
	runs := [][]int64{
		{1, 5, 5, 64},
		{-3, 0, 7, 1 << 20},
		{2, 2, 2, math.MaxInt64},
	}
	var direct Histogram // everything observed into one histogram
	var merged Histogram // per-run histograms, JSON round-tripped, then merged
	for _, vs := range runs {
		var h Histogram
		for _, v := range vs {
			h.Observe(v)
			direct.Observe(v)
		}
		data, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var back Histogram
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		merged.Merge(back)
	}
	if !reflect.DeepEqual(direct, merged) {
		t.Fatalf("merge of round-tripped runs diverged: %s vs %s", direct, merged)
	}
	data, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, back) {
		t.Fatalf("aggregate round trip changed histogram: %s vs %s", merged, back)
	}
	if back.Count() != 12 || back.Min() != -3 || back.Max() != math.MaxInt64 {
		t.Fatalf("aggregate summary wrong: %s", back)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	cases := []struct {
		v  int64
		le int64
	}{
		{0, 0}, {-3, 0}, {1, 1}, {2, 3}, {3, 3}, {4, 7}, {1023, 1023}, {1024, 2047},
		{math.MaxInt64, math.MaxInt64},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.v)
		bs := h.Buckets()
		if len(bs) != 1 || bs[0].Le != c.le || bs[0].Count != 1 {
			t.Fatalf("Observe(%d) → buckets %v, want le=%d", c.v, bs, c.le)
		}
	}
}
