package mapreduce

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// histogramBuckets is the number of power-of-two buckets a Histogram keeps:
// bucket 0 holds non-positive observations, bucket i (1 ≤ i ≤ 64) holds
// values v with 2^(i-1) ≤ v < 2^i, i.e. bits.Len64(v) == i.
const histogramBuckets = 65

// Histogram is a fixed-memory log₂-bucket histogram of int64 observations
// (nanoseconds, bytes, record counts, ...). The zero value is ready to use.
// Buckets double in width, so relative resolution is a constant factor of 2
// at every scale — enough to read off task-latency and bucket-size shapes
// without per-run configuration. Histograms are value types: copy, Merge and
// compare them freely. Observe is not safe for concurrent use; the engine
// fills per-task histograms and merges them serially, so Metrics stays
// deterministic.
type Histogram struct {
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histogramBuckets]int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
}

func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketUpperBound is the largest value bucket i can hold.
func bucketUpperBound(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<i - 1
}

// Count is the number of observations.
func (h Histogram) Count() int64 { return h.count }

// Sum is the total of all observations.
func (h Histogram) Sum() int64 { return h.sum }

// Min is the smallest observation (0 when empty).
func (h Histogram) Min() int64 { return h.min }

// Max is the largest observation (0 when empty).
func (h Histogram) Max() int64 { return h.max }

// Mean is the average observation (0 when empty).
func (h Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Merge folds another histogram into this one.
func (h *Histogram) Merge(o Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// bucketLowerBound is the smallest positive value bucket i can hold (the
// non-positive bucket 0 reports 0; its true lower edge is the observed min).
func bucketLowerBound(i int) int64 {
	if i <= 1 {
		return int64(i) // bucket 0 → 0, bucket 1 → [1,1]
	}
	return int64(1) << (i - 1)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts. The
// target rank's bucket is found by cumulative count; within that bucket the
// answer is linearly interpolated between the bucket's bounds (clamped to the
// observed min/max) assuming the bucket's observations are evenly spread.
// Interpolation removes the power-of-two jumps the old upper-bound answer had:
// as q sweeps 0→1 the estimate moves smoothly through each bucket instead of
// snapping to 2^i−1, while staying within the same factor-of-2 error envelope.
func (h Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count-1)
	target := int64(rank)
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen > target {
			lo, hi := bucketLowerBound(i), bucketUpperBound(i)
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			if hi <= lo {
				return hi
			}
			// The bucket's c observations occupy ranks [seen−c, seen−1];
			// place the fractional rank proportionally between them. A
			// single-observation bucket has no spread to interpolate over,
			// so estimate its midpoint.
			frac := 0.5
			if c > 1 {
				frac = (rank - float64(seen-c)) / float64(c-1)
				if frac < 0 {
					frac = 0
				} else if frac > 1 {
					frac = 1
				}
			}
			return lo + int64(math.Round(frac*float64(hi-lo)))
		}
	}
	return h.max
}

// HistogramBucket is one non-empty bucket in a histogram's JSON form: Count
// observations no larger than Le (and larger than the previous bucket's Le).
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending bound order.
func (h Histogram) Buckets() []HistogramBucket {
	var out []HistogramBucket
	for i, c := range h.buckets {
		if c != 0 {
			out = append(out, HistogramBucket{Le: bucketUpperBound(i), Count: c})
		}
	}
	return out
}

// histogramJSON is the wire form of a Histogram.
type histogramJSON struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// MarshalJSON renders the histogram as summary fields plus its non-empty
// buckets; UnmarshalJSON reverses it exactly (the representation round-trips).
func (h Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{
		Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Buckets: h.Buckets(),
	})
}

// UnmarshalJSON reverses MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*h = Histogram{count: w.Count, sum: w.Sum, min: w.Min, max: w.Max}
	for _, b := range w.Buckets {
		i := bucketIndex(b.Le)
		if bucketUpperBound(i) != b.Le {
			return fmt.Errorf("mapreduce: histogram bucket bound %d is not of the form 2^i-1", b.Le)
		}
		h.buckets[i] = b.Count
	}
	return nil
}

// String renders a one-line summary: count, mean and the quartile spread.
func (h Histogram) String() string {
	if h.count == 0 {
		return "empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f min=%d p50≤%d p90≤%d max=%d",
		h.count, h.Mean(), h.min, h.Quantile(0.5), h.Quantile(0.9), h.max)
	return b.String()
}
