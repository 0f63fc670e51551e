package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// resultSet is the file `bench all` writes: every workload's metrics, one
// value per run, with the environment they were measured in.
type resultSet struct {
	Environment environment                `json:"environment"`
	Seed        int64                      `json:"seed"`
	Seconds     float64                    `json:"seconds"`
	Runs        int                        `json:"runs"`
	Results     map[string]*workloadResult `json:"results"`
}

type workloadResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Noisy is set when the machine was busy before a run of this workload
	// started, even after waiting.
	Noisy   bool                 `json:"noisy"`
	LoadAvg []float64            `json:"loadavg_before"`
	Ops     map[string]int       `json:"ops"`
	Metrics map[string][]float64 `json:"metrics"`
}

func (r *workloadResult) add(run *runResult) {
	r.Attempted += run.Attempted
	r.Failed += run.Failed
	r.LoadAvg = append(r.LoadAvg, run.LoadAvg)
	for class, n := range run.Ops {
		r.Ops[class] += n
	}
	for name, x := range run.Metrics {
		// A traced run repeats the class metrics of its reference leg; the
		// untraced run's full-length reading is the one kept.
		if run.Traced && isClassMetric(name) && len(r.Metrics[name]) > 0 {
			continue
		}
		r.Metrics[name] = append(r.Metrics[name], x)
	}
}

func isClassMetric(name string) bool {
	for _, d := range classMetrics {
		if d.Name == name {
			return true
		}
	}
	return false
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares one (metric, workload) row: b against the baseline a.
func judge(d metricDef, a, b []float64) (verdict, float64) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	// worseBy is how much worse b's median is, as a share of a's.
	worseBy := sign * (mb - ma)
	if ma != 0 {
		worseBy /= ma
	}
	if d.Name == "failed_ratio" {
		// Any increase is a regression; fewer failures are not a gain to claim.
		if mb > ma {
			return worse, worseBy
		}
		return same, worseBy
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		if allBetter(sign, a, b) {
			return better, worseBy
		}
		return unresolved, worseBy
	}
	switch {
	case worseBy > d.Bound:
		return worse, worseBy
	case worseBy < -d.Bound:
		return better, worseBy
	}
	return same, worseBy
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(sign float64, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareSets applies each gated metric's bound and direction to every
// (metric, workload) row present in both sets and prints the verdicts. It
// reports whether any row got worse.
func compareSets(a, b *resultSet) (regressed bool) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbaseline\tchange\tworse by\tbound\tspread a/b\tverdict")
	names := make([]string, 0, len(a.Results))
	for name := range a.Results {
		if b.Results[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	gated := append(append([]metricDef(nil), endToEnd...), classMetrics...)
	for _, w := range names {
		ra, rb := a.Results[w], b.Results[w]
		for _, d := range gated {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worseBy := judge(d, va, vb)
			if v == worse {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%.1f%%/%.1f%%\t%s\n",
				w, d.Name, d.Unit, median(va), median(vb), 100*worseBy, 100*d.Bound,
				100*spread(va), 100*spread(vb), v)
		}
	}
	tw.Flush()
	return regressed
}
