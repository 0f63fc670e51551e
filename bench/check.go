package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/live"
	"repro/internal/query"
)

// The answer checker. It runs on the client's goroutine after the op's
// latency has been recorded, so it is think time, never latency. Any
// violation makes the op a failed op.

// sampleAnswer is the part of a /v1/sample response the checker reads.
type sampleAnswer struct {
	Cached bool `json:"cached"`
	Live   bool `json:"live"`
	Strata []struct {
		Count       int      `json:"count"`
		Individuals []string `json:"individuals"`
	} `json:"strata"`
	LiveMeta []live.StratumMeta `json:"live_meta"`
}

// drift bounds how far a live stratum may have moved from its set-up size:
// at most one member per mutation op sent so far, either way. Zero on a
// static population.
type drift struct{ ops int }

// checkSample judges a response body against its template.
func (t *template) checkSample(body []byte, d drift) error {
	var ans sampleAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if ans.Live {
		return fmt.Errorf("ad-hoc query answered from a standing reservoir")
	}
	if len(ans.Strata) != len(t.Sizes) {
		return fmt.Errorf("answer has %d strata, query has %d", len(ans.Strata), len(t.Sizes))
	}
	for k := range ans.Strata {
		s, freq := &ans.Strata[k], t.Q.Strata[k].Freq
		lo, hi := min(freq, max(t.Sizes[k]-d.ops, 0)), min(freq, t.Sizes[k]+d.ops)
		if s.Count < lo || s.Count > hi {
			return fmt.Errorf("stratum %d: count %d, want min(freq %d, |stratum| %d±%d)", k+1, s.Count, freq, t.Sizes[k], d.ops)
		}
		if err := t.checkIndividuals(k, s.Count, s.Individuals); err != nil {
			return err
		}
	}
	return nil
}

// checkWarm judges a standing query's warm answer: it may lag exact fill by
// at most the uncompensated deletions the daemon itself reports, and those
// stay within the staleness bound.
func (t *template) checkWarm(body []byte, bound int) error {
	var ans sampleAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if !ans.Live {
		return fmt.Errorf("standing query was not answered warm")
	}
	if len(ans.Strata) != len(t.Sizes) || len(ans.LiveMeta) != len(t.Sizes) {
		return fmt.Errorf("warm answer has %d strata and %d metas, query has %d", len(ans.Strata), len(ans.LiveMeta), len(t.Sizes))
	}
	for k := range ans.Strata {
		s, m, freq := &ans.Strata[k], ans.LiveMeta[k], t.Q.Strata[k].Freq
		if m.Staleness > bound {
			return fmt.Errorf("stratum %d: staleness %d over the bound %d", k+1, m.Staleness, bound)
		}
		full := min(freq, m.Members)
		if s.Count > full || s.Count < full-m.Staleness {
			return fmt.Errorf("stratum %d: count %d, want min(freq %d, members %d) less at most staleness %d", k+1, s.Count, freq, m.Members, m.Staleness)
		}
		if err := t.checkIndividuals(k, s.Count, s.Individuals); err != nil {
			return err
		}
	}
	return nil
}

// checkIndividuals checks stratum k's listed individuals: as many as counted,
// distinct, each satisfying the stratum's condition.
func (t *template) checkIndividuals(k, count int, individuals []string) error {
	if len(individuals) != count {
		return fmt.Errorf("stratum %d: count %d but %d individuals", k+1, count, len(individuals))
	}
	seen := make(map[int64]struct{}, len(individuals))
	for _, ind := range individuals {
		tup, err := parseIndividual(ind)
		if err != nil {
			return fmt.Errorf("stratum %d: %w", k+1, err)
		}
		if _, dup := seen[tup.ID]; dup {
			return fmt.Errorf("stratum %d: individual #%d selected twice", k+1, tup.ID)
		}
		seen[tup.ID] = struct{}{}
		if len(tup.Attrs) != t.fields {
			return fmt.Errorf("stratum %d: individual #%d has %d attributes, schema has %d", k+1, tup.ID, len(tup.Attrs), t.fields)
		}
		if !t.preds[k](&tup) {
			return fmt.Errorf("stratum %d: individual #%d does not satisfy %s", k+1, tup.ID, t.Q.Strata[k].Cond)
		}
	}
	return nil
}

// parseIndividual reads dataset.Tuple's String form, "#id(name)[a b c]".
func parseIndividual(s string) (dataset.Tuple, error) {
	var t dataset.Tuple
	open, end := strings.IndexByte(s, '['), strings.LastIndexByte(s, ']')
	if !strings.HasPrefix(s, "#") || open < 0 || end < open {
		return t, fmt.Errorf("malformed individual %q", s)
	}
	head := s[1:open]
	if p := strings.IndexByte(head, '('); p >= 0 {
		t.Name = strings.TrimSuffix(head[p+1:], ")")
		head = head[:p]
	}
	id, err := strconv.ParseInt(head, 10, 64)
	if err != nil {
		return t, fmt.Errorf("malformed individual %q: %w", s, err)
	}
	t.ID = id
	for _, f := range strings.Fields(s[open+1 : end]) {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return t, fmt.Errorf("malformed individual %q: %w", s, err)
		}
		t.Attrs = append(t.Attrs, v)
	}
	return t, nil
}

// sameIndividuals compares a response with a directly computed answer, tuple
// for tuple: the daemon's promise that a lone query is byte-identical to
// `strata sample`.
func sameIndividuals(body []byte, want *query.Answer) error {
	var ans sampleAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if len(ans.Strata) != len(want.Strata) {
		return fmt.Errorf("answer has %d strata, direct RunSQE has %d", len(ans.Strata), len(want.Strata))
	}
	for k := range want.Strata {
		got := ans.Strata[k].Individuals
		if len(got) != len(want.Strata[k]) {
			return fmt.Errorf("stratum %d: %d individuals, direct RunSQE has %d", k+1, len(got), len(want.Strata[k]))
		}
		for i, tup := range want.Strata[k] {
			if got[i] != tup.String() {
				return fmt.Errorf("stratum %d individual %d: %s, direct RunSQE has %s", k+1, i, got[i], tup.String())
			}
		}
	}
	return nil
}

// checkAnswer judges one in-process answer (batch_cps_1e5) the same way:
// exact fill, distinct individuals, each in its stratum.
func (t *template) checkAnswer(ans *query.Answer) error {
	if len(ans.Strata) != len(t.Sizes) {
		return fmt.Errorf("answer has %d strata, query has %d", len(ans.Strata), len(t.Sizes))
	}
	for k, stratum := range ans.Strata {
		if want := min(t.Q.Strata[k].Freq, t.Sizes[k]); len(stratum) != want {
			return fmt.Errorf("stratum %d: %d individuals, want min(freq %d, |stratum| %d)", k+1, len(stratum), t.Q.Strata[k].Freq, t.Sizes[k])
		}
		seen := make(map[int64]struct{}, len(stratum))
		for i := range stratum {
			if _, dup := seen[stratum[i].ID]; dup {
				return fmt.Errorf("stratum %d: individual #%d selected twice", k+1, stratum[i].ID)
			}
			seen[stratum[i].ID] = struct{}{}
			if !t.preds[k](&stratum[i]) {
				return fmt.Errorf("stratum %d: individual #%d does not satisfy %s", k+1, stratum[i].ID, t.Q.Strata[k].Cond)
			}
		}
	}
	return nil
}
