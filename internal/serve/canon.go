package serve

import (
	"strconv"

	"repro/internal/predicate"
	"repro/internal/query"
)

// Query canonicalization. The result cache, the batcher's single-flight dedup
// and the live key identify queries by *meaning*, not by text: two
// submissions whose strata select the same individuals with the same
// frequencies must share one cache entry and one slot in a coalesced pass.
// The canonical form is the key of the query's classifier — the lowering
// validation already built (predicate.Classifier.Key: its cell grid coarsened
// to the cuts that separate two strata somewhere, and the stratum of every
// remaining cell) — followed by the frequencies.
//
// The mapping is sound and complete: equal keys hold exactly when the strata
// class every tuple within the schema's domains alike. Together with the
// engine's representation-independent execution (stratum predicates only
// decide which match list a row joins; RNG streams are keyed by task index and
// stratum index, never by the formula text or the query name) this makes
// answers byte-identical across textual variants, which is what lets the
// cache substitute one variant's answer for another.

// canonicalSSD returns the canonical cache/dedup key of an SSD query from its
// classifier. The query's name is deliberately excluded: it labels the survey
// but does not change its answer. Stratum order is kept, because answers are
// indexed by stratum position.
func canonicalSSD(q *query.SSD, c *predicate.Classifier) string {
	key := []byte(c.Key())
	for i, s := range q.Strata {
		if i == 0 {
			key = append(key, '=')
		} else {
			key = append(key, ',')
		}
		key = strconv.AppendInt(key, int64(s.Freq), 10)
	}
	return string(key)
}
