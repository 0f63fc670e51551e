package live

import "repro/internal/mapreduce"

// Stats is a snapshot of the live subsystem's counters, rendered into the
// serve daemon's /v1/stats ("live" section) and /metrics (strata_live_*).
type Stats struct {
	Population int   `json:"population"`
	Queries    int   `json:"standing_queries"`
	Seq        int64 `json:"mutation_seq"`
	Inserts    int64 `json:"inserts"`
	Deletes    int64 `json:"deletes"`
	Updates    int64 `json:"updates"`
	Rejected   int64 `json:"rejected"`
	// Repairs counts stratum reservoir rebuilds; RepairScanned the tuples
	// examined doing them — the cost the staleness bound trades against.
	Repairs       int64 `json:"repairs"`
	RepairScanned int64 `json:"repair_scanned"`
	// MaxStaleness is the highest uncompensated-deletion count any stratum
	// reached (never above the bound; repair fires when it is hit).
	MaxStaleness   int64 `json:"max_staleness"`
	StalenessBound int   `json:"staleness_bound"`
	// CurStaleness is the current worst staleness across all strata.
	CurStaleness int64 `json:"cur_staleness"`
	// NsPerMutation is mean maintenance time per applied mutation across all
	// registered queries — the O(sample) incremental cost.
	NsPerMutation float64 `json:"ns_per_mutation,omitempty"`
	// RepairP99Usec summarizes repair cost.
	RepairP99Usec int64 `json:"repair_p99_us,omitempty"`
}

// Stats snapshots the counters.
func (p *Population) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.statsLocked()
}

func (p *Population) statsLocked() Stats {
	s := Stats{
		Population:     p.members,
		Queries:        len(p.queries),
		Seq:            p.seq.Load(),
		Inserts:        p.inserts,
		Deletes:        p.deletes,
		Updates:        p.updates,
		Rejected:       p.rejected,
		Repairs:        p.repairs,
		RepairScanned:  p.repairScanned,
		MaxStaleness:   p.maxStaleness,
		StalenessBound: p.bound,
	}
	for _, st := range p.queries {
		for _, sr := range st.strata {
			if d := int64(sr.d1 + sr.d2); d > s.CurStaleness {
				s.CurStaleness = d
			}
		}
	}
	if p.maintainMuts > 0 {
		s.NsPerMutation = float64(p.maintainNanos.Sum()) / float64(p.maintainMuts)
	}
	if p.repairNanos.Count() > 0 {
		s.RepairP99Usec = p.repairNanos.Quantile(0.99) / 1000
	}
	return s
}

// WritePrometheus renders the live counters under the strata_live_*
// namespace, read under one lock acquisition so the series of a scrape agree
// (the per-operation mutation counts sum to strata_live_mutation_seq).
func (p *Population) WritePrometheus(pw *mapreduce.PromWriter) {
	p.mu.RLock()
	s := p.statsLocked()
	maintain, repair := p.maintainNanos, p.repairNanos
	p.mu.RUnlock()

	pw.Family("strata_live_mutations_total", "counter", "Applied mutations by operation.")
	pw.Sample("strata_live_mutations_total", s.Inserts, "op", "insert")
	pw.Sample("strata_live_mutations_total", s.Deletes, "op", "delete")
	pw.Sample("strata_live_mutations_total", s.Updates, "op", "update")
	pw.Counter("strata_live_rejected_total", "Mutations rejected (unknown, duplicate or invalid member).", s.Rejected)
	pw.Counter("strata_live_repairs_total", "Stratum reservoir repairs triggered by the staleness bound.", s.Repairs)
	pw.Counter("strata_live_repair_scanned_total", "Tuples scanned by reservoir repairs.", s.RepairScanned)
	pw.Gauge("strata_live_population", "Current population size.", s.Population)
	pw.Gauge("strata_live_standing_queries", "Registered standing queries.", s.Queries)
	pw.Gauge("strata_live_mutation_seq", "Total applied mutations (the mutation epoch).", s.Seq)
	pw.Gauge("strata_live_staleness", "Current worst uncompensated-deletion count across strata.", s.CurStaleness)
	pw.Gauge("strata_live_staleness_max", "Highest staleness any stratum reached.", s.MaxStaleness)
	pw.Gauge("strata_live_staleness_bound", "Configured repair trigger.", s.StalenessBound)
	pw.Histogram("strata_live_maintain_nanos", "Mutation-batch maintenance time across registered queries (ns).", maintain)
	pw.Histogram("strata_live_repair_nanos", "Per-repair reservoir rebuild time (ns).", repair)
}
