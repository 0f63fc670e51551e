package serve

import (
	"sync"
	"time"
)

// quotaTable enforces per-tenant admission quotas with one token bucket per
// tenant: a bucket holds up to burst tokens, refills at rate tokens/second,
// and every admitted query spends one. A zero rate disables quotas entirely.
//
// Buckets are created on first sight of a tenant, so the table's memory is
// proportional to the number of distinct tenants; maxTenants caps that
// against unbounded tenant-name cardinality (beyond the cap, unknown tenants
// share one overflow bucket, which fails closed under pressure rather than
// open). Rejections are counted per bucket charged, so the cap bounds the
// tenant label set of /metrics too.
type quotaTable struct {
	rate  float64 // tokens per second; <= 0 disables
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket

	now func() time.Time // injectable for tests
}

const maxTenants = 10000

// overflowTenant is the shared bucket used once maxTenants distinct tenants
// have been seen. It is also a label value of /metrics and a key of /v1/stats,
// hence printable; a client that names itself so merely shares the bucket.
const overflowTenant = "(overflow)"

type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newQuotaTable(rate float64, burst int) *quotaTable {
	if burst < 1 {
		burst = 1
	}
	return &quotaTable{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*tokenBucket),
		now:     time.Now,
	}
}

// allow spends one token from the tenant's bucket, reporting the bucket it
// charged — the tenant's own or the overflow bucket — and whether the query
// is admitted.
func (q *quotaTable) allow(tenant string) (charged string, ok bool) {
	if q == nil || q.rate <= 0 {
		return tenant, true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	b, known := q.buckets[tenant]
	if !known {
		if len(q.buckets) >= maxTenants {
			tenant = overflowTenant
			b = q.buckets[tenant]
		}
		if b == nil {
			b = &tokenBucket{tokens: q.burst, last: q.now()}
			q.buckets[tenant] = b
		}
	}
	now := q.now()
	b.tokens += now.Sub(b.last).Seconds() * q.rate
	b.last = now
	if b.tokens > q.burst {
		b.tokens = q.burst
	}
	if b.tokens < 1 {
		return tenant, false
	}
	b.tokens--
	return tenant, true
}
