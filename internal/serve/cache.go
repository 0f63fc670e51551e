package serve

import (
	"container/list"
	"sync"

	"repro/internal/query"
)

// cacheKey identifies one answer within an epoch: the canonical query form
// (see canon.go) and the sampling seed. The batcher dedups a batch's entries
// on it too; the epoch is a property of the batch and of the cache, never of
// the key.
type cacheKey struct {
	canon string
	seed  int64
}

// resultCache is a mutex-guarded LRU of computed answers that holds exactly
// one epoch: the newest effective epoch (see Server.effectiveEpoch) any get,
// put or advance has presented. Presenting a newer epoch drops every entry
// in O(1) — a fresh map and list, no scan — because no request can ask for
// an older epoch's answers again; keeping them would only pin their samples'
// tuples. Answers are immutable once published (the batcher never mutates an
// answer after closing the entry), so the cache hands out shared pointers.
type resultCache struct {
	mu    sync.Mutex
	max   int
	epoch int64
	order *list.List // front = most recently used; values are *cacheEntry
	byKey map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	ans *query.Answer
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{max: max, order: list.New(), byKey: make(map[cacheKey]*list.Element)}
}

// advanceLocked moves the cache to epoch e. It reports whether e is the
// cache's epoch afterwards (false: e is older) and how many entries a move
// to a newer epoch dropped.
func (c *resultCache) advanceLocked(e int64) (current bool, dropped int) {
	if e < c.epoch {
		return false, 0
	}
	if e > c.epoch {
		c.epoch = e
		dropped = c.order.Len()
		if dropped > 0 {
			c.order = list.New()
			c.byKey = make(map[cacheKey]*list.Element)
		}
	}
	return true, dropped
}

// advance moves the cache to epoch e and reports how many entries it
// dropped: all of them if e is newer, none otherwise.
func (c *resultCache) advance(e int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, dropped := c.advanceLocked(e)
	return dropped
}

// get returns the answer cached for k at epoch e, refreshing its recency; a
// get at an older epoch than the cache's misses. It also reports how many
// entries moving to e dropped.
func (c *resultCache) get(e int64, k cacheKey) (ans *query.Answer, ok bool, dropped int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	current, dropped := c.advanceLocked(e)
	if !current {
		return nil, false, 0
	}
	el, ok := c.byKey[k]
	if !ok {
		return nil, false, dropped
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).ans, true, dropped
}

// put stores an answer computed at epoch e, evicting the least recently used
// entry when full, and reports how many entries moving to e dropped. A put at
// an older epoch than the cache's stores nothing: its batch was admitted
// before the population moved on.
func (c *resultCache) put(e int64, k cacheKey, ans *query.Answer) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	current, dropped := c.advanceLocked(e)
	if !current {
		return 0
	}
	if el, ok := c.byKey[k]; ok {
		el.Value.(*cacheEntry).ans = ans
		c.order.MoveToFront(el)
		return dropped
	}
	c.byKey[k] = c.order.PushFront(&cacheEntry{key: k, ans: ans})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
	return dropped
}

// len reports the number of cached answers.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
