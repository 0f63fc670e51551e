package serve

import (
	"fmt"
	"testing"

	"repro/internal/query"
)

func newAnswer() *query.Answer { return query.NewAnswer(1) }

// TestCacheIgnoresPutAtOlderEpoch: an answer whose batch was admitted before
// the cache moved on is not stored.
func TestCacheIgnoresPutAtOlderEpoch(t *testing.T) {
	c := newResultCache(8)
	k, cur := cacheKey{canon: "q", seed: 1}, newAnswer()
	if dropped := c.put(3, k, cur); dropped != 0 {
		t.Fatalf("first put dropped %d", dropped)
	}
	if dropped := c.put(2, cacheKey{canon: "old", seed: 1}, newAnswer()); dropped != 0 {
		t.Fatalf("stale put dropped %d", dropped)
	}
	if n := c.len(); n != 1 {
		t.Fatalf("%d entries after a stale put, want 1", n)
	}
	if _, ok, _ := c.get(3, cacheKey{canon: "old", seed: 1}); ok {
		t.Fatal("stale put was stored")
	}
	if ans, ok, _ := c.get(3, k); !ok || ans != cur {
		t.Fatal("current entry lost")
	}
}

// TestCacheNewerEpochDropsEverything: a get or a put at a newer epoch drops
// every entry and reports how many.
func TestCacheNewerEpochDropsEverything(t *testing.T) {
	for _, via := range []string{"get", "put", "advance"} {
		t.Run(via, func(t *testing.T) {
			c := newResultCache(8)
			for i := range 5 {
				c.put(1, cacheKey{canon: fmt.Sprint(i), seed: 1}, newAnswer())
			}
			k := cacheKey{canon: "0", seed: 1}
			var dropped int
			switch via {
			case "get":
				var ok bool
				if _, ok, dropped = c.get(2, k); ok {
					t.Fatal("a newer epoch hit an older entry")
				}
			case "put":
				dropped = c.put(2, k, newAnswer())
			case "advance":
				dropped = c.advance(2)
			}
			if dropped != 5 {
				t.Fatalf("moving to a newer epoch dropped %d, want 5", dropped)
			}
			want := 0
			if via == "put" {
				want = 1
			}
			if n := c.len(); n != want {
				t.Fatalf("%d entries after the move, want %d", n, want)
			}
			if again := c.advance(2); again != 0 {
				t.Fatalf("staying at the epoch dropped %d", again)
			}
		})
	}
}

// TestCacheGetAtOlderEpochMisses: a request that read the effective epoch
// before a move is not served the newer epoch's answer, nor does it move the
// cache back.
func TestCacheGetAtOlderEpochMisses(t *testing.T) {
	c := newResultCache(8)
	k, five := cacheKey{canon: "q", seed: 1}, newAnswer()
	c.put(5, k, five)
	if _, ok, dropped := c.get(4, k); ok || dropped != 0 {
		t.Fatalf("get at an older epoch: hit %v, dropped %d", ok, dropped)
	}
	if ans, ok, _ := c.get(5, k); !ok || ans != five {
		t.Fatal("the older get disturbed the current epoch")
	}
}

// TestCacheLRUWithinEpoch: inside one epoch the cache is the bounded LRU it
// always was.
func TestCacheLRUWithinEpoch(t *testing.T) {
	c := newResultCache(3)
	key := func(i int) cacheKey { return cacheKey{canon: fmt.Sprint(i), seed: 1} }
	for i := range 3 {
		c.put(1, key(i), newAnswer())
	}
	c.get(1, key(0)) // 1 is now the least recently used
	c.put(1, key(3), newAnswer())
	if n := c.len(); n != 3 {
		t.Fatalf("%d entries, bound is 3", n)
	}
	if _, ok, _ := c.get(1, key(1)); ok {
		t.Fatal("the least recently used entry survived an eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok, _ := c.get(1, key(i)); !ok {
			t.Fatalf("entry %d evicted", i)
		}
	}
	if _, ok, _ := c.get(1, cacheKey{canon: "0", seed: 2}); ok {
		t.Fatal("the seed is not part of the key")
	}
}
