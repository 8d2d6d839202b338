package serve

import (
	"container/list"
	"sync"

	"parapriori/internal/rules"
)

// lruCache is a size-bounded LRU over query results, keyed by canonical
// basket bytes plus K (see appendCacheKey).  One cache belongs to exactly
// one snapshot: Publish installs a fresh cache with the new index, so a
// snapshot swap invalidates every cached result by construction — there is
// no cross-generation staleness to reason about and no flush path to get
// wrong.  A single mutex guards the map+list; entries are immutable once
// stored, so the critical sections are pointer moves.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key string
	val []rules.Rule
}

// newLRU returns a cache bounded to capacity entries, or nil when capacity
// is negative (caching disabled).
func newLRU(capacity int) *lruCache {
	if capacity < 0 {
		return nil
	}
	return &lruCache{
		cap:     capacity,
		entries: make(map[string]*list.Element, capacity),
		order:   list.New(),
	}
}

// get returns the cached result for key, marking it most recently used.
// The returned slice is shared: callers must treat it as read-only.  The
// key is looked up as bytes, so a hit never allocates its string.
func (c *lruCache) get(key []byte) ([]rules.Rule, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(key)]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put stores a result, evicting the least recently used entry when full.
// The value becomes cache-owned: callers must not modify it afterwards.
func (c *lruCache) put(key string, val []rules.Rule) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).key)
		}
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
}

// len returns the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
