package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"easypap/internal/core"
)

// resultCache is the daemon's result cache: completed performance-mode
// runs keyed by the canonical hash of their normalized core.Config
// (core.Config.Hash). Repeat submissions of the same computation are
// answered instantly from here — the paper's workflow of re-running the
// same configuration while exploring parameters makes this the single
// highest-leverage optimization a serving frontend can apply.
//
// Eviction is LRU with a fixed entry capacity; results are a few hundred
// bytes each, so the default capacity costs practically nothing.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // hash -> element whose Value is *cacheEntry

	// hits and misses are counted by the lookups that answer a job (the
	// Submit ladder, the runner's re-read), not by get itself.
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	hash   string
	result core.Result
}

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		capacity = 128
	}
	return &resultCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached result for hash.
func (c *resultCache) get(hash string) (core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[hash]
	if !ok {
		return core.Result{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).result, true
}

// put stores a result, evicting the least recently used entry beyond
// capacity.
func (c *resultCache) put(hash string, r core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		el.Value.(*cacheEntry).result = r
		c.order.MoveToFront(el)
		return
	}
	c.entries[hash] = c.order.PushFront(&cacheEntry{hash: hash, result: r})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).hash)
	}
}

// len returns the number of cached results.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
