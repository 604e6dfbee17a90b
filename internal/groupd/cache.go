package groupd

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// planKey identifies one cached column program: a group at a specific
// generation, planned under a specific fault-policy version, on a
// specific backend tier. Generations are monotonic, so a key can never
// refer to two different memberships; a policy change (fault localized,
// quarantine grown) bumps pv, so degraded plans never shadow healthy
// ones; bk keeps a plan from one tier from being served for a group on
// another. A group keeps its tier for life, but a restored or migrated
// group takes the receiving manager's default tier, while snapshots and
// migrations carry BRSMN-tier plans only: without bk, a BRSMN plan
// seeded from a snapshot would be served for a group now on feedback.
// The cache holds at most one key per group, so a superseded key is
// replaced, not retained.
type planKey struct {
	id  string
	gen uint64
	pv  uint64
	bk  uint8 // backend.Tier numeric value
}

type planEntry struct {
	key     planKey
	blob    []byte // plancodec-encoded column program
	columns int
	passes  int // injection passes the program spans (1 for BRSMN)
}

// CacheStats is a point-in-time snapshot of the plan cache's counters —
// the numbers the churn benchmarks watch.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Size          int    `json:"size"`
	Capacity      int    `json:"capacity"`
}

// planCache is a mutex-guarded LRU over encoded column programs,
// indexed by group ID and holding only the newest key per group: a put
// replaces the group's entry unless it carries an older generation
// than the one held (a racing Plan or epoch that planned a generation
// a write has since superseded), which is dropped. Lookups still
// compare the full key, so a held entry only serves its exact
// (gen, pv, tier). A membership change invalidates the old key eagerly,
// but only on an exact match, so it never removes a newer entry; a
// group's footprint is one entry whatever the churn, and eviction is
// left to groups beyond capacity.
//
// The mutex covers only the LRU structure; the counters are sync/atomic
// so Stats can be read lock-free while epoch goroutines churn the cache
// (and so a scrape never contends with the replan path).
type planCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits, misses, evictions, invalidations atomic.Uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// lookup returns the element holding exactly k; c.mu must be held.
func (c *planCache) lookup(k planKey) *list.Element {
	if el, ok := c.items[k.id]; ok && el.Value.(*planEntry).key == k {
		return el
	}
	return nil
}

func (c *planCache) get(k planKey) (planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.lookup(k)
	if el == nil {
		c.misses.Add(1)
		return planEntry{}, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return *el.Value.(*planEntry), true
}

// peek is a stats- and LRU-neutral lookup: the snapshot writer uses it
// to harvest warm plans without skewing hit/miss counters or recency.
func (c *planCache) peek(k planKey) (planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.lookup(k)
	if el == nil {
		return planEntry{}, false
	}
	return *el.Value.(*planEntry), true
}

func (c *planCache) put(k planKey, blob []byte, columns, passes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &planEntry{key: k, blob: blob, columns: columns, passes: passes}
	if el, ok := c.items[k.id]; ok {
		if k.gen < el.Value.(*planEntry).key.gen {
			return
		}
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[k.id] = c.ll.PushFront(e)
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*planEntry).key.id)
		c.evictions.Add(1)
	}
}

// invalidate removes the entry held under exactly k.
func (c *planCache) invalidate(k planKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.lookup(k); el != nil {
		c.ll.Remove(el)
		delete(c.items, k.id)
		c.invalidations.Add(1)
	}
}

// forget removes whatever entry a group holds, whatever its key — for
// a group that has left this manager, whose held key may carry a tier
// or policy version its removal no longer knows.
func (c *planCache) forget(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[id]; ok {
		c.ll.Remove(el)
		delete(c.items, id)
		c.invalidations.Add(1)
	}
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	size := c.ll.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Size:          size,
		Capacity:      c.capacity,
	}
}
