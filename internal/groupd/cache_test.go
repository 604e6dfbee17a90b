package groupd

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"brsmn/internal/backend"
)

func TestPlanCacheLRUOrder(t *testing.T) {
	c := newPlanCache(2)
	c.put(planKey{"a", 1, 0, 1}, []byte{1}, 1, 1)
	c.put(planKey{"b", 1, 0, 1}, []byte{2}, 1, 1)
	// Touch a so b becomes the LRU victim.
	if _, ok := c.get(planKey{"a", 1, 0, 1}); !ok {
		t.Fatal("a missing")
	}
	c.put(planKey{"c", 1, 0, 1}, []byte{3}, 1, 1)
	if _, ok := c.get(planKey{"b", 1, 0, 1}); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.get(planKey{"a", 1, 0, 1}); !ok {
		t.Fatal("a evicted despite recent use")
	}
	st := c.stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPlanCachePutOverwrites(t *testing.T) {
	c := newPlanCache(4)
	k := planKey{"g", 7, 0, 1}
	c.put(k, []byte{1, 2}, 3, 1)
	c.put(k, []byte{9}, 5, 1)
	e, ok := c.get(k)
	if !ok || !bytes.Equal(e.blob, []byte{9}) || e.columns != 5 {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}
	if st := c.stats(); st.Size != 1 {
		t.Fatalf("size = %d after overwrite", st.Size)
	}
}

func TestPlanCacheInvalidate(t *testing.T) {
	c := newPlanCache(4)
	k := planKey{"g", 1, 0, 1}
	c.put(k, []byte{1}, 1, 1)
	c.invalidate(k)
	c.invalidate(k) // absent: no double count
	if _, ok := c.get(k); ok {
		t.Fatal("entry survived invalidation")
	}
	st := c.stats()
	if st.Invalidations != 1 || st.Size != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Invalidation is exact-key: a superseded key leaves the group's
	// newer entry in place.
	c.put(planKey{"g", 1, 0, 1}, []byte{1}, 1, 1)
	c.put(planKey{"g", 2, 0, 1}, []byte{2}, 1, 1)
	c.invalidate(planKey{"g", 1, 0, 1})
	c.invalidate(planKey{"g", 2, 1, 1}) // same gen, other policy version
	c.invalidate(planKey{"g", 2, 0, 2}) // same gen, other tier
	if e, ok := c.get(planKey{"g", 2, 0, 1}); !ok || !bytes.Equal(e.blob, []byte{2}) {
		t.Fatalf("newest entry lost to a non-matching invalidation: %+v ok=%v", e, ok)
	}
	if st := c.stats(); st.Size != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v, want one entry and no further invalidations", st)
	}
}

// TestPlanCacheOneEntryPerGroup checks the retention rule: the cache
// holds only each group's newest key, a put for an older generation
// than the one held is dropped, and lookups still match the full key.
func TestPlanCacheOneEntryPerGroup(t *testing.T) {
	c := newPlanCache(8)
	for gen := uint64(1); gen <= 5; gen++ {
		c.put(planKey{"g", gen, 0, 1}, []byte{byte(gen)}, 1, 1)
		c.put(planKey{"h", gen, 0, 1}, []byte{byte(gen)}, 1, 1)
	}
	if st := c.stats(); st.Size != 2 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want one entry per group", st)
	}
	for _, k := range []planKey{{"g", 4, 0, 1}, {"g", 5, 1, 1}, {"g", 5, 0, 2}} {
		if _, ok := c.get(k); ok {
			t.Fatalf("get(%+v) hit; only the exact held key may", k)
		}
	}
	// An older generation never replaces a newer one, on any tier or
	// policy version.
	c.put(planKey{"g", 3, 0, 1}, []byte{33}, 1, 1)
	c.put(planKey{"g", 4, 7, 2}, []byte{44}, 1, 1)
	if e, ok := c.peek(planKey{"g", 5, 0, 1}); !ok || !bytes.Equal(e.blob, []byte{5}) {
		t.Fatalf("older generation replaced the newest: %+v ok=%v", e, ok)
	}
	// The same generation under another tier or policy version is the
	// newer plan and replaces the held one.
	c.put(planKey{"g", 5, 0, 2}, []byte{52}, 1, 3)
	if _, ok := c.peek(planKey{"g", 5, 0, 1}); ok {
		t.Fatal("tier change kept the old tier's entry")
	}
	if e, ok := c.get(planKey{"g", 5, 0, 2}); !ok || e.passes != 3 {
		t.Fatalf("new tier entry = %+v ok=%v", e, ok)
	}
	c.put(planKey{"g", 6, 0, 1}, []byte{6}, 1, 1)
	if st := c.stats(); st.Size != 2 {
		t.Fatalf("size = %d after a newer generation, want 2", st.Size)
	}
	// forget drops the group's entry whatever key it holds.
	c.forget("g")
	c.forget("g")
	if _, ok := c.peek(planKey{"g", 6, 0, 1}); ok {
		t.Fatal("forget left the entry")
	}
	if st := c.stats(); st.Size != 1 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v after forget", st)
	}
}

// TestPlanCacheStatsRace hammers stats() while writer goroutines churn
// the cache — the counters were plain ints read outside the structural
// mutex, which the race detector flags and which could tear or drop
// increments on scrape-heavy deployments. Run with -race.
func TestPlanCacheStatsRace(t *testing.T) {
	const (
		writers    = 4
		iterations = 2000
	)
	c := newPlanCache(8)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = c.stats()
				}
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			id := string(rune('a' + w))
			for i := 0; i < iterations; i++ {
				k := planKey{id, uint64(i % 32), 0, 1}
				c.put(k, []byte{byte(i)}, 1, 1)
				c.get(k)
				if i%7 == 0 {
					c.invalidate(k)
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	// Every get either hit or missed; none may have been lost.
	st := c.stats()
	if st.Hits+st.Misses != writers*iterations {
		t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, writers*iterations)
	}
	if st.Size > st.Capacity {
		t.Fatalf("size %d exceeds capacity %d", st.Size, st.Capacity)
	}
}

// TestManagerCacheOneEntryPerGroup drives write+plan churn with epochs
// in between and checks the manager's cache never holds more than one
// entry per group, however many generations go by.
func TestManagerCacheOneEntryPerGroup(t *testing.T) {
	const groups = 16
	m := newTestManager(t, Config{N: 16, CacheSize: 1024})
	for g := 0; g < groups; g++ {
		mustCreate(t, m, fmt.Sprintf("g%d", g), g, []int{(g + 1) % 16})
	}
	for i := 0; i < 400; i++ {
		id := fmt.Sprintf("g%d", i%groups)
		d := (i*7 + 3) % 16
		if _, err := m.Join(id, d); err != nil {
			if _, err := m.Leave(id, d); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Plan(id); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			if _, err := m.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		if st := m.CacheStats(); st.Size > groups {
			t.Fatalf("op %d: %d cache entries for %d groups", i, st.Size, groups)
		}
	}
	if st := m.CacheStats(); st.Evictions != 0 {
		t.Fatalf("evictions = %d below capacity", st.Evictions)
	}
}

// TestDeletedGroupLeavesNoEntry checks a deleted group's entry goes
// whatever key it was held under — here the BRSMN key a migrated plan
// is seeded under, while the group is served on the manager's feedback
// default — so a new group under the same ID, whose generations restart
// at 1, caches its plans again.
func TestDeletedGroupLeavesNoEntry(t *testing.T) {
	src := newTestManager(t, Config{N: 16})
	mustCreate(t, src, "g", 2, []int{3})
	for d := 4; d < 9; d++ {
		if _, err := src.Join("g", d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Plan("g"); err != nil {
		t.Fatal(err)
	}
	gs, plan, err := src.ExportGroup("g")
	if err != nil {
		t.Fatal(err)
	}
	if gs.Gen <= 1 || plan == nil {
		t.Fatalf("export: gen=%d plan=%v, want gen > 1 with a warm plan", gs.Gen, plan != nil)
	}

	m := newTestManager(t, Config{N: 16, DefaultBackend: backend.TierFeedback})
	if err := m.Install(gs, plan); err != nil {
		t.Fatal(err)
	}
	if info, err := m.Get("g"); err != nil || info.Backend != backend.TierFeedback.String() {
		t.Fatalf("installed group: backend=%q err=%v, want feedback", info.Backend, err)
	}
	if st := m.CacheStats(); st.Size != 1 {
		t.Fatalf("install seeded %d entries, want 1", st.Size)
	}
	if err := m.Delete("g"); err != nil {
		t.Fatal(err)
	}
	if st := m.CacheStats(); st.Size != 0 {
		t.Fatalf("deleted group left %d entries", st.Size)
	}
	mustCreate(t, m, "g", 2, []int{3})
	if p, err := m.Plan("g"); err != nil || p.Cached {
		t.Fatalf("first plan of the new group: cached=%v err=%v", p.Cached, err)
	}
	if p, err := m.Plan("g"); err != nil || !p.Cached {
		t.Fatalf("second plan of the new group: cached=%v err=%v", p.Cached, err)
	}
}
