package groupd

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"brsmn/internal/backend"
	"brsmn/internal/store"
)

// newDurableManager builds a manager over st without registering
// cleanup-time Close (restart tests reuse the store across managers).
func newDurableManager(t *testing.T, st store.Store, extra func(*Config)) *Manager {
	t.Helper()
	cfg := Config{N: 16, Store: st}
	if extra != nil {
		extra(&cfg)
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPersistLogReplay(t *testing.T) {
	st := store.NewMem()
	m1 := newDurableManager(t, st, nil)

	if _, err := m1.Create("conf", 2, []int{3, 4, 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Create("", 5, []int{1}); err != nil { // auto-ID g1
		t.Fatal(err)
	}
	if _, err := m1.Join("conf", 9); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Leave("conf", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Create("doomed", 0, []int{6}); err != nil {
		t.Fatal(err)
	}
	if err := m1.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.RunEpoch(); err != nil {
		t.Fatal(err)
	}

	m2 := newDurableManager(t, st, nil)
	if got, want := m2.List(), m1.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state:\n got %+v\nwant %+v", got, want)
	}
	if m2.Epoch() != m1.Epoch() {
		t.Fatalf("replayed epoch = %d, want %d", m2.Epoch(), m1.Epoch())
	}
	if m2.Recovery().SnapshotLoaded {
		t.Fatal("log-only recovery claims a snapshot")
	}
	if m2.Recovery().Records == 0 || m2.Recovery().Groups != 2 {
		t.Fatalf("recovery stats = %+v", m2.Recovery())
	}
	// Auto-IDs continue past replayed ones instead of colliding.
	info, err := m2.Create("", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "g2" {
		t.Fatalf("post-recovery auto ID = %q, want g2", info.ID)
	}
}

// TestPersistSnapshotReplayEquivalence is the property test: after
// randomized churn with snapshots interleaved at arbitrary points, a
// manager recovered from the store is indistinguishable from the
// original — same groups, generations, memberships, and warm plans.
func TestPersistSnapshotReplayEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			st := store.NewMem()
			m1 := newDurableManager(t, st, nil)

			live := []string{}
			for i := 0; i < 300; i++ {
				switch op := rng.Intn(10); {
				case op < 3 || len(live) == 0: // create
					id := fmt.Sprintf("grp-%d-%d", seed, i)
					if _, err := m1.Create(id, rng.Intn(16), nil); err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
				case op < 6: // join
					_, err := m1.Join(live[rng.Intn(len(live))], rng.Intn(16))
					if err != nil && !isDomainErr(err) {
						t.Fatal(err)
					}
				case op < 8: // leave
					_, err := m1.Leave(live[rng.Intn(len(live))], rng.Intn(16))
					if err != nil && !isDomainErr(err) {
						t.Fatal(err)
					}
				case op < 9: // delete
					k := rng.Intn(len(live))
					if err := m1.Delete(live[k]); err != nil {
						t.Fatal(err)
					}
					live = append(live[:k], live[k+1:]...)
				default: // snapshot mid-churn
					if _, err := m1.SnapshotNow(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Warm the plan cache for every live group, then snapshot so
			// the plans are carried too.
			want := m1.List()
			for _, g := range want {
				if _, err := m1.Plan(g.ID); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := m1.SnapshotNow(); err != nil {
				t.Fatal(err)
			}

			m2 := newDurableManager(t, st, nil)
			if got := m2.List(); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered state diverges:\n got %+v\nwant %+v", got, want)
			}
			if !m2.Recovery().SnapshotLoaded {
				t.Fatal("recovery ignored the snapshot")
			}
			// Every live group's plan must be a warm hit with an
			// identical blob.
			for _, g := range want {
				p1, err := m1.Plan(g.ID)
				if err != nil {
					t.Fatal(err)
				}
				p2, err := m2.Plan(g.ID)
				if err != nil {
					t.Fatal(err)
				}
				if !p2.Cached {
					t.Fatalf("group %q: recovered plan was a miss", g.ID)
				}
				if !reflect.DeepEqual(p1.Blob, p2.Blob) || p1.Columns != p2.Columns {
					t.Fatalf("group %q: recovered plan differs", g.ID)
				}
			}
		})
	}
}

func isDomainErr(err error) bool {
	return err != nil && !errors.Is(err, ErrStore) && !errors.Is(err, ErrClosed)
}

// TestPersistWarmCacheAcrossRestart is the end-to-end durability story
// on disk: graceful shutdown writes a final snapshot, and the first
// Plan call after reboot is served from the recovered cache.
func TestPersistWarmCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.OpenFile(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m1 := newDurableManager(t, st1, nil)
	if _, err := m1.Create("conf", 2, []int{3, 4, 7}); err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Plan("conf")
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cached {
		t.Fatal("first plan claims cached")
	}
	if err := m1.Close(); err != nil { // final snapshot + store close
		t.Fatal(err)
	}

	st2, err := store.OpenFile(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m2 := newDurableManager(t, st2, nil)
	defer m2.Close()
	if recs, _ := st2.Recovered(); recs != 0 {
		t.Fatalf("graceful shutdown left %d log records to replay", recs)
	}
	p2, err := m2.Plan("conf")
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Cached {
		t.Fatal("first plan after restart missed the recovered cache")
	}
	if !reflect.DeepEqual(p1.Blob, p2.Blob) || p1.Columns != p2.Columns {
		t.Fatal("recovered plan differs from the pre-restart plan")
	}
}

// TestPersistRestoreUnderOtherDefaultBackend restores a snapshot taken
// with a brsmn group into a manager whose default tier is feedback. The
// group takes the new default, and its first plan is a feedback miss:
// the snapshot's brsmn plan, seeded into the cache under the brsmn
// tier's key, must not be served for it.
func TestPersistRestoreUnderOtherDefaultBackend(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.OpenFile(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m1 := newDurableManager(t, st1, nil)
	if _, err := m1.Create("conf", 2, []int{3, 4, 7}); err != nil {
		t.Fatal(err)
	}
	p1, err := m1.Plan("conf")
	if err != nil {
		t.Fatal(err)
	}
	if p1.Backend != "brsmn" {
		t.Fatalf("zero-config plan on %q, want brsmn", p1.Backend)
	}
	if _, err := m1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenFile(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m2 := newDurableManager(t, st2, func(c *Config) { c.DefaultBackend = backend.TierFeedback })
	defer m2.Close()
	if st := m2.CacheStats(); st.Size != 1 {
		t.Fatalf("restored cache holds %d plans, want the snapshot's one", st.Size)
	}
	info, err := m2.Get("conf")
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != "feedback" {
		t.Fatalf("restored group on %q, want feedback", info.Backend)
	}
	p2, err := m2.Plan("conf")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Cached || p2.Backend != "feedback" || p2.Passes != 7 {
		t.Fatalf("first plan after restore: cached=%v backend=%q passes=%d, want a 7-pass feedback miss",
			p2.Cached, p2.Backend, p2.Passes)
	}
	if reflect.DeepEqual(p2.Blob, p1.Blob) {
		t.Fatal("restored feedback group was served the snapshot's brsmn program")
	}
	p3, err := m2.Plan("conf")
	if err != nil {
		t.Fatal(err)
	}
	if !p3.Cached || p3.Backend != "feedback" || !reflect.DeepEqual(p3.Blob, p2.Blob) {
		t.Fatalf("second plan: cached=%v backend=%q, want the feedback plan as a hit", p3.Cached, p3.Backend)
	}
}

// TestPersistTornTail crashes mid-append: the torn record is truncated
// away and every prior mutation survives.
func TestPersistTornTail(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.OpenFile(dir, store.FileConfig{FsyncBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	m1 := newDurableManager(t, st1, nil)
	if _, err := m1.Create("a", 2, []int{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Create("b", 5, []int{1, 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Join("a", 9); err != nil {
		t.Fatal(err)
	}
	// Simulated crash: no Close, and the last record loses its tail.
	wal := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenFile(dir, store.FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, torn := st2.Recovered(); torn != 1 {
		t.Fatalf("torn truncations = %d, want 1", torn)
	}
	m2 := newDurableManager(t, st2, nil)
	defer m2.Close()
	a, err := m2.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if a.Gen != 1 || a.Size != 1 { // the torn join is gone
		t.Fatalf("group a after torn tail = %+v", a)
	}
	b, err := m2.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	if b.Gen != 1 || b.Size != 2 {
		t.Fatalf("group b after torn tail = %+v", b)
	}
}

func TestPersistFaultJournal(t *testing.T) {
	st := store.NewMem()
	m1 := newDurableManager(t, st, nil)
	m1.JournalFault("dead:0:1")
	m1.JournalFault("stuck:2:3:cross")
	m1.JournalFault("dead:0:1") // duplicate arms dedup on recovery

	m2 := newDurableManager(t, st, nil)
	want := []string{"dead:0:1", "stuck:2:3:cross"}
	if got := m2.RecoveredFaults(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered faults = %v, want %v", got, want)
	}
	m2.JournalFaultClear()
	m3 := newDurableManager(t, st, nil)
	if got := m3.RecoveredFaults(); len(got) != 0 {
		t.Fatalf("faults after clear = %v", got)
	}
}

func TestPersistFaultSpecsInSnapshot(t *testing.T) {
	st := store.NewMem()
	specs := []string{"dead:1:0"}
	m1 := newDurableManager(t, st, func(c *Config) {
		c.FaultSpecs = func() []string { return append([]string(nil), specs...) }
	})
	if _, err := m1.Create("g", 0, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	m2 := newDurableManager(t, st, nil)
	if got := m2.RecoveredFaults(); !reflect.DeepEqual(got, specs) {
		t.Fatalf("recovered faults = %v, want %v", got, specs)
	}
}

// failStore wraps a MemStore and fails appends on demand.
type failStore struct {
	*store.MemStore
	fail bool
}

func (s *failStore) Append(rec store.Record) (uint64, error) {
	if s.fail {
		return 0, errors.New("injected append failure")
	}
	return s.MemStore.Append(rec)
}

// TestPersistAppendFailureRollsBack: when the store refuses an append,
// the mutation is invisible — not applied in memory, not durable.
func TestPersistAppendFailureRollsBack(t *testing.T) {
	fs := &failStore{MemStore: store.NewMem()}
	m := newDurableManager(t, fs, nil)
	if _, err := m.Create("conf", 2, []int{3}); err != nil {
		t.Fatal(err)
	}

	fs.fail = true
	if _, err := m.Create("other", 0, nil); !errors.Is(err, ErrStore) {
		t.Fatalf("create during store failure: %v", err)
	}
	if _, err := m.Join("conf", 9); !errors.Is(err, ErrStore) {
		t.Fatalf("join during store failure: %v", err)
	}
	if err := m.Delete("conf"); !errors.Is(err, ErrStore) {
		t.Fatalf("delete during store failure: %v", err)
	}
	fs.fail = false

	info, err := m.Get("conf")
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 1 || info.Size != 1 {
		t.Fatalf("group changed despite rollback: %+v", info)
	}
	if _, err := m.Get("other"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed create left a group: %v", err)
	}
	// The rolled-back join must still be possible (the tree reverted).
	if _, err := m.Join("conf", 9); err != nil {
		t.Fatalf("join after rollback: %v", err)
	}
	// And a fresh manager replaying the log agrees with m.
	m2 := newDurableManager(t, fs.MemStore, nil)
	if got, want := m2.List(), m.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotNowWithoutStore(t *testing.T) {
	m := newTestManager(t, Config{N: 8})
	if _, err := m.SnapshotNow(); !errors.Is(err, ErrNoStore) {
		t.Fatalf("SnapshotNow without store: %v", err)
	}
}
