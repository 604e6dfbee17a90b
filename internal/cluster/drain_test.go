package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"brsmn/internal/groupd"
	"brsmn/internal/store"
)

// emptyLocal is a serving layer holding no groups.
type emptyLocal struct{}

func (emptyLocal) Count() int   { return 0 }
func (emptyLocal) Epoch() int64 { return 0 }
func (emptyLocal) Get(id string) (groupd.GroupInfo, error) {
	return groupd.GroupInfo{}, groupd.ErrNotFound
}
func (emptyLocal) Export() ([]store.GroupState, []*store.PlanState) { return nil, nil }
func (emptyLocal) ExportGroup(id string) (store.GroupState, *store.PlanState, error) {
	return store.GroupState{}, nil, groupd.ErrNotFound
}
func (emptyLocal) Install(store.GroupState, *store.PlanState) error { return nil }
func (emptyLocal) DeleteIfGen(string, uint64) error                 { return groupd.ErrNotFound }

// TestDrainDuringPollRound pins the drain/poll interleaving: a drain
// that lands after a membership round has polled its peers but before
// it applies their results must leave self draining and off the ring.
// The round used to apply a self state read before the drain, putting
// the draining node back on the ring until the next round.
func TestDrainDuringPollRound(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler()) // peer b: every poll fails
	n, err := newNode(Config{
		Self:    "a",
		Peers:   map[string]string{"a": ts.URL, "b": ts.URL},
		Local:   emptyLocal{},
		Handler: http.NotFoundHandler(),
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.sweepWG.Wait()
		n.client.CloseIdleConnections()
		ts.Close()
	})
	n.polled = n.Drain
	n.pollRound()
	checkDrained(t, n)
	n.polled = nil
	n.pollRound()
	checkDrained(t, n)
}

func checkDrained(t *testing.T, n *Node) {
	t.Helper()
	if st := n.self.getState(); st != peerDraining {
		t.Fatalf("self state after drain = %s, want draining", st)
	}
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("g%d", i)
		if owner := n.Owner(id); owner != "b" {
			t.Fatalf("draining node still owns %s (owner %s)", id, owner)
		}
	}
}
