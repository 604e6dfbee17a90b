package api

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"brsmn/internal/groupd"
	"brsmn/internal/rbn"
)

// planHitServer builds an api.Server over a warm n=1024 manager: one
// group "g" rooted at input 0 with the odd outputs as members, its plan
// already cached.
func planHitServer(tb testing.TB) *Server {
	tb.Helper()
	const n = 1024
	gm, err := groupd.NewManager(groupd.Config{N: n, Engine: rbn.Sequential})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { gm.Close() })
	members := make([]int, 0, n/2)
	for d := 1; d < n; d += 2 {
		members = append(members, d)
	}
	if _, err := gm.Create("g", 0, members); err != nil {
		tb.Fatal(err)
	}
	if _, err := gm.Plan("g"); err != nil {
		tb.Fatal(err)
	}
	return NewServer(rbn.Sequential, gm, nil)
}

// servePlanHit serves one GET /v1/groups/g/plan and checks it was a
// cache hit.
func servePlanHit(tb testing.TB, srv *Server, req *http.Request) {
	tb.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("plan = %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkGroupPlanHit is the serving path of a cached plan fetch:
// routing, the manager's cache hit, the cost row and the envelope.
func BenchmarkGroupPlanHit(b *testing.B) {
	srv := planHitServer(b)
	req := httptest.NewRequest(http.MethodGet, "/v1/groups/g/plan", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servePlanHit(b, srv, req)
	}
}

// maxPlanHitAllocs bounds the allocations of one cached plan fetch at
// n=1024: 13 measured (the mux, the recorder and its copy of the body,
// the headers), plus a small margin. The envelope is appended into a
// pooled buffer, so the 19 KB of base64 costs no allocation;
// re-rendering it through encoding/json, or re-running the gate-level
// delay simulation behind the cost row, shows up here.
const maxPlanHitAllocs = 16

func TestGroupPlanHitAllocs(t *testing.T) {
	srv := planHitServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/groups/g/plan", nil)
	servePlanHit(t, srv, req) // fills the gate-delay memo
	allocs := testing.AllocsPerRun(50, func() { servePlanHit(t, srv, req) })
	if allocs > maxPlanHitAllocs {
		t.Fatalf("a plan hit allocates %.0f times, bound %d", allocs, maxPlanHitAllocs)
	}
	t.Logf("%.0f allocs per plan hit", allocs)
}
