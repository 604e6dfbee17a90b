package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"brsmn/internal/groupd"
	"brsmn/internal/rbn"
)

// TestBackendsEndpoint checks the backend catalogue: every tier with
// its patch capability and cost row, and nothing else.
func TestBackendsEndpoint(t *testing.T) {
	ts := newGroupServer(t)

	var raw json.RawMessage
	if code := doJSON(t, "GET", ts.URL+"/v1/backends", nil, &raw); code != http.StatusOK {
		t.Fatalf("GET /v1/backends = %d", code)
	}
	if strings.Contains(string(raw), "selector") {
		t.Errorf("GET /v1/backends still carries a selector: %s", raw)
	}
	var got BackendsResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.N != 16 {
		t.Errorf("n = %d, want 16", got.N)
	}
	if len(got.Backends) != 3 {
		t.Fatalf("got %d backends, want 3", len(got.Backends))
	}
	byName := map[string]BackendInfo{}
	for _, b := range got.Backends {
		byName[b.Name] = b
		if b.Cost.Switches <= 0 || b.Cost.Depth <= 0 {
			t.Errorf("backend %s cost row empty: %+v", b.Name, b.Cost)
		}
	}
	if !byName["brsmn"].Patch {
		t.Error("brsmn not reported patch-capable")
	}
	if byName["feedback"].Patch || byName["permnet"].Patch {
		t.Error("feedback/permnet reported patch-capable")
	}

	// Without a group manager the endpoint degrades like the rest of the
	// group surface: 503.
	bare := httptest.NewServer(NewServer(rbn.Sequential, nil, nil))
	defer bare.Close()
	if code := doJSON(t, "GET", bare.URL+"/v1/backends", nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("GET /v1/backends without groups = %d, want 503", code)
	}
}

// TestGroupBackendHTTP drives the backend field on create: a pinned
// group reports its tier and is planned on it before and after a join,
// "auto" and unknown tiers are field errors, no repin endpoint remains,
// and the group state carries no backendPref.
func TestGroupBackendHTTP(t *testing.T) {
	ts := newGroupServer(t)

	var info groupd.GroupInfo
	code := doJSON(t, "POST", ts.URL+"/v1/groups",
		CreateGroupRequest{ID: "conf", Source: 2, Members: []int{3, 4, 7}, Backend: "feedback"}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	if info.Backend != "feedback" {
		t.Fatalf("created on %s, want feedback", info.Backend)
	}

	for round := 0; round < 2; round++ {
		var plan GroupPlanResponse
		if code := doJSON(t, "GET", ts.URL+"/v1/groups/conf/plan", nil, &plan); code != http.StatusOK {
			t.Fatalf("plan = %d", code)
		}
		if plan.Backend != "feedback" {
			t.Errorf("round %d: plan backend %q, want feedback", round, plan.Backend)
		}
		if plan.Passes < 1 {
			t.Errorf("plan passes %d", plan.Passes)
		}
		if plan.Cost == nil || plan.Cost.Switches <= 0 {
			t.Errorf("plan cost missing: %+v", plan.Cost)
		}
		if code := doJSON(t, "POST", ts.URL+"/v1/groups/conf/join", MembershipRequest{Dest: 9 + round}, nil); code != http.StatusOK {
			t.Fatalf("join = %d", code)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/groups/conf")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"backend":"feedback"`) || strings.Contains(string(raw), "backendPref") {
		t.Errorf("GET /v1/groups/conf = %s, want backend feedback and no backendPref", raw)
	}

	// Validation: "auto" and unknown tiers are field errors on create.
	for _, tier := range []string{"auto", "quantum"} {
		req := CreateGroupRequest{ID: "bad", Source: 0, Backend: tier}
		raw, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/groups", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		eb := readEnvelope(t, resp, nil)
		if resp.StatusCode != http.StatusBadRequest || eb == nil || len(eb.Fields) != 1 || eb.Fields[0].Field != "backend" {
			t.Errorf("create with backend %q = %d %+v, want 400 with a backend field error", tier, resp.StatusCode, eb)
		}
	}
	// The repin endpoint is gone: the path is an enveloped 404.
	for _, id := range []string{"conf", "nope"} {
		if code := doJSON(t, "POST", ts.URL+"/v1/groups/"+id+"/backend",
			map[string]string{"backend": "brsmn"}, nil); code != http.StatusNotFound {
			t.Errorf("POST /v1/groups/%s/backend = %d, want 404", id, code)
		}
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/groups/conf", nil, &info); code != http.StatusOK || info.Backend != "feedback" {
		t.Errorf("after the repin attempt: %d, backend %q, want feedback", code, info.Backend)
	}
}
