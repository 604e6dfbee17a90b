package api

import (
	"net/http"
	"strings"
	"testing"
)

// noFollow is a client that surfaces redirects instead of chasing them.
var noFollow = &http.Client{
	CheckRedirect: func(req *http.Request, via []*http.Request) error {
		return http.ErrUseLastResponse
	},
}

// TestLegacyRedirects pins the deprecation contract on every pre-/v1
// path: a permanent redirect to the /v1 successor carrying
// Deprecation: true, a successor-version Link and the Sunset date.
func TestLegacyRedirects(t *testing.T) {
	ts := newGroupServer(t)

	cases := []struct {
		method, path, location string
		wantCode               int
	}{
		{"GET", "/cost?n=64", "/v1/cost?n=64", http.StatusMovedPermanently},
		{"GET", "/sequence?n=8&dests=3,4,7", "/v1/sequence?n=8&dests=3,4,7", http.StatusMovedPermanently},
		{"GET", "/groups", "/v1/groups", http.StatusMovedPermanently},
		{"GET", "/groups/conf", "/v1/groups/conf", http.StatusMovedPermanently},
		{"GET", "/epoch", "/v1/epoch", http.StatusMovedPermanently},
		{"GET", "/faults", "/v1/faults", http.StatusMovedPermanently},
		{"GET", "/faults/report", "/v1/faults/report", http.StatusMovedPermanently},
		{"GET", "/trace/conf", "/v1/trace/conf", http.StatusMovedPermanently},
		{"POST", "/route", "/v1/route", http.StatusPermanentRedirect},
		{"POST", "/schedule", "/v1/schedule", http.StatusPermanentRedirect},
		{"POST", "/plan", "/v1/plan", http.StatusPermanentRedirect},
		{"POST", "/pipeline", "/v1/pipeline", http.StatusPermanentRedirect},
		{"POST", "/groups", "/v1/groups", http.StatusPermanentRedirect},
		{"POST", "/groups/conf/join", "/v1/groups/conf/join", http.StatusPermanentRedirect},
		{"POST", "/probe", "/v1/probe", http.StatusPermanentRedirect},
		{"DELETE", "/faults", "/v1/faults", http.StatusPermanentRedirect},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := noFollow.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantCode)
			continue
		}
		if loc := resp.Header.Get("Location"); loc != tc.location {
			t.Errorf("%s %s: Location %q, want %q", tc.method, tc.path, loc, tc.location)
		}
		if dep := resp.Header.Get("Deprecation"); dep != "true" {
			t.Errorf("%s %s: Deprecation %q, want \"true\"", tc.method, tc.path, dep)
		}
		if sun := resp.Header.Get("Sunset"); sun != "Fri, 30 Apr 2027 00:00:00 GMT" {
			t.Errorf("%s %s: Sunset %q, want the RFC 8594 date of 30 April 2027", tc.method, tc.path, sun)
		}
		link := resp.Header.Get("Link")
		if !strings.Contains(link, `rel="successor-version"`) || !strings.Contains(link, "</v1/") {
			t.Errorf("%s %s: Link %q, want a successor-version /v1 link", tc.method, tc.path, link)
		}
	}
}

// TestNoLegacyPath404s is the CI invariant in test form: no pre-/v1
// path may have fallen through to the catch-all 404.
func TestNoLegacyPath404s(t *testing.T) {
	ts := newGroupServer(t)
	for _, path := range []string{
		"/route", "/schedule", "/plan", "/pipeline", "/cost", "/sequence",
		"/groups", "/groups/x", "/groups/x/join", "/groups/x/leave", "/groups/x/plan",
		"/epoch", "/faults", "/faults/report", "/probe", "/trace/x",
		"/healthz", "/metrics",
	} {
		resp, err := noFollow.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Errorf("GET %s = 404: legacy path lost", path)
		}
	}
}

// TestLegacyEndToEnd drives the old paths with a redirect-following
// client: 308 replays the method and body, so the pre-/v1 calls still
// work unchanged.
func TestLegacyEndToEnd(t *testing.T) {
	ts := newGroupServer(t)

	// doJSON uses http.DefaultClient, which follows the 308 and replays
	// the POST body against /v1/groups.
	var info struct {
		ID string `json:"id"`
	}
	if code := doJSON(t, "POST", ts.URL+"/groups",
		CreateGroupRequest{ID: "legacy", Source: 2, Members: []int{3, 4}}, &info); code != http.StatusCreated {
		t.Fatalf("legacy create = %d, want 201 via 308", code)
	}
	if info.ID != "legacy" {
		t.Fatalf("legacy create info = %+v", info)
	}

	var out RouteResponse
	if code := doJSON(t, "POST", ts.URL+"/route", RouteRequest{
		N: 8, Dests: [][]int{{0, 1}, nil, {3, 4, 7}, {2}, nil, nil, nil, {5, 6}},
	}, &out); code != http.StatusOK {
		t.Fatalf("legacy route = %d", code)
	}
	if len(out.Deliveries) != 8 {
		t.Fatalf("legacy route deliveries = %v", out.Deliveries)
	}

	var list GroupListResponse
	if code := doJSON(t, "GET", ts.URL+"/groups", nil, &list); code != http.StatusOK || list.Count != 1 {
		t.Fatalf("legacy list = %d / %+v", code, list)
	}
}
