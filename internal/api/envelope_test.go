package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"brsmn/internal/backend"
	"brsmn/internal/groupd"
	"brsmn/internal/rbn"
)

// planTierServer builds a Server over an n=64 manager holding one group
// pinned to each concrete tier, with every plan routed once. It returns
// the server and the groups' IDs in tier order.
func planTierServer(tb testing.TB) (*Server, []string) {
	tb.Helper()
	gm, err := groupd.NewManager(groupd.Config{N: 64, Engine: rbn.Sequential})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { gm.Close() })
	var ids []string
	for i, t := range backend.Tiers() {
		id := "g-" + t.String()
		if _, err := gm.CreateWithBackend(id, i, []int{3, 9, 17, 40 + i}, t); err != nil {
			tb.Fatal(err)
		}
		if _, err := gm.Plan(id); err != nil {
			tb.Fatal(err)
		}
		ids = append(ids, id)
	}
	return NewServer(rbn.Sequential, gm, nil), ids
}

// referencePlanEnvelope is the plan reply as encoding/json renders it.
func referencePlanEnvelope(tb testing.TB, s *Server, p groupd.PlanInfo) []byte {
	tb.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(Envelope{Data: s.planResponse(p)}); err != nil {
		tb.Fatal(err)
	}
	return want.Bytes()
}

// TestGroupPlanReplyFraming fetches each tier's plan over a real
// connection, from several clients at once so pooled buffers and the
// first cost-row rendering are shared: every body must equal the
// encoding/json rendering and be sent with a Content-Length, not
// chunked.
func TestGroupPlanReplyFraming(t *testing.T) {
	srv, ids := planTierServer(t)
	// An n=64 reply fits net/http's 2 KB buffer, which sizes a short
	// body unasked; the long ID takes one reply past it, where an
	// unsized body would go out chunked.
	long := "long-" + strings.Repeat("x", 4096)
	if _, err := srv.groups.Create(long, 5, []int{6, 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.groups.Plan(long); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, long)
	// Every plan is routed once already, so these and the fetches below
	// are all cache hits.
	want := map[string][]byte{}
	for _, id := range ids {
		p, err := srv.groups.Plan(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = referencePlanEnvelope(t, srv, p)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				for _, id := range ids {
					if err := checkPlanReply(ts.URL, id, want[id]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// checkPlanReply fetches one plan and compares body and framing.
func checkPlanReply(base, id string, want []byte) error {
	resp, err := http.Get(base + "/v1/groups/" + id + "/plan")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return err
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("%.20s: plan = %d: %s", id, resp.StatusCode, body)
	case len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)):
		return fmt.Errorf("%.20s: framing %v, Content-Length %d for a %d-byte body", id, resp.TransferEncoding, resp.ContentLength, len(body))
	case !bytes.Equal(body, want):
		return fmt.Errorf("%.20s: reply differs from encoding/json:\n got %.200s\nwant %.200s", id, body, want)
	}
	return nil
}

// TestWriteDataMarshalFailure checks that a value encoding/json rejects
// answers a complete 500 envelope, not a 200 with a truncated body.
func TestWriteDataMarshalFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeData(rec, http.StatusOK, math.Inf(1))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var env struct {
		Data  any        `json:"data"`
		Error *ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body is not an envelope: %v: %s", err, rec.Body)
	}
	if env.Data != nil || env.Error == nil || env.Error.Code != CodeInternal {
		t.Fatalf("envelope = %+v, want an internal error", env)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
}

// FuzzPlanEnvelope holds the hand-rendered plan reply byte-identical to
// json.Encoder's rendering of GroupPlanResponse, for any ID (HTML
// characters, U+2028/2029 and invalid UTF-8 included), any tier name
// (every tier, empty and unknown) and any program, and checks that the
// reply's Content-Length is its body's length.
func FuzzPlanEnvelope(f *testing.F) {
	srv, ids := planTierServer(f)
	for _, id := range ids {
		p, err := srv.groups.Plan(id)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p.ID, p.Gen, p.Cached, p.Columns, p.Blob, p.Backend, p.Passes)
	}
	for _, id := range []string{"a<b", "a>b", "a&b", `a"b`, `a\b`} {
		f.Add(id, uint64(math.MaxUint64), false, -1, []byte{0xff}, "", 0)
	}
	f.Add("line\u2028para\u2029", uint64(0), true, 0, []byte(nil), "auto", -3)
	f.Add("tab\t\x00", uint64(1), true, 2, []byte{0}, "brsmn", 1)
	f.Add("del\x7f", uint64(2), false, 3, []byte{1, 2}, "permnet", 2)
	f.Add("bad\xff\xfeutf8", uint64(7), true, 181, []byte("plan"), "bogus", 11)
	f.Fuzz(func(t *testing.T, id string, gen uint64, cached bool, columns int, blob []byte, tier string, passes int) {
		p := groupd.PlanInfo{ID: id, Gen: gen, Cached: cached, Columns: columns, Blob: blob, Backend: tier, Passes: passes}
		got := srv.appendPlanEnvelope(nil, p)
		if want := referencePlanEnvelope(t, srv, p); !bytes.Equal(got, want) {
			t.Fatalf("hand-rendered envelope differs from encoding/json:\n got %q\nwant %q", got, want)
		}
		rec := httptest.NewRecorder()
		writeBody(rec, http.StatusOK, got)
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
		}
	})
}
