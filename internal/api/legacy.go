package api

// Deprecated pre-/v1 path aliases. Every legacy endpoint answers a
// permanent redirect to its /v1 successor — 301 for GET/HEAD, 308 for
// bodied methods so clients replay the method and body — and carries
// the deprecation headers, Sunset (RFC 8594) naming the date the
// aliases are removed:
//
//	Deprecation: true
//	Link: </v1/...>; rel="successor-version"
//	Sunset: Fri, 30 Apr 2027 00:00:00 GMT
//
// GET /healthz and GET /metrics are the exception: they are served
// directly (api.go registers them), since probes and scrapers do not
// follow redirects.

import "net/http"

// legacySunset is the HTTP-date after which the pre-/v1 aliases are
// removed.
const legacySunset = "Fri, 30 Apr 2027 00:00:00 GMT"

// legacyPaths are the pre-/v1 mux patterns. Subtree patterns (trailing
// slash) cover the parameterized endpoints: /groups/{id}/join,
// /faults/report, /trace/{group}.
var legacyPaths = []string{
	"/route",
	"/schedule",
	"/plan",
	"/pipeline",
	"/cost",
	"/sequence",
	"/groups",
	"/groups/",
	"/epoch",
	"/faults",
	"/faults/",
	"/probe",
	"/trace/",
}

func (s *Server) registerLegacy() {
	h := s.instrument("legacy_redirect", redirectToV1)
	for _, p := range legacyPaths {
		s.mux.HandleFunc(p, h)
	}
}

func redirectToV1(w http.ResponseWriter, r *http.Request) {
	target := "/v1" + r.URL.Path
	w.Header().Set("Deprecation", "true")
	w.Header().Set("Sunset", legacySunset)
	w.Header().Set("Link", "<"+target+`>; rel="successor-version"`)
	if q := r.URL.RawQuery; q != "" {
		target += "?" + q
	}
	code := http.StatusPermanentRedirect // 308: method and body replayed
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		code = http.StatusMovedPermanently // 301
	}
	http.Redirect(w, r, target, code)
}
