package groupd

import (
	"fmt"
	"strings"
	"testing"

	"brsmn/internal/backend"
	"brsmn/internal/obs"
)

// TestBackendPinnedAtCreate checks that a group is served by the tier
// it was created with, before and after membership changes: a zero
// Config puts groups on brsmn, CreateWithBackend pins feedback and
// permnet, and each tier's computed plans are counted under its own
// brsmn_backend_routes_total series.
func TestBackendPinnedAtCreate(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{N: 64, Metrics: reg})

	if _, err := m.Create("default", 2, []int{3, 4, 7, 9}); err != nil {
		t.Fatal(err)
	}
	for _, tier := range []backend.Tier{backend.TierFeedback, backend.TierPermNet} {
		if _, err := m.CreateWithBackend(tier.String(), 2, []int{3, 4, 7, 9}, tier); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]backend.Tier{
		"default":  backend.TierBRSMN,
		"feedback": backend.TierFeedback,
		"permnet":  backend.TierPermNet,
	}
	for id, tier := range want {
		for round := 0; round < 3; round++ {
			info, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if info.Backend != tier.String() {
				t.Errorf("round %d: group %s on backend %q, want %q", round, id, info.Backend, tier)
			}
			for i := 0; i < 2; i++ { // miss, then a warm hit
				p, err := m.Plan(id)
				if err != nil {
					t.Fatalf("Plan(%s): %v", id, err)
				}
				if p.Backend != tier.String() {
					t.Errorf("round %d: plan for %s reports backend %q, want %q", round, id, p.Backend, tier)
				}
				if tier == backend.TierBRSMN && p.Passes != 1 {
					t.Errorf("plan for %s reports %d passes, want 1", id, p.Passes)
				}
				if p.Passes < 1 {
					t.Errorf("plan for %s reports %d passes", id, p.Passes)
				}
				if p.Cached != (i == 1) {
					t.Errorf("round %d fetch %d of %s: cached=%v", round, i, id, p.Cached)
				}
			}
			if _, err := m.Join(id, 20+round); err != nil {
				t.Fatal(err)
			}
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, tier := range backend.Tiers() {
		line := fmt.Sprintf("brsmn_backend_routes_total{backend=%q} 3\n", tier)
		if !strings.Contains(text, line) {
			t.Errorf("want %q in the exposition:\n%s", line, text)
		}
	}
	for _, family := range []string{"brsmn_backend_switches_total", "brsmn_backend_depth_total"} {
		if !strings.Contains(text, family) {
			t.Errorf("series %s missing from exposition", family)
		}
	}
}
