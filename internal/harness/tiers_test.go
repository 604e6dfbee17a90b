package harness

import (
	"testing"

	"brsmn/internal/cost"
)

// TestTiersBenchColumns checks the tiers report's program and hardware
// columns at n = 16: switch-steps are depth x n/2, hardware switches are
// each backend's cost row, and feedback's program is log2(n) - 1
// columns shorter than cost.Feedback's depth (its last pass keeps only
// the delivery column).
func TestTiersBenchColumns(t *testing.T) {
	const n, m = 16, 4
	rep, err := TiersBench(n, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tiers) != 6 {
		t.Fatalf("%d rows, want 2 workloads x 3 backends", len(rep.Tiers))
	}
	hw := map[string]cost.Row{"brsmn": cost.BRSMN(n), "feedback": cost.Feedback(n), "permnet": cost.PermNet(n)}
	for _, row := range rep.Tiers {
		if row.SwitchSteps != row.Depth*n/2 {
			t.Errorf("%s/%s: %d switch-steps for %d columns", row.Workload, row.Backend, row.SwitchSteps, row.Depth)
		}
		if row.HardwareSwitches != hw[row.Backend].Switches {
			t.Errorf("%s/%s: %d hardware switches, cost row has %d", row.Workload, row.Backend, row.HardwareSwitches, hw[row.Backend].Switches)
		}
		if row.Backend == "feedback" {
			if row.Depth != 2*m*(m-1)+1 || hw["feedback"].Depth-row.Depth != m-1 {
				t.Errorf("feedback program depth %d, cost depth %d", row.Depth, hw["feedback"].Depth)
			}
			if row.HardwareSwitches >= hw["brsmn"].Switches {
				t.Errorf("feedback hardware %d not below brsmn's %d", row.HardwareSwitches, hw["brsmn"].Switches)
			}
		}
	}
}
