package groupd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"brsmn/internal/obs"
)

// TestEpochRoundReuseDifferential runs the same random churn through a
// manager that reuses unchanged rounds across epochs and, epoch by
// epoch, through a fresh manager holding the same groups (so it has no
// previous rounds to reuse). Their reports' rounds must be
// byte-identical, with and without a filtering fault policy, and the
// reusing manager must actually have skipped routing some rounds.
func TestEpochRoundReuseDifferential(t *testing.T) {
	for _, filtered := range []bool{false, true} {
		t.Run(fmt.Sprintf("filtered=%v", filtered), func(t *testing.T) {
			const n = 64
			rng := rand.New(rand.NewSource(12))
			newPolicy := func() *fakePatchPolicy {
				if filtered {
					return &fakePatchPolicy{version: 1, drop: 5}
				}
				return &fakePatchPolicy{drop: -1}
			}
			reg := obs.NewRegistry()
			pol := newPolicy()
			m := newTestManager(t, Config{N: n, Policy: pol, Metrics: reg})
			members := map[string]map[int]bool{}
			for g := 0; g < 24; g++ {
				id := fmt.Sprintf("g%02d", g)
				mem := rng.Perm(n)[:1+rng.Intn(6)]
				mustCreate(t, m, id, rng.Intn(n), mem)
				members[id] = map[int]bool{}
				for _, d := range mem {
					members[id][d] = true
				}
			}
			reused := reg.Counter("brsmn_epoch_rounds_reused_total", "")
			var rounds int
			for epoch := 0; epoch < 40; epoch++ {
				// Every third epoch is idle; the rest change one or two
				// groups, so some rounds change and the others repeat.
				// Half the changes swap one member for another, keeping
				// the group's size.
				if epoch%3 != 0 {
					for k := 0; k < 1+rng.Intn(2); k++ {
						id := fmt.Sprintf("g%02d", rng.Intn(24))
						swap := rng.Intn(2) == 0
						for _, d := range rng.Perm(n) {
							if members[id][d] {
								if len(members[id]) < 2 {
									continue
								}
								if _, err := m.Leave(id, d); err != nil {
									t.Fatal(err)
								}
								delete(members[id], d)
							} else if _, err := m.Join(id, d); err == nil {
								members[id][d] = true
							} else {
								continue
							}
							if !swap {
								break
							}
							swap = false
						}
					}
				}
				if epoch == 20 && filtered {
					pol.set(2, 9) // the fault moves: every filtered key changes
				}
				rep, err := m.RunEpoch()
				if err != nil {
					t.Fatal(err)
				}
				rounds += len(rep.Rounds)

				fp := newPolicy()
				if epoch >= 20 && filtered {
					fp.set(2, 9)
				}
				fresh := newTestManager(t, Config{N: n, Policy: fp})
				for _, g := range m.List() {
					mustCreate(t, fresh, g.ID, g.Source, g.Members)
				}
				want, err := fresh.RunEpoch()
				if err != nil {
					t.Fatal(err)
				}
				fresh.Close()
				got, _ := json.Marshal(rep.Rounds)
				exp, _ := json.Marshal(want.Rounds)
				if !bytes.Equal(got, exp) {
					t.Fatalf("epoch %d: reusing manager's rounds differ from a fresh manager's\n got %s\nwant %s", epoch, got, exp)
				}
				if filtered && rep.DegradedRounds != want.DegradedRounds {
					t.Fatalf("epoch %d: degraded rounds %d, fresh %d", epoch, rep.DegradedRounds, want.DegradedRounds)
				}
			}
			r := int(reused.Value())
			if r == 0 || r >= rounds {
				t.Fatalf("reused %d of %d rounds; want some but not all", r, rounds)
			}
		})
	}
}

// TestEpochIdleReusesEveryRound checks that an epoch over unchanged
// groups routes nothing: every round repeats the previous epoch's.
func TestEpochIdleReusesEveryRound(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{N: 16, Metrics: reg})
	mustCreate(t, m, "a", 2, []int{3, 4, 7})
	mustCreate(t, m, "b", 5, []int{3, 9}) // shares output 3: a second round
	first, err := m.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	reused := reg.Counter("brsmn_epoch_rounds_reused_total", "")
	if reused.Value() != 0 || len(first.Rounds) != 2 {
		t.Fatalf("first epoch: %d rounds, %d reused", len(first.Rounds), reused.Value())
	}
	second, err := m.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if reused.Value() != 2 {
		t.Fatalf("idle epoch reused %d of %d rounds", reused.Value(), len(second.Rounds))
	}
	if _, err := m.Join("b", 11); err != nil {
		t.Fatal(err)
	}
	third, err := m.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if reused.Value() != 3 {
		t.Fatalf("after one change, reused total = %d, want 3 (only a's round unchanged)", reused.Value())
	}
	verifyEpoch(t, 16, third, map[string]int{"a": 2, "b": 5},
		map[string][]int{"a": {3, 4, 7}, "b": {3, 9, 11}})
}
