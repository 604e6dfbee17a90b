package groupd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"brsmn/internal/controller"
	"brsmn/internal/mcast"
	"brsmn/internal/sched"
	"brsmn/internal/store"
)

// RoundReport is one conflict-free round of an epoch: the groups it
// carries and the resulting per-output delivery vector (the source input
// delivered at each output, -1 idle). A round whose assignment is
// unchanged from the previous epoch shares that epoch's Deliveries
// slice, so reports are read-only.
type RoundReport struct {
	GroupIDs   []string `json:"groupIds"`
	Deliveries []int    `json:"deliveries"`
	// Rejected lists the output ports the fault policy excluded from
	// this round (sorted); empty on a healthy fabric.
	Rejected []int `json:"rejected,omitempty"`
}

// EpochReport summarizes one reroute epoch.
type EpochReport struct {
	Epoch    int64         `json:"epoch"`
	When     time.Time     `json:"when"`
	Duration time.Duration `json:"durationNs"`
	// Groups is the number of non-empty groups routed this epoch.
	Groups int `json:"groups"`
	// Fanout is the total (source, output) connection count.
	Fanout int           `json:"fanout"`
	Rounds []RoundReport `json:"rounds"`
	Cache  CacheStats    `json:"cache"`
	// Quarantined is the total output-port count the fault policy
	// rejected across this epoch's rounds; DegradedRounds counts the
	// rounds it touched.
	Quarantined    int `json:"quarantined,omitempty"`
	DegradedRounds int `json:"degradedRounds,omitempty"`
	// Err carries a failed background epoch's error; empty on success.
	Err string `json:"err,omitempty"`
}

// RunEpoch executes one reroute epoch synchronously: snapshot the live
// groups, partition them into conflict-free rounds, route every round
// through the network (rounds run on Config.Workers concurrent
// routings), and refresh the plan cache — changed groups replan, the
// rest hit. A round whose filtered assignment equals one the previous
// epoch routed reuses that round's delivery vector instead of routing
// again: routing is a pure function of the assignment. Epochs are
// serialized; membership changes landing mid-epoch count toward the
// next one.
func (m *Manager) RunEpoch() (*EpochReport, error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	m.epochMu.Lock()
	defer m.epochMu.Unlock()
	start := time.Now()
	m.pending.Store(0)

	snaps := m.snapshot()
	live := snaps[:0]
	for _, sn := range snaps {
		if len(sn.members) > 0 {
			live = append(live, sn)
		}
	}
	reqs := make([]sched.Request, len(live))
	for i, sn := range live {
		reqs[i] = sched.Request{Source: sn.source, Dests: sn.members}
	}
	roundIdx, err := sched.ScheduleIndices(m.cfg.N, reqs)
	if err != nil {
		return nil, fmt.Errorf("groupd: epoch scheduling: %w", err)
	}
	rounds := make([][]sched.Request, len(roundIdx))
	ids := make([][]string, len(roundIdx))
	for r, members := range roundIdx {
		for _, k := range members {
			rounds[r] = append(rounds[r], reqs[k])
			ids[r] = append(ids[r], live[k].id)
		}
	}
	as, err := sched.Assignments(m.cfg.N, rounds)
	if err != nil {
		return nil, fmt.Errorf("groupd: epoch round assembly: %w", err)
	}
	// Quarantine is a per-round decision: whether a connection survives a
	// fault depends on the whole round's switch settings, so the policy
	// filters each combined assignment, not each group.
	rejected := make([][]int, len(as))
	if m.cfg.Policy != nil {
		for r := range as {
			as[r], rejected[r] = m.cfg.Policy.FilterAssignment(as[r])
		}
	}
	keys := make([]string, len(as))
	vecs := make([][]int, len(as))
	var todo []mcast.Assignment
	var todoIdx []int
	for r, a := range as {
		keys[r] = roundKey(a)
		if vec, ok := m.rounds[keys[r]]; ok {
			vecs[r] = vec
			continue
		}
		todo = append(todo, a)
		todoIdx = append(todoIdx, r)
	}
	if len(todo) > 0 {
		routed, err := controller.RouteAllOn(m.nw, todo, m.cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("groupd: epoch routing: %w", err)
		}
		for _, sr := range routed {
			r := todoIdx[sr.Index]
			if sr.Err != nil {
				return nil, fmt.Errorf("groupd: epoch round %d: %w", r, sr.Err)
			}
			vec := make([]int, m.cfg.N)
			for out, d := range sr.Res.Deliveries {
				vec[out] = d.Source
			}
			vecs[r] = vec
		}
	}

	rep := &EpochReport{
		When:   start,
		Groups: len(live),
		Rounds: make([]RoundReport, len(as)),
	}
	routedRounds := make(map[string][]int, len(as))
	for r, vec := range vecs {
		routedRounds[keys[r]] = vec
		rep.Rounds[r] = RoundReport{GroupIDs: ids[r], Deliveries: vec, Rejected: rejected[r]}
		if len(rejected[r]) > 0 {
			rep.Quarantined += len(rejected[r])
			rep.DegradedRounds++
		}
	}
	for _, sn := range live {
		rep.Fanout += len(sn.members)
		if _, err := m.planFor(sn.s, sn.gen, sn.source, sn.members, sn.tier); err != nil {
			return nil, fmt.Errorf("groupd: epoch plan for %q: %w", sn.id, err)
		}
	}
	m.rounds = routedRounds
	rep.Epoch = m.epochN.Add(1)
	// An epoch boundary doubles as a durability barrier: record the
	// advance and sync the accumulated fsync batch through to disk.
	// Best-effort — the epoch counter also rides in every snapshot.
	if m.cfg.Store != nil {
		if lsn, err := m.cfg.Store.Append(store.Record{Op: store.OpEpoch, Epoch: rep.Epoch}); err == nil {
			m.noteLSN(lsn)
			_ = m.cfg.Store.Sync()
		}
	}
	rep.Duration = time.Since(start)
	rep.Cache = m.cache.stats()
	if m.met != nil {
		m.met.epochsOK.Inc()
		m.met.epochDur.ObserveDuration(rep.Duration)
		m.met.epochRounds.Observe(float64(len(rep.Rounds)))
		m.met.epochReuse.Add(uint64(len(as) - len(todo)))
	}
	m.last.Store(rep)
	if m.cfg.Policy != nil {
		m.cfg.Policy.AfterEpoch(rep.Epoch)
	}
	return rep, nil
}

// roundKey encodes a round's combined assignment exactly: for each
// source with destinations, the source, the destination count and the
// destinations, as uvarints. The count makes the encoding prefix-free,
// so two keys are equal exactly when the assignments are — and a map
// lookup compares the whole key, not just its hash.
func roundKey(a mcast.Assignment) string {
	var b []byte
	for src, ds := range a.Dests {
		if len(ds) == 0 {
			continue
		}
		b = binary.AppendUvarint(b, uint64(src))
		b = binary.AppendUvarint(b, uint64(len(ds)))
		for _, d := range ds {
			b = binary.AppendUvarint(b, uint64(d))
		}
	}
	return string(b)
}

// Epoch returns the number of completed epochs.
func (m *Manager) Epoch() int64 { return m.epochN.Load() }

// LastEpoch returns the most recent epoch report, or nil before the
// first epoch completes.
func (m *Manager) LastEpoch() *EpochReport { return m.last.Load() }

// Pending returns the membership changes accumulated since the last
// epoch began.
func (m *Manager) Pending() int64 { return m.pending.Load() }

// loop is the epoch goroutine: tick-driven when EpochPeriod > 0,
// kicked early whenever the pending-change threshold trips.
func (m *Manager) loop() {
	defer close(m.done)
	var tick <-chan time.Time
	if m.cfg.EpochPeriod > 0 {
		t := time.NewTicker(m.cfg.EpochPeriod)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-m.quit:
			return
		case <-tick:
		case <-m.kick:
		}
		if _, err := m.RunEpoch(); err != nil && !errors.Is(err, ErrClosed) {
			// An epoch can only fail on an internal invariant breach;
			// surface it in the report stream rather than crash the loop.
			if m.met != nil {
				m.met.epochsErr.Inc()
			}
			m.last.Store(&EpochReport{Epoch: m.epochN.Load(), When: time.Now(), Err: err.Error()})
		}
	}
}
