package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// netN is the deployed network size every workload serves.
const netN = 1024

// opKind is one client operation class.
type opKind uint8

const (
	opPlan opKind = iota
	opGet
	opJoin
	opLeave
)

func (k opKind) String() string {
	switch k {
	case opPlan:
		return "plan"
	case opGet:
		return "get"
	case opJoin:
		return "join"
	}
	return "leave"
}

// class folds join and leave into the write class the metrics report.
func (k opKind) class() string {
	if k == opJoin || k == opLeave {
		return "write"
	}
	return k.String()
}

// op is one generated request. seq is a write's 1-based position among
// its group's writes, so the acknowledgement must carry gen 1+seq.
type op struct {
	kind  opKind
	group int32
	dest  int32
	seq   int32
	due   time.Duration // open-loop send time, relative to phase start
}

// spec describes one workload: deployment shape and traffic mix.
type spec struct {
	name    string
	nodes   int     // brsmnd daemons (2 peers in cluster mode)
	durable bool    // -data-dir on local disk, restart at the end
	groups  int     // group population
	rate    float64 // open-loop offered load, ops/s
	// planFrac and getFrac are the plan-fetch and GET shares; the rest
	// are join/leave.
	planFrac, getFrac float64
	// coldWrites aims writes at the less popular half of the groups.
	coldWrites bool
	// fetchChanged aims plan fetches at the most recently changed group
	// not fetched since (cache misses); otherwise fetches are Zipf by
	// popularity.
	fetchChanged bool
	// size is the initial size of the group at popularity rank i of n.
	// Sizes are a fixed profile so that every seed offers the epoch loop
	// the same amount of work; the seed draws sources, members and the
	// op stream.
	size func(i, n int) int
}

var workloads = []*spec{
	{
		name:  "pubsub-hit",
		nodes: 1, groups: 256, rate: 160,
		planFrac: 0.90, getFrac: 0.05, coldWrites: true,
		size: zipfSize,
	},
	{
		name:  "videoconf-durable",
		nodes: 1, durable: true, groups: 128, rate: 120,
		planFrac: 0.45, getFrac: 0.05, fetchChanged: true,
		size: func(i, n int) int { return 3 + 30*i/n },
	},
	{
		name:  "cluster-forward",
		nodes: 2, groups: 256, rate: 120,
		planFrac: 0.90, getFrac: 0.05, coldWrites: true,
		size: zipfSize,
	},
}

func findSpec(name string) (*spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// zipfSize gives a few large fan-outs and a long tail of small groups:
// rank k of the profile has 2 + 510/k^1.3 members.
func zipfSize(i, n int) int {
	k := (i*7919)%n + 1 // spread the large groups over popularity ranks
	return 2 + int(510/math.Pow(float64(k), 1.3))
}

// groupModel is the client's view of one group: live membership for
// drawing valid ops, plus the full history for output checks.
type groupModel struct {
	id      string
	source  int
	initial []int32
	writes  []write // in generation order: writes[k] produces gen k+2

	members []int32
	pos     []int32 // output -> index in members, -1 when absent
	dirty   bool    // changed since the last generated fetch
}

type write struct {
	dest int32
	join bool
}

func (g *groupModel) has(d int32) bool { return g.pos[d] >= 0 }

func (g *groupModel) add(d int32) {
	g.pos[d] = int32(len(g.members))
	g.members = append(g.members, d)
}

func (g *groupModel) remove(d int32) {
	i := g.pos[d]
	last := g.members[len(g.members)-1]
	g.members[i] = last
	g.pos[last] = i
	g.members = g.members[:len(g.members)-1]
	g.pos[d] = -1
}

// membersAt reconstructs the sorted membership at generation gen.
func (g *groupModel) membersAt(gen uint64) ([]int, error) {
	if gen < 1 || gen > uint64(len(g.writes))+1 {
		return nil, fmt.Errorf("group %s: gen %d outside 1..%d", g.id, gen, len(g.writes)+1)
	}
	in := make(map[int32]bool, len(g.initial))
	for _, d := range g.initial {
		in[d] = true
	}
	for _, w := range g.writes[:gen-1] {
		if w.join {
			in[w.dest] = true
		} else {
			delete(in, w.dest)
		}
	}
	out := make([]int, 0, len(in))
	for d := range in {
		out = append(out, int(d))
	}
	sort.Ints(out)
	return out, nil
}

// generator draws the seeded op stream. Ops are drawn in dispatch order
// and the model is updated as each is drawn, so every join names a
// non-member and every leave a member other than the last.
type generator struct {
	sp     *spec
	mu     sync.Mutex
	rng    *rand.Rand
	pop    *rand.Zipf
	groups []*groupModel
	stack  []int32 // fetchChanged: changed groups, most recent last
}

func newGenerator(sp *spec, seed int64) *generator {
	pr := rand.New(rand.NewSource(seed))
	g := &generator{sp: sp, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	g.pop = rand.NewZipf(g.rng, 1.1, 1, uint64(sp.groups-1))
	for i := 0; i < sp.groups; i++ {
		m := &groupModel{id: fmt.Sprintf("%s-%d", sp.name, i), source: pr.Intn(netN), pos: make([]int32, netN)}
		for k := range m.pos {
			m.pos[k] = -1
		}
		for size := sp.size(i, sp.groups); len(m.members) < size; {
			if d := int32(pr.Intn(netN)); !m.has(d) {
				m.add(d)
			}
		}
		m.initial = append([]int32(nil), m.members...)
		g.groups = append(g.groups, m)
	}
	return g
}

// next draws one op. It is safe for concurrent use.
func (g *generator) next() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.rng.Float64()
	switch {
	case u < g.sp.planFrac:
		return op{kind: opPlan, group: g.fetchTarget()}
	case u < g.sp.planFrac+g.sp.getFrac:
		return op{kind: opGet, group: int32(g.rng.Intn(len(g.groups)))}
	}
	gi := int32(g.rng.Intn(len(g.groups)))
	if g.sp.coldWrites {
		half := len(g.groups) / 2
		gi = int32(half + g.rng.Intn(len(g.groups)-half))
	}
	m := g.groups[gi]
	join := g.rng.Intn(2) == 0
	if len(m.members) <= 2 {
		join = true
	} else if len(m.members) >= netN/2 {
		join = false
	}
	var d int32
	if join {
		for d = int32(g.rng.Intn(netN)); m.has(d); d = int32(g.rng.Intn(netN)) {
		}
		m.add(d)
	} else {
		d = m.members[g.rng.Intn(len(m.members))]
		m.remove(d)
	}
	m.writes = append(m.writes, write{dest: d, join: join})
	if g.sp.fetchChanged {
		if m.dirty {
			for i, x := range g.stack {
				if x == gi {
					g.stack = append(g.stack[:i], g.stack[i+1:]...)
					break
				}
			}
		}
		m.dirty = true
		g.stack = append(g.stack, gi)
	}
	k := opLeave
	if join {
		k = opJoin
	}
	return op{kind: k, group: gi, dest: d, seq: int32(len(m.writes))}
}

func (g *generator) fetchTarget() int32 {
	if g.sp.fetchChanged {
		if n := len(g.stack); n > 0 {
			gi := g.stack[n-1]
			g.stack = g.stack[:n-1]
			g.groups[gi].dirty = false
			return gi
		}
		return int32(g.rng.Intn(len(g.groups)))
	}
	return int32(g.pop.Uint64())
}

// schedule draws the open-loop phase: Poisson arrivals at the spec's
// rate for d.
func (g *generator) schedule(d time.Duration) []op {
	var ops []op
	t := 0.0
	for {
		g.mu.Lock()
		t += g.rng.ExpFloat64() / g.sp.rate
		g.mu.Unlock()
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return ops
		}
		o := g.next()
		o.due = due
		ops = append(ops, o)
	}
}
