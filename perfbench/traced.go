package main

// The traced run: the same seeded workload replayed through the serving
// stack built in-process (faultd monitors, shard.Set, api.Server and,
// for two nodes, cluster.Node) behind real loopback listeners. Spans are
// recorded only from this package, around the calls into each layer:
//
//	edge         the client-facing handler (cluster.Node or api.Server)
//	api          api.Server.ServeHTTP on the node that serves the request
//	shard        the api->shard boundary: a wrapping api.Groups whose
//	             plan and write calls admit through shard tickets
//	shard.admit  the ticket's enqueue->drain stamps
//	groupd       the ticket's drain->execed stamps: the groupd call on
//	             the shard worker
//	store.*      calls into the store.Store handed to groupd
//
// Plan misses are replayed afterwards through core.Planner.RouteTraced,
// fabric.Flatten and plancodec.Encode on the same (source, members), and
// the WAL records appended while tracing are replayed through a fresh
// store.FileStore to time enough fsyncs for a p99.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"brsmn/internal/api"
	"brsmn/internal/backend"
	"brsmn/internal/cluster"
	"brsmn/internal/core"
	"brsmn/internal/fabric"
	"brsmn/internal/faultd"
	"brsmn/internal/groupd"
	"brsmn/internal/mcast"
	"brsmn/internal/obs"
	"brsmn/internal/plancodec"
	"brsmn/internal/rbn"
	"brsmn/internal/shard"
	"brsmn/internal/store"
)

// reqTrace holds one request's server-side stamps, Unix ns. Handlers
// write them atomically; the analysis reads them after the phase.
type reqTrace struct {
	edgeIn, edgeOut int64
	edgeNode        int64
	apiIn, apiOut   int64
	apiNode         int64
	grpIn, grpOut   int64
	enq, drain      int64
	execd           int64
}

type ctxKey struct{}

// tracer collects spans for requests tagged with X-Request-Id.
type tracer struct {
	reqs []reqTrace
	on   atomic.Bool

	mu     sync.Mutex
	stores []storeSpan
	recs   []store.Record // appended while tracing, for replayFsyncs
}

func now() int64 { return time.Now().UnixNano() }

func (t *tracer) req(r *http.Request) (int64, *reqTrace) {
	if !t.on.Load() {
		return 0, nil
	}
	id, err := strconv.ParseInt(r.Header.Get(headerRequestID), 10, 64)
	if err != nil || id <= 0 || id >= int64(len(t.reqs)) {
		return 0, nil
	}
	return id, &t.reqs[id]
}

// load reads request id's stamps.
func (t *tracer) load(id int64) reqTrace {
	rt := &t.reqs[id]
	return reqTrace{
		edgeIn: atomic.LoadInt64(&rt.edgeIn), edgeOut: atomic.LoadInt64(&rt.edgeOut), edgeNode: atomic.LoadInt64(&rt.edgeNode),
		apiIn: atomic.LoadInt64(&rt.apiIn), apiOut: atomic.LoadInt64(&rt.apiOut), apiNode: atomic.LoadInt64(&rt.apiNode),
		grpIn: atomic.LoadInt64(&rt.grpIn), grpOut: atomic.LoadInt64(&rt.grpOut),
		enq: atomic.LoadInt64(&rt.enq), drain: atomic.LoadInt64(&rt.drain),
		execd: atomic.LoadInt64(&rt.execd),
	}
}

// storeSpans copies the recorded store spans.
func (t *tracer) storeSpans() []storeSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]storeSpan(nil), t.stores...)
}

func (t *tracer) fromCtx(ctx context.Context) *reqTrace {
	id, ok := ctx.Value(ctxKey{}).(int64)
	if !ok {
		return nil
	}
	return &t.reqs[id]
}

// edge wraps the client-facing handler of node; forwarded hops (which
// carry the cluster hop header) are not edges.
func (t *tracer) edge(node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, rt := t.req(r)
		if rt == nil || r.Header.Get(cluster.HeaderHops) != "" {
			h.ServeHTTP(w, r)
			return
		}
		atomic.StoreInt64(&rt.edgeNode, int64(node))
		atomic.StoreInt64(&rt.edgeIn, now())
		h.ServeHTTP(w, r)
		atomic.StoreInt64(&rt.edgeOut, now())
	})
}

// api wraps api.Server on node and hands the request ID to the groups
// wrapper through the context.
func (t *tracer) api(node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, rt := t.req(r)
		if rt == nil {
			h.ServeHTTP(w, r)
			return
		}
		atomic.StoreInt64(&rt.apiNode, int64(node))
		atomic.StoreInt64(&rt.apiIn, now())
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, id)))
		atomic.StoreInt64(&rt.apiOut, now())
	})
}

// tracedGroups is the api.Groups the in-process api.Server serves. For
// traced requests it admits plans and writes as shard tickets, whose
// stamps time the admission stages; everything else passes through.
type tracedGroups struct {
	*shard.Set
	t *tracer
}

func (g *tracedGroups) stamp(rt *reqTrace, in int64, tk *shard.Ticket) {
	atomic.StoreInt64(&rt.grpIn, in)
	atomic.StoreInt64(&rt.grpOut, now())
	if tk == nil || !tk.Done() {
		return
	}
	st := tk.Stamps()
	atomic.StoreInt64(&rt.enq, st.Enqueued)
	atomic.StoreInt64(&rt.drain, st.Drained)
	atomic.StoreInt64(&rt.execd, st.Execed)
}

func (g *tracedGroups) admit(ctx context.Context, rt *reqTrace, submit func() (*shard.Ticket, error)) (*shard.Ticket, error) {
	in := now()
	tk, err := submit()
	if err == nil {
		if err = tk.Wait(ctx); err == nil {
			err = tk.Err()
		}
	}
	g.stamp(rt, in, tk)
	return tk, err
}

func (g *tracedGroups) PlanContext(ctx context.Context, id string) (groupd.PlanInfo, error) {
	rt := g.t.fromCtx(ctx)
	if rt == nil {
		return g.Set.PlanContext(ctx, id)
	}
	tk, err := g.admit(ctx, rt, func() (*shard.Ticket, error) { return g.Set.SubmitPlan(id) })
	if err != nil {
		return groupd.PlanInfo{}, err
	}
	p, _ := tk.Plan()
	return p, nil
}

func (g *tracedGroups) JoinContext(ctx context.Context, id string, d int) (groupd.Update, error) {
	return g.write(ctx, id, d, (*shard.Set).JoinContext, (*shard.Set).SubmitJoin)
}

func (g *tracedGroups) LeaveContext(ctx context.Context, id string, d int) (groupd.Update, error) {
	return g.write(ctx, id, d, (*shard.Set).LeaveContext, (*shard.Set).SubmitLeave)
}

func (g *tracedGroups) write(ctx context.Context, id string, d int,
	sync func(*shard.Set, context.Context, string, int) (groupd.Update, error),
	submit func(*shard.Set, string, int) (*shard.Ticket, error)) (groupd.Update, error) {
	rt := g.t.fromCtx(ctx)
	if rt == nil {
		return sync(g.Set, ctx, id, d)
	}
	tk, err := g.admit(ctx, rt, func() (*shard.Ticket, error) { return submit(g.Set, id, d) })
	if err != nil {
		return groupd.Update{}, err
	}
	u, _ := tk.Update()
	return u, nil
}

// storeSpan is one call into the store: its interval and the fsync time
// inside it (from the store's own fsync histogram).
type storeSpan struct {
	start, end int64
	syncNs     int64
	sync       bool // an explicit Sync call, not an Append
	epoch      bool // an epoch record
}

// timedStore times the groupd->store boundary.
type timedStore struct {
	store.Store
	met *store.Metrics
	t   *tracer
}

func (s *timedStore) Append(rec store.Record) (uint64, error) {
	if !s.t.on.Load() {
		return s.Store.Append(rec)
	}
	f0, t0 := s.met.FsyncDur.Sum(), now()
	lsn, err := s.Store.Append(rec)
	s.record(storeSpan{start: t0, end: now(), syncNs: int64((s.met.FsyncDur.Sum() - f0) * 1e9), epoch: rec.Op == store.OpEpoch})
	rec.Members = slices.Clone(rec.Members)
	s.t.mu.Lock()
	s.t.recs = append(s.t.recs, rec)
	s.t.mu.Unlock()
	return lsn, err
}

func (s *timedStore) Sync() error {
	if !s.t.on.Load() {
		return s.Store.Sync()
	}
	f0, t0 := s.met.FsyncDur.Sum(), now()
	err := s.Store.Sync()
	s.record(storeSpan{start: t0, end: now(), syncNs: int64((s.met.FsyncDur.Sum() - f0) * 1e9), sync: true})
	return err
}

func (s *timedStore) record(sp storeSpan) {
	s.t.mu.Lock()
	s.t.stores = append(s.t.stores, sp)
	s.t.mu.Unlock()
}

// stackNode is one in-process serving node.
type stackNode struct {
	set    *shard.Set
	reg    *obs.Registry
	node   *cluster.Node
	srv    *http.Server
	stores []*timedStore
}

// stack is the in-process deployment of one workload.
type stack struct {
	nodes []*stackNode
	bases []string
}

func buildStack(sp *spec, t *tracer, dir string) (*stack, error) {
	st := &stack{}
	var lns []net.Listener
	peers := map[string]string{}
	for i := 0; i < sp.nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		st.bases = append(st.bases, "http://"+ln.Addr().String())
		peers[fmt.Sprintf("n%d", i)] = st.bases[i]
	}
	for i := 0; i < sp.nodes; i++ {
		sn, h, err := buildNode(sp, t, i, peers, filepath.Join(dir, fmt.Sprintf("data-%d", i)))
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			st.close()
			return nil, err
		}
		sn.srv = &http.Server{Handler: t.edge(i, h), ReadHeaderTimeout: 5 * time.Second}
		st.nodes = append(st.nodes, sn)
		go sn.srv.Serve(lns[i])
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, sn := range st.nodes {
		for sn.node != nil && sn.node.Ready() != nil {
			if time.Now().After(deadline) {
				st.close()
				return nil, errors.New("in-process cluster not ready within 30s")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return st, nil
}

// buildNode mirrors brsmnd's handler construction with its deployed
// defaults.
func buildNode(sp *spec, t *tracer, i int, peers map[string]string, dataDir string) (*stackNode, http.Handler, error) {
	sn := &stackNode{reg: obs.NewRegistry()}
	self := fmt.Sprintf("n%d", i)
	if sp.nodes > 1 {
		sn.reg.SetCommonLabel(fmt.Sprintf("node=%q", self))
	}
	eng := rbn.Engine{Workers: 1, Occ: &rbn.Occupancy{}}
	fm, err := faultd.NewMonitor(faultd.Config{N: netN, Engine: eng, ProbeCount: 4, MetricsLabel: `shard="0"`}, faultd.NewInjector(1))
	if err != nil {
		return nil, nil, err
	}
	fm.RegisterMetrics(sn.reg)
	monitors := []*faultd.Monitor{fm}
	tier, err := backend.ParseTier("brsmn")
	if err != nil {
		return nil, nil, err
	}
	cfg := shard.Config{
		Shards:     1,
		QueueDepth: 256,
		BatchMax:   32,
		TicketCap:  65536,
		TicketTTL:  2 * time.Minute,
		Group: groupd.Config{
			N:              netN,
			Engine:         eng,
			Shards:         16,
			CacheSize:      4096,
			EpochPeriod:    250 * time.Millisecond,
			EpochThreshold: 64,
			Workers:        1,
			DefaultBackend: tier,
		},
		NewPolicy: func(int) groupd.FaultPolicy { return fm },
		Metrics:   sn.reg,
	}
	if sp.nodes > 1 {
		cfg.TicketNode = self
	}
	if sp.durable {
		cfg.SnapshotEvery = time.Minute
		cfg.NewStore = func(k int) (store.Store, error) {
			met := store.RegisterMetrics(sn.reg, fmt.Sprintf(`shard="%d"`, k))
			fs, err := store.OpenFile(filepath.Join(dataDir, fmt.Sprintf("shard-%d", k)), store.FileConfig{FsyncBatch: 8, Metrics: met})
			if err != nil {
				return nil, err
			}
			ts := &timedStore{Store: fs, met: met, t: t}
			sn.stores = append(sn.stores, ts)
			return ts, nil
		}
		cfg.FaultSpecs = func(int) []string { return nil }
	}
	set, err := shard.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	sn.set = set
	opts := []api.Option{api.WithShards(set, monitors), api.WithMetrics(sn.reg)}
	if sp.durable {
		opts = append(opts, api.WithSnapshots(set))
	}
	if sp.nodes > 1 {
		opts = append(opts, api.WithReadiness(func() error {
			if sn.node == nil {
				return nil
			}
			return sn.node.Ready()
		}))
	}
	apiH := t.api(i, api.NewServer(eng, &tracedGroups{Set: set, t: t}, nil, opts...))
	if sp.nodes == 1 {
		return sn, apiH, nil
	}
	node, err := cluster.New(cluster.Config{
		Self:    self,
		Peers:   peers,
		Local:   set,
		Handler: apiH,
		Metrics: sn.reg,
	})
	if err != nil {
		set.Close()
		return nil, nil, err
	}
	sn.node = node
	return sn, node, nil
}

func (st *stack) close() {
	for _, sn := range st.nodes {
		if sn.node != nil {
			sn.node.Close()
		}
	}
	for _, sn := range st.nodes {
		sn.set.Close()
		if sn.srv != nil {
			sn.srv.Close()
		}
	}
}

// metricsSnapshot scrapes every node's registry.
func (st *stack) metricsSnapshot() map[string]float64 {
	m := map[string]float64{}
	for _, sn := range st.nodes {
		var b bytes.Buffer
		if err := sn.reg.WritePrometheus(&b); err != nil {
			continue
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err == nil {
				m[line[:i]] += v
			}
		}
	}
	return m
}

// sumDelta sums after-before over the series of family whose labels
// contain every filter.
func sumDelta(before, after map[string]float64, family string, filters ...string) float64 {
	total := 0.0
	for k, v := range after {
		if k != family && !strings.HasPrefix(k, family+"{") {
			continue
		}
		match := true
		for _, f := range filters {
			if !strings.Contains(k, f) {
				match = false
			}
		}
		if match {
			total += v - before[k]
		}
	}
	return total
}

// phaseFrac is the untraced share of a traced run's measured time; the
// traced phase gets the rest.
const phaseFrac = 0.3

func runTraced(ctx context.Context, cfg config, sp *spec, dir string) (*outcome, error) {
	out := &outcome{checksOK: true}
	gen := newGenerator(sp, cfg.seed)
	total := time.Duration(cfg.seconds) * time.Second
	plainDur := time.Duration(float64(total) * phaseFrac)
	warmOps := gen.schedule(warmup)
	plainOps := gen.schedule(plainDur)
	tracedOps := gen.schedule(total - plainDur)

	t := &tracer{reqs: make([]reqTrace, len(warmOps)+len(plainOps)+len(tracedOps)+1)}
	st, err := buildStack(sp, t, dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	if err := populate(st.bases, gen.groups); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	c := newClient(gen, st.bases)
	defer c.close()
	warm, _ := c.openLoop(ctx, warmOps)
	plain, _ := c.openLoop(ctx, plainOps)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	before := st.metricsSnapshot()
	t.on.Store(true)
	c.tag = true
	t0 := time.Now()
	traced, start := c.openLoop(ctx, tracedOps)
	wall := time.Since(t0)
	c.tag = false
	t.on.Store(false)
	after := st.metricsSnapshot()

	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	bad := c.checkOutputs(ctx)
	_, gets, sbad := c.fetchState(ctx, st.bases[0])
	bad += sbad
	st.close()
	st = nil

	rp, rbad := replayMisses(c, traced)
	bad += rbad
	allocs, err := allocsPerRoute(c, traced)
	if err != nil {
		return nil, err
	}
	syncNs, err := replayFsyncs(ctx, dir, t.recs)
	if err != nil {
		return nil, fmt.Errorf("fsync replay: %w", err)
	}

	layers(out, sp, t, plain, traced, start.UnixNano(), wall, before, after, rp, allocs, syncNs)
	if err := writeSpans(cfg, t, traced, start.UnixNano(), rp); err != nil {
		out.note("spans not written: %v", err)
	}
	failed, summary := c.failed()
	out.attempted = len(warm) + len(plain) + len(traced) + gets
	out.failed = failed
	out.checksOK = bad == 0
	out.note("traced run: %d untraced then %d traced ops at %.0f/s offered; %d plan misses replayed",
		len(plain), len(traced), sp.rate, len(rp))
	if failed > 0 {
		out.note("failures: %s", summary)
	}
	return out, nil
}

// replay is one plan miss rerun outside the serving path.
type replay struct {
	id                                   int64
	route, flatten, encode               int64
	scatter, quasi, advance, deliver, tb int64
}

// replayMisses reroutes every plan miss of the traced phase on a private
// planner, timing core, fabric and plancodec, and checks the rerun
// program is byte-identical to the one served.
func replayMisses(c *client, traced []result) ([]replay, int) {
	pl, err := core.NewPlanner(netN, rbn.Engine{Workers: 1})
	if err != nil {
		c.fail("replay: " + err.Error())
		return nil, 1
	}
	var out []replay
	bad := 0
	for i := range traced {
		r := &traced[i]
		if !r.ok || r.op.kind != opPlan || r.cached {
			continue
		}
		g := c.gen.groups[r.op.group]
		a, err := assignmentAt(g, r.gen)
		if err != nil {
			bad++
			c.fail("replay: " + err.Error())
			continue
		}
		tr := &obs.RouteTrace{}
		t0 := time.Now()
		res, err := pl.RouteTraced(a, tr)
		t1 := time.Now()
		var cols []fabric.Column
		if err == nil {
			cols, err = fabric.Flatten(res)
		}
		t2 := time.Now()
		var blob []byte
		if err == nil {
			blob, err = plancodec.Encode(netN, cols)
		}
		t3 := time.Now()
		if err == nil {
			if served := c.plans[planKey{r.op.group, r.gen}]; len(served) == 0 || served[0] != base64.StdEncoding.EncodeToString(blob) {
				err = fmt.Errorf("group %s gen %d: rerouted program differs from the served one", g.id, r.gen)
			}
		}
		if err != nil {
			bad++
			c.fail("replay: " + err.Error())
			continue
		}
		stages := tr.ScatterNs + tr.QuasiNs + tr.AdvanceNs + tr.DeliverNs
		out = append(out, replay{
			id: r.id, route: int64(t1.Sub(t0)), flatten: int64(t2.Sub(t1)), encode: int64(t3.Sub(t2)),
			scatter: tr.ScatterNs, quasi: tr.QuasiNs, advance: tr.AdvanceNs, deliver: tr.DeliverNs,
			tb: tr.TotalNs - stages,
		})
	}
	return out, bad
}

func assignmentAt(g *groupModel, gen uint64) (mcast.Assignment, error) {
	members, err := g.membersAt(gen)
	if err != nil {
		return mcast.Assignment{}, err
	}
	dests := make([][]int, netN)
	dests[g.source] = members
	return mcast.New(netN, dests)
}

// allocsPerRoute routes up to 64 of the traced plan targets on a warm
// private planner, with the serving stack closed, and returns heap
// allocations per route.
func allocsPerRoute(c *client, traced []result) (float64, error) {
	var as []mcast.Assignment
	for i := range traced {
		r := &traced[i]
		if r.ok && r.op.kind == opPlan && len(as) < 64 {
			a, err := assignmentAt(c.gen.groups[r.op.group], r.gen)
			if err != nil {
				return 0, err
			}
			as = append(as, a)
		}
	}
	if len(as) == 0 {
		return 0, nil
	}
	pl, err := core.NewPlanner(netN, rbn.Engine{Workers: 1})
	if err != nil {
		return 0, err
	}
	for _, a := range as {
		if _, err := pl.Route(a); err != nil {
			return 0, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, a := range as {
		if _, err := pl.Route(a); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(as)), nil
}

// replayFsyncs appends recs, the WAL records of the traced phase, over
// and over to a fresh store.FileStore with the deployed -fsync-batch 8,
// with the serving stack closed, and returns the first minTailSamples
// fsync durations in ns. A traced phase makes only a few hundred fsyncs,
// too few for store.sync_us_p99. Both sync percentiles come from the
// replay so that they describe one distribution; it runs in an otherwise
// idle process, where fsync returns faster than beside the serving load.
func replayFsyncs(ctx context.Context, dir string, recs []store.Record) ([]float64, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	met := store.RegisterMetrics(obs.NewRegistry(), `shard="replay"`)
	fs, err := store.OpenFile(filepath.Join(dir, "fsync-replay"), store.FileConfig{FsyncBatch: 8, Metrics: met})
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	var ns []float64
	for i := 0; len(ns) < minTailSamples; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		n0, f0 := met.FsyncDur.Count(), met.FsyncDur.Sum()
		if _, err := fs.Append(recs[i%len(recs)]); err != nil {
			return nil, err
		}
		if met.FsyncDur.Count() > n0 {
			ns = append(ns, (met.FsyncDur.Sum()-f0)*1e9)
		}
	}
	return ns, nil
}

// layerNames are the self-time columns of a traced request, in path
// order; the l* constants index them.
var layerNames = [...]string{"gen", "net", "cluster", "api", "shard", "groupd", "store", "core", "fabric", "plancodec"}

const (
	lGen = iota
	lNet
	lCluster
	lAPI
	lShard
	lGroupd
	lStore
	lCore
	lFabric
	lPlancodec
)

// attributeStores sums each store span into the admitted request that
// was executing when it ran: the one whose drain..execed window holds
// the span and which finished first after it. Epoch records are
// background work and stay unattributed.
func attributeStores(t *tracer, traced []result) map[int64]int64 {
	type win struct {
		id           int64
		drain, execd int64
		write        bool
	}
	var ws []win
	for i := range traced {
		r := &traced[i]
		rt := t.load(r.id)
		if rt.execd > 0 {
			ws = append(ws, win{r.id, rt.drain, rt.execd, r.op.kind == opJoin || r.op.kind == opLeave})
		}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].execd < ws[j].execd })
	out := map[int64]int64{}
	for _, sp := range t.storeSpans() {
		if sp.epoch {
			continue
		}
		k := sort.Search(len(ws), func(i int) bool { return ws[i].execd >= sp.end })
		if k < len(ws) && ws[k].drain <= sp.start && ws[k].write {
			out[ws[k].id] += sp.end - sp.start
		}
	}
	return out
}

// split returns traced request r's end-to-end time and its self time in
// each layer, ns.
func split(t *tracer, r *result, startNs int64, storeNs map[int64]int64, rp map[int64]*replay) (int64, [len(layerNames)]int64) {
	rt := t.load(r.id)
	due, send, done := startNs+int64(r.due), startNs+int64(r.send), startNs+int64(r.done)
	edge := rt.edgeOut - rt.edgeIn
	apiD := rt.apiOut - rt.apiIn
	grp := rt.grpOut - rt.grpIn
	exec := rt.execd - rt.drain
	var s [len(layerNames)]int64
	s[lGen] = send - due
	s[lNet] = done - send - edge
	s[lCluster] = edge - apiD
	s[lAPI] = apiD - grp
	s[lShard] = grp - exec
	s[lStore] = storeNs[r.id]
	if x := rp[r.id]; x != nil {
		s[lCore], s[lFabric], s[lPlancodec] = x.route, x.flatten, x.encode
	}
	s[lGroupd] = exec - s[lStore] - s[lCore] - s[lFabric] - s[lPlancodec]
	return done - due, s
}

func us(ns []float64, p float64) float64 { return percentile(ns, p) / 1e3 }

// layers computes every per-layer metric of the traced phase.
func layers(out *outcome, sp *spec, t *tracer, plain, traced []result, startNs int64,
	wall time.Duration, before, after map[string]float64, rp []replay, allocs float64, syncNs []float64) {
	rpByID := map[int64]*replay{}
	for i := range rp {
		rpByID[rp[i].id] = &rp[i]
	}
	storeNs := attributeStores(t, traced)

	var (
		planSelf, writeSelf         = map[string][]float64{}, map[string][]float64{}
		planE2E, writeE2E, late     []float64
		apiPlan, apiWrite, rtt      []float64
		admit, exec, hitUs, missUs  []float64
		writeUs, fwdLat, localLat   []float64
		bytesSum, blobSum           float64
		plans, hits, fwd, okN, miss int
	)
	for i := range traced {
		r := &traced[i]
		late = append(late, float64(r.send-r.due)/1e6)
		if !r.ok {
			continue
		}
		okN++
		if r.fwd {
			fwd++
		}
		rt := t.load(r.id)
		if r.op.kind == opGet || rt.execd == 0 {
			continue
		}
		e2e, s := split(t, r, startNs, storeNs, rpByID)
		admit = append(admit, float64(rt.drain-rt.enq))
		exec = append(exec, float64(rt.execd-rt.drain))
		self := writeSelf
		if r.op.kind == opPlan {
			self = planSelf
			plans++
			bytesSum += float64(r.bytes)
			blobSum += float64(r.blobLen)
			planE2E = append(planE2E, float64(e2e))
			apiPlan = append(apiPlan, float64(s[lAPI]))
			rtt = append(rtt, float64(s[lNet]))
			if r.fwd {
				fwdLat = append(fwdLat, float64(r.done-r.send))
			} else {
				localLat = append(localLat, float64(r.done-r.send))
			}
			if r.cached {
				hits++
				hitUs = append(hitUs, float64(rt.execd-rt.drain))
			} else {
				miss++
				missUs = append(missUs, float64(rt.execd-rt.drain))
			}
		} else {
			writeE2E = append(writeE2E, float64(e2e))
			apiWrite = append(apiWrite, float64(s[lAPI]))
			writeUs = append(writeUs, float64(rt.execd-rt.drain))
		}
		for k, n := range layerNames {
			self[n] = append(self[n], float64(s[k]))
		}
	}
	sec := wall.Seconds()
	nodes := float64(sp.nodes)

	out.set("net.rtt_us_p50", "us", us(rtt, 50))
	out.set("api.plan_self_us_p50", "us", us(apiPlan, 50))
	out.set("api.write_self_us_p50", "us", us(apiWrite, 50))
	out.set("api.plan_resp_bytes", "B", bytesSum/math.Max(1, float64(plans)))
	out.set("cluster.forwarded_frac", "frac", float64(fwd)/math.Max(1, float64(okN)))
	extra := 0.0
	if len(fwdLat) > 0 && len(localLat) > 0 {
		extra = us(fwdLat, 50) - us(localLat, 50)
	}
	out.set("cluster.forward_extra_us_p50", "us", extra)
	out.set("cluster.forward_retries", "count", sumDelta(before, after, "brsmn_cluster_forward_retries_total"))
	out.set("shard.admit_wait_us_p50", "us", us(admit, 50))
	out.set("shard.admit_wait_us_p99", "us", us(admit, 99))
	out.set("shard.exec_us_p50", "us", us(exec, 50))
	out.set("shard.batch_size_mean", "count",
		sumDelta(before, after, "brsmn_shard_batch_size_sum")/math.Max(1, sumDelta(before, after, "brsmn_shard_batch_size_count")))
	out.set("shard.shed", "count", sumDelta(before, after, "brsmn_shard_shed_total"))
	out.set("groupd.plan_hit_ratio", "frac", float64(hits)/math.Max(1, float64(plans)))
	out.set("groupd.plan_hit_us_p50", "us", us(hitUs, 50))
	out.set("groupd.plan_miss_us_p50", "us", us(missUs, 50))
	out.set("groupd.patch_frac", "frac", sumDelta(before, after, "brsmn_plan_patches_total", `result="patched"`)/math.Max(1, float64(miss)))
	out.set("groupd.write_us_p50", "us", us(writeUs, 50))
	epochs := sumDelta(before, after, "brsmn_epoch_duration_seconds_count")
	out.set("groupd.epoch_busy_frac", "frac", sumDelta(before, after, "brsmn_epoch_duration_seconds_sum")/sec/nodes)
	out.set("groupd.epochs_per_s", "1/s", epochs/sec/nodes)
	out.set("groupd.epoch_rounds_mean", "count",
		sumDelta(before, after, "brsmn_epoch_rounds_sum")/math.Max(1, sumDelta(before, after, "brsmn_epoch_rounds_count")))

	var route, tb, sc, qu, adv, del, fl, enc []float64
	for _, x := range rp {
		route = append(route, float64(x.route))
		tb = append(tb, float64(x.tb))
		sc = append(sc, float64(x.scatter))
		qu = append(qu, float64(x.quasi))
		adv = append(adv, float64(x.advance))
		del = append(del, float64(x.deliver))
		fl = append(fl, float64(x.flatten))
		enc = append(enc, float64(x.encode))
	}
	out.set("core.route_us_p50", "us", us(route, 50))
	out.set("core.allocs_per_route", "count", allocs)
	out.set("core.tree_build_us", "us", us(tb, 50))
	out.set("core.scatter_us", "us", us(sc, 50))
	out.set("core.quasi_us", "us", us(qu, 50))
	out.set("core.advance_us", "us", us(adv, 50))
	out.set("core.deliver_us", "us", us(del, 50))
	out.set("fabric.flatten_us_p50", "us", us(fl, 50))
	out.set("plancodec.encode_us_p50", "us", us(enc, 50))
	out.set("plancodec.blob_bytes", "B", blobSum/math.Max(1, float64(plans)))

	var appendUs, liveSyncUs []float64
	for _, s := range t.storeSpans() {
		if !s.sync {
			appendUs = append(appendUs, float64(s.end-s.start-s.syncNs))
		}
		if s.syncNs > 0 {
			liveSyncUs = append(liveSyncUs, float64(s.syncNs))
		}
	}
	out.set("store.append_us_p50", "us", us(appendUs, 50))
	out.set("store.sync_us_p50", "us", us(syncNs, 50))
	out.set("store.sync_us_p99", "us", us(syncNs, 99))
	out.set("store.appends_per_sync", "count",
		sumDelta(before, after, "brsmn_wal_appends_total")/math.Max(1, sumDelta(before, after, "brsmn_wal_fsyncs_total")))
	if len(syncNs) > 0 {
		out.note("store.sync_us_p50 and p99 are over %d replayed fsyncs; the traced phase's %d fsyncs had p50 %.1f us",
			len(syncNs), len(liveSyncUs), us(liveSyncUs, 50))
	}
	out.set("gen.late_p99_ms", "ms", percentile(late, 99))

	// The plan decomposition: the layers' self-time p50s against the
	// traced end-to-end p50; the residual is what the layers miss.
	e2e := percentile(planE2E, 50)
	sum := 0.0
	var parts []string
	for _, n := range layerNames {
		p := percentile(planSelf[n], 50)
		sum += p
		parts = append(parts, fmt.Sprintf("%s %.1f", n, p/1e3))
	}
	out.set("trace.unexplained_frac", "frac", (e2e-sum)/math.Max(1, e2e))
	out.note("plan p50 %.1f us = %s + residual %.1f us (self-time p50s, us)", e2e/1e3, strings.Join(parts, " + "), (e2e-sum)/1e3)
	if len(writeE2E) > 0 {
		we := percentile(writeE2E, 50)
		ws := 0.0
		parts = parts[:0]
		for _, n := range layerNames {
			p := percentile(writeSelf[n], 50)
			ws += p
			parts = append(parts, fmt.Sprintf("%s %.1f", n, p/1e3))
		}
		out.note("write p50 %.1f us = %s + residual %.1f us", we/1e3, strings.Join(parts, " + "), (we-ws)/1e3)
	}
	var plainPlan []float64
	for i := range plain {
		if plain[i].ok && plain[i].op.kind == opPlan {
			plainPlan = append(plainPlan, float64(plain[i].latency()))
		}
	}
	up := percentile(plainPlan, 50)
	out.set("trace.overhead_frac", "frac", (e2e-up)/math.Max(1, up))
	out.note("untraced in-process plan p50 %.1f us, traced %.1f us", up/1e3, e2e/1e3)
}

// writeSpans writes the traced phase's spans, one JSON object a line,
// under the work directory.
func writeSpans(cfg config, t *tracer, traced []result, startNs int64, rp []replay) error {
	dir := filepath.Join(cfg.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	type span struct {
		Req    int64  `json:"req"`
		Name   string `json:"name"`
		Start  int64  `json:"start"`
		End    int64  `json:"end"`
		Parent string `json:"parent,omitempty"`
		Node   int64  `json:"node,omitempty"`
	}
	rpByID := map[int64]*replay{}
	for i := range rp {
		rpByID[rp[i].id] = &rp[i]
	}
	enc := json.NewEncoder(f)
	for i := range traced {
		r := &traced[i]
		rt := t.load(r.id)
		due, send, done := startNs+int64(r.due), startNs+int64(r.send), startNs+int64(r.done)
		spans := []span{
			{r.id, "request." + r.op.kind.class(), due, done, "", 0},
			{r.id, "client", send, done, "request." + r.op.kind.class(), 0},
		}
		if rt.edgeIn > 0 {
			spans = append(spans, span{r.id, "edge", rt.edgeIn, rt.edgeOut, "client", rt.edgeNode})
		}
		if rt.apiIn > 0 {
			spans = append(spans, span{r.id, "api", rt.apiIn, rt.apiOut, "edge", rt.apiNode})
		}
		if rt.grpIn > 0 {
			spans = append(spans, span{r.id, "shard", rt.grpIn, rt.grpOut, "api", rt.apiNode})
		}
		if rt.execd > 0 {
			spans = append(spans,
				span{r.id, "shard.admit", rt.enq, rt.drain, "shard", rt.apiNode},
				span{r.id, "groupd", rt.drain, rt.execd, "shard", rt.apiNode})
		}
		if x := rpByID[r.id]; x != nil {
			// Replayed after the run; the spans carry durations only.
			spans = append(spans,
				span{r.id, "core.replay", 0, x.route, "groupd", 0},
				span{r.id, "fabric.replay", 0, x.flatten, "groupd", 0},
				span{r.id, "plancodec.replay", 0, x.encode, "groupd", 0})
		}
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	for _, s := range t.storeSpans() {
		name := "store.append"
		if s.sync {
			name = "store.sync"
		}
		if err := enc.Encode(span{0, name, s.start, s.end, "groupd", 0}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
