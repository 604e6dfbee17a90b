// Command perfbench is the repository benchmark: it drives brsmnd
// daemons built from this tree over loopback HTTP with seeded open-loop
// workloads, checks every reply against a client-side model, and prints
// one JSON result line. With -trace 1 it instead replays the same
// workload through the serving stack built in-process and reports
// per-layer self times.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload pubsub-hit --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// end-to-end metric each per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTailSamples is the fewest samples of an op class a p99 is computed
// from.
const minTailSamples = 1000

// setups is how many times a run boots and populates its daemons;
// setup_s is their median.
const setups = 11

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	brsmnd   string
	work     string
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result line plus its human-readable notes.
type outcome struct {
	attempted int
	failed    int
	checksOK  bool
	metrics   map[string]metric
	notes     []string
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: pubsub-hit, videoconf-durable or cluster-forward")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&cfg.trace, "trace", 0, "1 runs the traced in-process stack and prints the per-layer metrics")
	flag.StringVar(&cfg.brsmnd, "brsmnd", "", "brsmnd binary built from this tree")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for run state, logs, spans and result files")
	flag.Parse()
	if err := validate(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := report(os.Stdout, cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResultFile(cfg, out, line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result file:", err)
	}
	if !out.checksOK || out.failed > 0 {
		os.Exit(1)
	}
}

func validate(cfg *config) error {
	if _, err := findSpec(cfg.workload); err != nil {
		return err
	}
	if cfg.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	if cfg.trace == 0 {
		if cfg.brsmnd == "" {
			return errors.New("-brsmnd is required")
		}
		if _, err := os.Stat(cfg.brsmnd); err != nil {
			return err
		}
	}
	return nil
}

func run(ctx context.Context, cfg config) (*outcome, error) {
	sp, _ := findSpec(cfg.workload)
	dir, err := filepath.Abs(filepath.Join(cfg.work, "run", fmt.Sprintf("%s-%d-%d", sp.name, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var out *outcome
	if cfg.trace == 1 {
		out, err = runTraced(ctx, cfg, sp, dir)
	} else {
		out, err = runDaemons(ctx, cfg, sp, dir)
	}
	if err == nil && out.checksOK && out.failed == 0 {
		os.RemoveAll(dir)
	}
	return out, err
}

// phases splits the measured seconds: open loop then closed loop.
func phases(seconds int) (open, closed time.Duration) {
	total := time.Duration(seconds) * time.Second
	open = total * 6 / 10
	return open, total - open
}

// warmup is the untimed load before the measured phases: connections
// open, caches fill and the first epochs run.
const warmup = time.Second

// runDaemons is the end-to-end run against brsmnd processes.
func runDaemons(ctx context.Context, cfg config, sp *spec, dir string) (*outcome, error) {
	out := &outcome{checksOK: true}
	// The process is only the load generator here. One P and rarer
	// garbage collection keep it from competing with the daemons for
	// both CPUs, which made run-to-run spread much wider.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(200)
	var setupTimes []float64
	var fl *fleet
	var gen *generator
	defer func() {
		if fl != nil {
			fl.stop()
		}
	}()
	for k := 0; k < setups; k++ {
		if fl != nil {
			fl.stop()
			fl = nil
		}
		f := &fleet{bin: cfg.brsmnd, dir: filepath.Join(dir, fmt.Sprintf("setup-%d", k)), sp: sp}
		if err := os.MkdirAll(f.dir, 0o755); err != nil {
			return nil, err
		}
		gen = newGenerator(sp, cfg.seed)
		t0 := time.Now()
		err := f.start(ctx)
		fl = f
		if err == nil {
			err = populate(f.bases(), gen.groups)
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	out.set("setup_s", "s", median(setupTimes))
	out.note("setup_s samples %v", setupTimes)

	c := newClient(gen, fl.bases())
	defer c.close()
	openDur, closedDur := phases(cfg.seconds)
	warm, _ := c.openLoop(ctx, gen.schedule(warmup))
	ops := gen.schedule(openDur)

	steal0, total0 := hostSteal()
	cpu0, err := fl.cpuTicks()
	if err != nil {
		return nil, err
	}
	res, _ := c.openLoop(ctx, ops)
	cpu1, err := fl.cpuTicks()
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	cres, wall := c.closedLoop(ctx, closedDur)
	steal1, total1 := hostSteal()
	out.note("host CPU steal during the timed phases: %.2f%% of CPU time (other tenants; it slows every figure)",
		100*float64(steal1-steal0)/math.Max(1, float64(total1-total0)))
	rssKiB, err := fl.peakRSSKiB()
	if err != nil {
		return nil, err
	}

	ok := 0
	for i := range res {
		if res[i].ok {
			ok++
		}
	}
	openLatency(out, res)
	out.set("throughput_ops_s", "1/s", windowRate(cres, wall))
	out.set("server_cpu_ms_per_op", "ms", float64(cpu1-cpu0)*1000/clockTicks/math.Max(1, float64(ok)))
	out.set("server_rss_mb", "MiB", float64(rssKiB)/1024)
	out.note("open loop: %d ops at %.0f/s offered over %v, %d ok; closed loop: %d ops over %v with %d connections",
		len(res), sp.rate, openDur, ok, len(cres), wall.Round(time.Millisecond), len(c.workers))
	out.note("gen.late_p99_ms %.4f (open-loop sends behind schedule)", lateP99(res))
	out.note("plan cache hits seen by the client: %.4f", hitRatio(res))
	if sp.nodes > 1 {
		out.note("forwarded share of open-loop requests: %.4f", fwdFrac(res))
	}

	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	runtime.GOMAXPROCS(runtime.NumCPU()) // the checks are not timed
	attempted := len(warm) + len(res) + len(cres)
	bad := c.checkOutputs(ctx)
	states, gets, stateBad := c.fetchState(ctx, fl.bases()[0])
	attempted += gets
	bad += stateBad
	if sp.durable {
		n, rbad, err := restartCheck(ctx, fl, c, states, out)
		if err != nil {
			return nil, err
		}
		attempted += n
		bad += rbad
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	failed, summary := c.failed()
	out.attempted = attempted
	out.failed = failed
	out.checksOK = bad == 0
	out.note("failed_frac %.6f (%d of %d)", float64(failed)/float64(attempted), failed, attempted)
	if failed > 0 {
		out.note("failures: %s", summary)
	}
	return out, nil
}

// hostSteal reads the machine's stolen and total CPU ticks from
// /proc/stat; zeros when it is unreadable.
func hostSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// times.
const clockTicks = 100

func (f *fleet) cpuTicks() (int64, error) {
	var sum int64
	for _, d := range f.daemons {
		t, err := d.cpuTicks()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

func (f *fleet) peakRSSKiB() (int64, error) {
	var sum int64
	for _, d := range f.daemons {
		v, err := d.peakRSSKiB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// restartCheck measures recovery_s and checks that the restarted daemon
// serves the same groups, memberships and first plan.
func restartCheck(ctx context.Context, fl *fleet, c *client, before []groupState, out *outcome) (int, int, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	first := c.gen.groups[0]
	planURL := "/v1/groups/" + first.id + "/plan"
	var p0 planReply
	if err := getJSON(hc, fl.bases()[0]+planURL, &p0); err != nil {
		return 0, 0, fmt.Errorf("plan before restart: %w", err)
	}
	t0 := time.Now()
	fl.stop()
	if err := fl.start(ctx); err != nil {
		return 0, 0, fmt.Errorf("restart: %w", err)
	}
	var p1 planReply
	polls := 0
	for {
		polls++
		err := getJSON(hc, fl.bases()[0]+planURL, &p1)
		if err == nil && p1.Data.Cached {
			break
		}
		if time.Since(t0) > 60*time.Second {
			return polls, 1, errors.New("restarted daemon served no warm plan within 60s")
		}
		time.Sleep(time.Millisecond)
	}
	out.note("recovery_s %.4f (SIGTERM to the first warm plan of the restarted daemon)", time.Since(t0).Seconds())
	bad := 0
	if p1.Data.Plan != p0.Data.Plan || p1.Data.Gen != p0.Data.Gen {
		bad++
		c.fail("restart: first plan differs from the one served before the restart")
	}
	var list struct {
		Data struct {
			Count int `json:"count"`
		} `json:"data"`
	}
	if err := getJSON(hc, fl.bases()[0]+"/v1/groups?limit=1", &list); err != nil || list.Data.Count != len(c.gen.groups) {
		bad++
		c.fail(fmt.Sprintf("restart: group count %d, want %d (%v)", list.Data.Count, len(c.gen.groups), err))
	}
	after, gets, sbad := c.fetchState(ctx, fl.bases()[0])
	bad += sbad
	for i := range after {
		if after[i].gen != before[i].gen || !slices.Equal(after[i].members, before[i].members) {
			bad++
			c.fail("restart: group " + c.gen.groups[i].id + " differs from its state before the restart")
		}
	}
	return polls + 1 + gets, bad, nil
}

// latencyWindow is the span of the open loop over which one p50 is
// taken; the noted p50 is the median of the windows' p50s, so a short
// burst of CPU steal from other tenants moves one window.
const latencyWindow = 2 * time.Second

// openLatency notes the open-loop latencies of res. They are notes, not
// metrics: on a 2-CPU VM a period in which other tenants steal 5-20% of
// the CPU lasts for whole runs and raised the p50s by up to 2x, so their
// spread over ten runs (19-69% of the median) is wider than any bound
// they could be held to. A failed op counts as missing every limit: it
// sorts after every success.
func openLatency(out *outcome, res []result) {
	byClass := map[string][]float64{}
	windows := map[string]map[int][]float64{"plan": {}, "write": {}}
	for i := range res {
		r := &res[i]
		ms := math.Inf(1)
		if r.ok {
			ms = float64(r.latency()) / 1e6
		}
		cl := r.op.kind.class()
		byClass[cl] = append(byClass[cl], ms)
		if w := windows[cl]; w != nil {
			k := int(r.due / latencyWindow)
			w[k] = append(w[k], ms)
		}
	}
	for _, cl := range []string{"plan", "write"} {
		v := byClass[cl]
		if len(v) == 0 {
			continue
		}
		var p50s []float64
		for _, w := range windows[cl] {
			p50s = append(p50s, percentile(w, 50))
		}
		sort.Float64s(p50s)
		out.note("%s_p50_ms %.4f (median of 2-second window p50s %.3f; over the whole open loop %.4f)",
			cl, median(p50s), p50s, percentile(v, 50))
		if len(v) < minTailSamples {
			out.note("%s_p99_ms omitted: %d samples, fewer than %d", cl, len(v), minTailSamples)
			continue
		}
		out.note("%s latency ms: p90 %.3f p95 %.3f p99 %.3f p99.9 %.3f max %.3f over %d", cl,
			percentile(v, 90), percentile(v, 95), percentile(v, 99), percentile(v, 99.9), percentile(v, 100), len(v))
	}
}

// windowRate is the median over the whole seconds of the closed loop of
// the ops completed successfully in each, so a short disturbance moves
// one window rather than the figure.
func windowRate(res []result, wall time.Duration) float64 {
	n := int(wall / time.Second)
	if n < 1 {
		ok := 0
		for i := range res {
			if res[i].ok {
				ok++
			}
		}
		return float64(ok) / wall.Seconds()
	}
	counts := make([]float64, n)
	for i := range res {
		if k := int(res[i].done / time.Second); res[i].ok && k < n {
			counts[k]++
		}
	}
	return median(counts)
}

func lateP99(res []result) float64 {
	var v []float64
	for i := range res {
		v = append(v, float64(res[i].send-res[i].due)/1e6)
	}
	return percentile(v, 99)
}

func hitRatio(res []result) float64 {
	hits, plans := 0, 0
	for i := range res {
		if res[i].ok && res[i].op.kind == opPlan {
			plans++
			if res[i].cached {
				hits++
			}
		}
	}
	return float64(hits) / math.Max(1, float64(plans))
}

func fwdFrac(res []result) float64 {
	fwd, okN := 0, 0
	for i := range res {
		if res[i].ok {
			okN++
			if res[i].fwd {
				fwd++
			}
		}
	}
	return float64(fwd) / math.Max(1, float64(okN))
}

// percentile is the nearest-rank p-th percentile of v (v is sorted in
// place).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	k := int(math.Ceil(p/100*float64(len(v)))) - 1
	if k < 0 {
		k = 0
	}
	return v[k]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// report prints the notes and the result line; the line is returned for
// the result file.
func report(w *os.File, cfg config, out *outcome) ([]byte, error) {
	for _, n := range envNotes(cfg) {
		fmt.Fprintln(w, "#", n)
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, "#", n)
	}
	names := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# %-30s %14.6f %s\n", k, out.metrics[k].Value, out.metrics[k].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.checksOK && out.failed == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(line))
	return line, nil
}

// envNotes records the measurement context.
func envNotes(cfg config) []string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(l, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return []string{
		fmt.Sprintf("workload %s seed %d seconds %d trace %d", cfg.workload, cfg.seed, cfg.seconds, cfg.trace),
		fmt.Sprintf("go %s commit %s GOMAXPROCS %s nproc %d cpu %q data-dir fs %s",
			runtime.Version(), commit, procs(cfg), runtime.NumCPU(), cpu, fsType(cfg.work)),
	}
}

// procs describes the GOMAXPROCS of the measured processes.
func procs(cfg config) string {
	if cfg.trace == 1 {
		return fmt.Sprintf("%d (one process: client and in-process stack)", runtime.NumCPU())
	}
	return fmt.Sprintf("1 (client, timed phases), %d (brsmnd, its default)", runtime.NumCPU())
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// writeResultFile stores the notes and the result line under the work
// directory.
func writeResultFile(cfg config, out *outcome, line []byte) error {
	dir := filepath.Join(cfg.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"env":    envNotes(cfg),
		"notes":  out.notes,
		"result": json.RawMessage(line),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
