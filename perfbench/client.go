package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// headerRequestID carries the benchmark's request ID to the traced
// in-process stack; the daemons ignore it.
const headerRequestID = "X-Request-Id"

// result is one executed op as the client saw it. Times are relative to
// the phase start; latency is done-due.
type result struct {
	op     op
	id     int64
	due    time.Duration
	send   time.Duration
	done   time.Duration
	ok     bool
	cached bool
	fwd    bool
	bytes  int
	gen    uint64 // plan replies: the program's generation
	// blobLen is a plan reply's program size in bytes.
	blobLen int
}

func (r *result) latency() time.Duration { return r.done - r.due }

// turn serializes one group's writes in generation order, so the gen
// each acknowledgement carries is known in advance.
type turn struct {
	mu   sync.Mutex
	cond *sync.Cond
	done int32
}

func (t *turn) wait(seq int32) {
	t.mu.Lock()
	for t.done != seq-1 {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

func (t *turn) advance() {
	t.mu.Lock()
	t.done++
	t.cond.Broadcast()
	t.mu.Unlock()
}

// planKey names one served program.
type planKey struct {
	group int32
	gen   uint64
}

// getSeen is one GET reply, checked against the model after the run.
type getSeen struct {
	group   int32
	gen     uint64
	members []int
}

// client drives one workload over HTTP: one worker per CPU, each owning
// one keep-alive connection to one target.
type client struct {
	gen     *generator
	bases   []string
	workers []*http.Client
	bufs    []*bytes.Buffer // per-worker reply buffers
	turns   []*turn
	tag     bool // send X-Request-Id
	nextID  atomic.Int64

	mu       sync.Mutex
	plans    map[planKey][]string // distinct base64 programs per (group, gen)
	gets     []getSeen
	failures map[string]int
}

func newClient(gen *generator, bases []string) *client {
	c := &client{gen: gen, bases: bases, plans: make(map[planKey][]string), failures: make(map[string]int)}
	for i := 0; i < runtime.NumCPU(); i++ {
		tr := &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		}
		c.workers = append(c.workers, &http.Client{Transport: tr, Timeout: 5 * time.Second})
		c.bufs = append(c.bufs, new(bytes.Buffer))
	}
	for range gen.groups {
		t := &turn{}
		t.cond = sync.NewCond(&t.mu)
		c.turns = append(c.turns, t)
	}
	return c
}

func (c *client) close() {
	for _, w := range c.workers {
		w.CloseIdleConnections()
	}
}

func (c *client) fail(reason string) {
	c.mu.Lock()
	c.failures[reason]++
	c.mu.Unlock()
}

// failed returns the total failure count and a one-line summary.
func (c *client) failed() (int, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	var keys []string
	for k, v := range c.failures {
		total += v
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for i, k := range keys {
		if i == 8 {
			b.WriteString("; ...")
			break
		}
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%dx %s", c.failures[k], k)
	}
	return total, b.String()
}

type planReply struct {
	Data struct {
		ID     string `json:"id"`
		Gen    uint64 `json:"gen"`
		Cached bool   `json:"cached"`
		Plan   string `json:"plan"`
	} `json:"data"`
}

type infoReply struct {
	Data struct {
		ID      string `json:"id"`
		Source  int    `json:"source"`
		Gen     uint64 `json:"gen"`
		Size    int    `json:"size"`
		Members []int  `json:"members"`
	} `json:"data"`
}

type updateReply struct {
	Data struct {
		Gen  uint64 `json:"gen"`
		Size int    `json:"size"`
	} `json:"data"`
}

// exec runs one op on worker w. start anchors the result's times.
func (c *client) exec(w int, o op, start time.Time) result {
	r := result{op: o, id: c.nextID.Add(1), due: o.due}
	g := c.gen.groups[o.group]
	if o.kind == opJoin || o.kind == opLeave {
		t := c.turns[o.group]
		t.wait(o.seq)
		defer t.advance()
	}
	base := c.bases[w%len(c.bases)]
	var req *http.Request
	var err error
	switch o.kind {
	case opPlan:
		req, err = http.NewRequest(http.MethodGet, base+"/v1/groups/"+g.id+"/plan", nil)
	case opGet:
		req, err = http.NewRequest(http.MethodGet, base+"/v1/groups/"+g.id, nil)
	default:
		body := `{"dest":` + strconv.Itoa(int(o.dest)) + `}`
		req, err = http.NewRequest(http.MethodPost, base+"/v1/groups/"+g.id+"/"+o.kind.String(), bytes.NewBufferString(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		c.fail(o.kind.class() + ": " + err.Error())
		return r
	}
	if c.tag {
		req.Header.Set(headerRequestID, strconv.FormatInt(r.id, 10))
	}
	r.send = time.Since(start)
	resp, err := c.workers[w].Do(req)
	var body []byte
	if err == nil {
		buf := c.bufs[w]
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		body = buf.Bytes()
	}
	r.done = time.Since(start)
	if err != nil {
		c.fail(o.kind.class() + ": transport error")
		return r
	}
	if resp.StatusCode/100 != 2 {
		c.fail(fmt.Sprintf("%s: HTTP %d %s", o.kind.class(), resp.StatusCode, firstLine(body)))
		return r
	}
	r.fwd = resp.Header.Get("X-Brsmn-Forwarded") != ""
	r.bytes = len(body)
	switch o.kind {
	case opPlan:
		var pr planReply
		if err := json.Unmarshal(body, &pr); err != nil || pr.Data.Plan == "" {
			c.fail("plan: undecodable reply")
			return r
		}
		r.cached = pr.Data.Cached
		r.gen = pr.Data.Gen
		r.blobLen = base64.StdEncoding.DecodedLen(len(pr.Data.Plan)) - (len(pr.Data.Plan) - len(strings.TrimRight(pr.Data.Plan, "=")))
		c.notePlan(planKey{o.group, pr.Data.Gen}, pr.Data.Plan)
	case opGet:
		var ir infoReply
		if err := json.Unmarshal(body, &ir); err != nil {
			c.fail("get: undecodable reply")
			return r
		}
		c.mu.Lock()
		c.gets = append(c.gets, getSeen{group: o.group, gen: ir.Data.Gen, members: ir.Data.Members})
		c.mu.Unlock()
	default:
		var ur updateReply
		if err := json.Unmarshal(body, &ur); err != nil {
			c.fail("write: undecodable reply")
			return r
		}
		if want := uint64(o.seq) + 1; ur.Data.Gen != want {
			c.fail(fmt.Sprintf("write: acknowledged gen %d, model says %d", ur.Data.Gen, want))
			return r
		}
	}
	r.ok = true
	return r
}

func (c *client) notePlan(k planKey, blob string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.plans[k] {
		if b == blob {
			return
		}
	}
	c.plans[k] = append(c.plans[k], blob)
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 120 {
		b = b[:120]
	}
	return string(b)
}

// openLoop sends ops at their due times whatever the replies do; a
// request waits for a free worker when all are busy, and that wait is
// part of its latency.
func (c *client) openLoop(ctx context.Context, ops []op) ([]result, time.Time) {
	res := make([]result, len(ops))
	// Buffered to the number of sends, so the schedule never blocks on
	// busy workers.
	ch := make(chan int, len(ops))
	start := time.Now()
	var wg sync.WaitGroup
	for w := range c.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ch {
				res[i] = c.exec(w, ops[i], start)
			}
		}(w)
	}
	for i := range ops {
		if d := ops[i].due - time.Since(start); d > 0 {
			sleep(d)
		}
		if ctx.Err() != nil {
			break
		}
		ch <- i
	}
	close(ch)
	wg.Wait()
	return res, start
}

// sleep blocks for d at the kernel timer's precision. Go's timers wake
// up to a millisecond late here, which the open loop would count as
// latency.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// closedLoop keeps every worker busy with the next generated op for d
// and returns the results plus the measured wall time.
func (c *client) closedLoop(ctx context.Context, d time.Duration) ([]result, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	out := make([][]result, len(c.workers))
	var wg sync.WaitGroup
	for w := range c.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				o := c.gen.next()
				o.due = time.Since(start)
				out[w] = append(out[w], c.exec(w, o, start))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []result
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all, wall
}
