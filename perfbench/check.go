package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"brsmn/internal/bsn"
	"brsmn/internal/fabric"
	"brsmn/internal/mcast"
	"brsmn/internal/plancodec"
)

// checkPlan decodes one served program and replays it on the model's
// assignment: every member output must receive the source, every other
// output nothing. ex is reused across calls.
func checkPlan(ex *fabric.Executor, source int, members []int, b64 string) error {
	blob, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return fmt.Errorf("plan base64: %w", err)
	}
	n, cols, err := plancodec.Decode(blob)
	if err != nil {
		return fmt.Errorf("plan decode: %w", err)
	}
	if n != netN {
		return fmt.Errorf("plan for n=%d, want %d", n, netN)
	}
	// The cells bsn.CellsForAssignment builds for a one-source
	// assignment, without deriving the all-idle sequences of the other
	// inputs.
	seq, err := mcast.SequenceFromDests(n, members)
	if err != nil {
		return err
	}
	cells := make([]bsn.Cell, n)
	for i := range cells {
		cells[i] = bsn.Idle()
	}
	cells[source] = bsn.Cell{Tag: seq[0], Source: source, Seq: seq}
	final, err := ex.Run(cols, cells)
	if err != nil {
		return fmt.Errorf("plan replay: %w", err)
	}
	want := make([]bool, n)
	for _, d := range members {
		want[d] = true
	}
	for out, c := range final {
		got := -1
		if !c.IsIdle() {
			got = c.Source
		}
		if (want[out] && got != source) || (!want[out] && got != -1) {
			return fmt.Errorf("plan replay: output %d receives %d", out, got)
		}
	}
	return nil
}

// checkOutputs verifies, outside any timing, every distinct program the
// client received and every GET reply against the model. Mismatches are
// recorded as client failures; the count is returned.
func (c *client) checkOutputs(ctx context.Context) int {
	type job struct {
		g    *groupModel
		gen  uint64
		blob string
	}
	var jobs []job
	for k, blobs := range c.plans {
		for _, b := range blobs {
			jobs = append(jobs, job{c.gen.groups[k.group], k.gen, b})
		}
	}
	var mu sync.Mutex
	bad := 0
	note := func(reason string) {
		mu.Lock()
		bad++
		mu.Unlock()
		c.fail(reason)
	}
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ex fabric.Executor
			for j := range ch {
				members, err := j.g.membersAt(j.gen)
				if err == nil {
					err = checkPlan(&ex, j.g.source, members, j.blob)
				}
				if err != nil {
					note("check plan: " + err.Error())
				}
			}
		}()
	}
	for _, j := range jobs {
		if ctx.Err() != nil {
			break
		}
		ch <- j
	}
	close(ch)
	wg.Wait()
	for _, gs := range c.gets {
		g := c.gen.groups[gs.group]
		members, err := g.membersAt(gs.gen)
		got := slices.Clone(gs.members)
		sort.Ints(got)
		if err == nil && !slices.Equal(got, members) {
			err = fmt.Errorf("group %s gen %d members differ from the model", g.id, gs.gen)
		}
		if err != nil {
			note("check get: " + err.Error())
		}
	}
	return bad
}

// groupState is one group as the server reports it.
type groupState struct {
	gen     uint64
	source  int
	members []int
}

// fetchState GETs every group through base and compares it with the
// model's final state. It returns the states, the GETs made and the
// mismatches (recorded as failures).
func (c *client) fetchState(ctx context.Context, base string) ([]groupState, int, int) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	states := make([]groupState, len(c.gen.groups))
	bad := 0
	for i, g := range c.gen.groups {
		if ctx.Err() != nil {
			break
		}
		var ir infoReply
		err := getJSON(hc, base+"/v1/groups/"+g.id, &ir)
		if err == nil {
			states[i] = groupState{gen: ir.Data.Gen, source: ir.Data.Source, members: ir.Data.Members}
			sort.Ints(states[i].members)
			want, _ := g.membersAt(uint64(len(g.writes)) + 1)
			if ir.Data.Gen != uint64(len(g.writes))+1 || ir.Data.Source != g.source || !slices.Equal(states[i].members, want) {
				err = fmt.Errorf("group %s: server gen %d differs from the model's final state (gen %d)", g.id, ir.Data.Gen, len(g.writes)+1)
			}
		}
		if err != nil {
			bad++
			c.fail("check state: " + err.Error())
		}
	}
	return states, len(c.gen.groups), bad
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d %s", url, resp.StatusCode, firstLine(body))
	}
	return json.Unmarshal(body, v)
}
