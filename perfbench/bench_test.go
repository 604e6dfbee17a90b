package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced against brsmnd built
// from the tree and traced in-process, and checks that each run prints
// every metric BENCHMARK.json names, with its unit, and fails nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds brsmnd and runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "brsmnd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/brsmnd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build brsmnd: %v\n%s", err, out)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for trace := 0; trace <= 1; trace++ {
			cfg := config{workload: w.Name, seed: 7, seconds: 2, trace: trace, brsmnd: bin, work: t.TempDir()}
			if err := validate(&cfg); err != nil {
				t.Fatal(err)
			}
			out, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			if out.failed != 0 || !out.checksOK || out.attempted == 0 {
				t.Errorf("%s trace %d: attempted %d failed %d checks ok %v; notes %v",
					w.Name, trace, out.attempted, out.failed, out.checksOK, out.notes)
			}
			want := bf.EndToEnd
			if trace == 1 {
				want = bf.PerLayer
			}
			for _, m := range want {
				got, ok := out.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v (present %v), want unit %q", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if len(out.metrics) > len(want) {
				t.Errorf("%s trace %d: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(out.metrics), len(want))
			}
		}
	}
}

// TestGeneratorValidOps checks the op stream against an independent
// replay of the model: joins add non-members, leaves remove members and
// never the last one, and write sequence numbers count up per group.
func TestGeneratorValidOps(t *testing.T) {
	for _, sp := range workloads {
		g := newGenerator(sp, 3)
		members := make([]map[int32]bool, len(g.groups))
		seqs := make([]int32, len(g.groups))
		for i, m := range g.groups {
			members[i] = map[int32]bool{}
			for _, d := range m.initial {
				members[i][d] = true
			}
		}
		ops := g.schedule(2e9)
		if len(ops) == 0 {
			t.Fatalf("%s: empty schedule", sp.name)
		}
		for _, o := range ops {
			switch o.kind {
			case opJoin:
				if members[o.group][o.dest] {
					t.Fatalf("%s: join of member %d", sp.name, o.dest)
				}
				members[o.group][o.dest] = true
			case opLeave:
				if !members[o.group][o.dest] || len(members[o.group]) <= 1 {
					t.Fatalf("%s: invalid leave of %d", sp.name, o.dest)
				}
				delete(members[o.group], o.dest)
			default:
				continue
			}
			seqs[o.group]++
			if o.seq != seqs[o.group] {
				t.Fatalf("%s: write seq %d, want %d", sp.name, o.seq, seqs[o.group])
			}
		}
		for i, m := range g.groups {
			got, err := m.membersAt(uint64(len(m.writes)) + 1)
			if err != nil || len(got) != len(members[i]) {
				t.Fatalf("%s: group %d final model %v (%v), replay has %d", sp.name, i, got, err, len(members[i]))
			}
		}
		// The same seed draws the same stream.
		again := newGenerator(sp, 3).schedule(2e9)
		if len(again) != len(ops) || again[len(ops)/2] != ops[len(ops)/2] {
			t.Fatalf("%s: schedule not reproducible from its seed", sp.name)
		}
	}
}
