package gates

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"brsmn/internal/shuffle"
)

// TestFig12PipelinedAdder checks the one-bit serial adder block.
func TestFig12PipelinedAdder(t *testing.T) {
	cases := [][3]int{{0, 0, 0}, {1, 1, 2}, {5, 7, 12}, {255, 1, 256}, {123456, 654321, 777777}}
	for _, c := range cases {
		sum, cycles := AddSerial(c[0], c[1])
		if sum != c[2] {
			t.Errorf("AddSerial(%d,%d) = %d, want %d", c[0], c[1], sum, c[2])
		}
		if cycles <= 0 {
			t.Errorf("AddSerial(%d,%d) took %d cycles", c[0], c[1], cycles)
		}
	}
	// Quick-check against +.
	f := func(x, y uint16) bool {
		s, _ := AddSerial(int(x), int(y))
		return s == int(x)+int(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Reset clears the carry.
	var a SerialAdder
	a.Step(1, 1)
	a.Reset()
	if a.Step(0, 0) != 0 {
		t.Error("Reset did not clear carry")
	}
}

// TestForwardSweepSums checks the adder tree computes correct sums for
// random leaf values.
func TestForwardSweepSums(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, n := range []int{1, 2, 4, 16, 64, 256} {
		for trial := 0; trial < 10; trial++ {
			leaves := make([]int, n)
			want := 0
			for i := range leaves {
				leaves[i] = rng.Intn(2)
				want += leaves[i]
			}
			sum, cycles, err := ForwardSweep(leaves)
			if err != nil {
				t.Fatal(err)
			}
			if sum != want {
				t.Fatalf("n=%d leaves=%v: sum %d, want %d", n, leaves, sum, want)
			}
			if cycles <= 0 {
				t.Fatalf("n=%d: nonpositive delay %d", n, cycles)
			}
		}
	}
	if _, _, err := ForwardSweep(make([]int, 3)); err == nil {
		t.Error("ForwardSweep accepted non-power-of-two width")
	}
}

// TestForwardDelayLogarithmic checks the headline claim behind the
// routing-time column of Table 2: the forward-phase delay of one RBN
// grows as Θ(log n), not Θ(n) — doubling n adds a constant number of
// gate delays.
func TestForwardDelayLogarithmic(t *testing.T) {
	prev := 0
	for n := 4; n <= 1<<14; n *= 2 {
		d := ForwardDelay(n)
		if prev > 0 {
			grow := d - prev
			if grow < 1 || grow > 4 {
				t.Errorf("n=%d: delay %d grew by %d over n/2; want a small constant", n, d, grow)
			}
		}
		prev = d
		// Against the analytic bound: pipeline depth log n plus the
		// sum's bit-serial width log n + O(1).
		m := shuffle.Log2(n)
		if d > 3*m+4 {
			t.Errorf("n=%d: delay %d exceeds 3 log n + 4 = %d", n, d, 3*m+4)
		}
	}
}

// TestRoutingDelayRecurrences checks the composed delays follow the
// paper's recurrences: BRSMN delay is Θ(log^2 n) — the ratio
// delay / log2^2(n) stays within constant bounds across three decades.
func TestRoutingDelayRecurrences(t *testing.T) {
	var ratios []float64
	for n := 8; n <= 1<<12; n *= 4 {
		m := float64(shuffle.Log2(n))
		ratios = append(ratios, float64(BRSMNRoutingDelay(n))/(m*m))
	}
	for _, r := range ratios {
		if r < 1 || r > 16 {
			t.Fatalf("BRSMN delay / log^2 n ratios out of constant band: %v", ratios)
		}
	}
	if ratios[len(ratios)-1] > 2*ratios[0] {
		t.Errorf("BRSMN delay ratio drifting upward (not O(log^2 n)): %v", ratios)
	}
	// The feedback implementation pays only a constant extra per pass.
	for _, n := range []int{8, 64, 1024} {
		d, f := BRSMNRoutingDelay(n), FeedbackRoutingDelay(n)
		if f < d || f > d+2*shuffle.Log2(n)+1 {
			t.Errorf("n=%d: feedback delay %d vs unrolled %d out of band", n, f, d)
		}
	}
	// BSN = 3 RBN sweeps.
	if BSNRoutingDelay(16) != 3*RBNRoutingDelay(16) {
		t.Error("BSN delay is not 3 RBN sweeps")
	}
}

// TestGateConstants pins the per-switch constant cost (Section 7.4: the
// self-routing circuit adds O(1) gates per switch).
func TestGateConstants(t *testing.T) {
	if GatesPerSwitch != GatesPerSwitchDatapath+RoutingAddersPerSwitch*(GatesPerFullAdder+2*GatesPerRegisterBit) {
		t.Error("GatesPerSwitch formula drifted")
	}
	if GatesPerSwitch <= 0 || GatesPerSwitch > 200 {
		t.Errorf("GatesPerSwitch = %d implausible", GatesPerSwitch)
	}
}

// TestSingleLeafSweep covers the n=1 degenerate tree.
func TestSingleLeafSweep(t *testing.T) {
	sum, cycles, err := ForwardSweep([]int{7})
	if err != nil || sum != 7 || cycles != 1 {
		t.Errorf("ForwardSweep([7]) = (%d,%d,%v)", sum, cycles, err)
	}
}

// worstCaseSweep is ForwardDelay without the memo: a fresh simulation
// on all-ones leaves.
func worstCaseSweep(t *testing.T, n int) int {
	t.Helper()
	leaves := make([]int, n)
	for i := range leaves {
		leaves[i] = 1
	}
	_, cycles, err := ForwardSweep(leaves)
	if err != nil {
		t.Fatal(err)
	}
	return cycles
}

// TestForwardDelayMemo checks the memoized ForwardDelay against a fresh
// ForwardSweep for every n = 2..2^16, on first use and on repeat calls
// racing from several goroutines (run with -race).
func TestForwardDelayMemo(t *testing.T) {
	for i := range forwardDelays {
		forwardDelays[i].Store(0)
	}
	want := map[int]int{}
	for n := 2; n <= 1<<16; n *= 2 {
		want[n] = worstCaseSweep(t, n)
	}
	errs := make(chan string, 8*len(want))
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for rep := 0; rep < 2; rep++ {
				for n, w := range want {
					if got := ForwardDelay(n); got != w {
						errs <- fmt.Sprintf("ForwardDelay(%d) = %d, fresh sweep %d", n, got, w)
					}
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for n, w := range want {
		if got := int(forwardDelays[shuffle.Log2(n)].Load()); got != w {
			t.Errorf("memo slot for n=%d holds %d, want %d", n, got, w)
		}
	}
}
