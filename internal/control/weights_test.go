package control

import (
	"math"
	"testing"
	"time"
)

// weightTableOf returns the weight table a weighted-Maglev policy embeds.
func weightTableOf(t *testing.T, pol Policy) *weightTable {
	t.Helper()
	switch p := pol.(type) {
	case *LatencyAware:
		return &p.weightTable
	case *Proportional:
		return &p.weightTable
	case *KnapsackGreedy:
		return &p.weightTable
	}
	t.Fatalf("%s embeds no weight table", pol.Name())
	return nil
}

// TestWeightTableStaysOnFlooredSimplex: under a persistently slow backend
// every weighted-Maglev policy keeps its weights summing to 1 with every
// share at or above the floor after every control step, and OnUpdate sees
// every rebuild but the initial one.
func TestWeightTableStaysOnFlooredSimplex(t *testing.T) {
	const floor = 0.1
	for _, name := range []string{"latency-aware", "proportional", "knapsack"} {
		t.Run(name, func(t *testing.T) {
			pol, err := BuildPolicy(name, PolicySpec{Backends: []string{"a", "b", "c"}, MinWeight: floor})
			if err != nil {
				t.Fatal(err)
			}
			wt := weightTableOf(t, pol)
			var hooks uint64
			wt.OnUpdate = func(time.Duration, []float64) { hooks++ }
			for now := time.Millisecond; now <= 4*time.Second; now += time.Millisecond {
				for b := 0; b < 3; b++ {
					lat := 100 * time.Microsecond
					if b == 0 {
						lat = 5 * time.Millisecond
					}
					pol.ObserveLatency(b, now, lat)
				}
				sum := 0.0
				for i, w := range wt.Weights() {
					if w < floor-1e-12 {
						t.Fatalf("at %v: weight[%d] = %v below the %v floor", now, i, w, floor)
					}
					sum += w
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("at %v: weights %v sum to %v", now, wt.Weights(), sum)
				}
			}
			if wt.Updates() < 2 {
				t.Fatalf("no rebuild in 4 s of a 50x slower backend")
			}
			if hooks != wt.Updates()-1 {
				t.Errorf("OnUpdate fired %d times for %d rebuilds after the initial one", hooks, wt.Updates()-1)
			}
		})
	}
}
