package control

import (
	"testing"
	"time"
)

func newTestKnapsack(t *testing.T, n int) *KnapsackGreedy {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	k, err := NewKnapsackGreedy(PolicySpec{
		Backends:  names,
		TableSize: 211,
		MinWeight: 0.05,
		Interval:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func checkSimplex(t *testing.T, k *KnapsackGreedy) {
	t.Helper()
	sum := 0.0
	for i, w := range k.Weights() {
		if w < 0.05-1e-9 {
			t.Fatalf("weight[%d] = %v below the 0.05 floor", i, w)
		}
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("weights sum to %v", sum)
	}
}

// feed drives the solver with per-backend latencies for steps control
// intervals, returning the advanced clock.
func feedKnapsack(k *KnapsackGreedy, start time.Duration, steps int, lat func(b int) time.Duration) time.Duration {
	now := start
	n := k.NumBackends()
	for s := 0; s < steps; s++ {
		now += 500 * time.Microsecond
		for b := 0; b < n; b++ {
			k.ObserveLatency(b, now, lat(b))
		}
	}
	return now
}

func TestKnapsackValidation(t *testing.T) {
	base := PolicySpec{Backends: []string{"a", "b", "c"}, TableSize: 211}
	cases := []struct {
		name   string
		mutate func(*PolicySpec)
	}{
		{"one backend", func(s *PolicySpec) { s.Backends = s.Backends[:1] }},
		{"infeasible floor", func(s *PolicySpec) { s.MinWeight = 0.5 }},
		{"negative floor", func(s *PolicySpec) { s.MinWeight = -0.1 }},
	}
	for _, tc := range cases {
		spec := base
		spec.Backends = append([]string(nil), base.Backends...)
		tc.mutate(&spec)
		if _, err := NewKnapsackGreedy(spec); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	if _, err := NewKnapsackGreedy(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestKnapsackUniformOnEqualLatency: statistically identical backends must
// converge near the uniform split — the greedy fill over equal curves has
// no reason to concentrate mass.
func TestKnapsackUniformOnEqualLatency(t *testing.T) {
	k := newTestKnapsack(t, 3)
	feedKnapsack(k, 0, 2000, func(b int) time.Duration {
		return 200*time.Microsecond + time.Duration(b*5)*time.Microsecond
	})
	checkSimplex(t, k)
	for i, w := range k.Weights() {
		if w < 0.15 || w > 0.55 {
			t.Errorf("equal-latency weight[%d] = %.3f, want near 1/3", i, w)
		}
	}
}

// TestKnapsackShiftsOffSlowBackend: a consistently 5x-slower backend must
// end up well under its uniform share, but never below the floor — the
// floor is what keeps the solver probing it.
func TestKnapsackShiftsOffSlowBackend(t *testing.T) {
	k := newTestKnapsack(t, 3)
	feedKnapsack(k, 0, 2000, func(b int) time.Duration {
		if b == 0 {
			return time.Millisecond
		}
		return 200 * time.Microsecond
	})
	checkSimplex(t, k)
	w := k.Weights()
	if w[0] > 0.25 {
		t.Errorf("slow backend holds %.3f of the pool, want < 0.25", w[0])
	}
	if k.Updates() < 2 {
		t.Errorf("solver never rebuilt the table (updates = %d)", k.Updates())
	}
}

// TestKnapsackRecovers: after the slow backend heals, continued samples at
// healthy latency must lift its share back off the floor — the decayed
// regression forgets the congested operating points.
func TestKnapsackRecovers(t *testing.T) {
	k := newTestKnapsack(t, 3)
	now := feedKnapsack(k, 0, 1500, func(b int) time.Duration {
		if b == 0 {
			return time.Millisecond
		}
		return 200 * time.Microsecond
	})
	degraded := k.Weights()[0]
	feedKnapsack(k, now, 4000, func(b int) time.Duration {
		return 200 * time.Microsecond
	})
	checkSimplex(t, k)
	recovered := k.Weights()[0]
	if recovered < degraded+0.05 || recovered < 0.15 {
		t.Errorf("healed backend stuck: weight %.3f -> %.3f", degraded, recovered)
	}
}

// TestKnapsackPickMatchesTable: picks must come from the published table
// so a Controller snapshot reproduces the bare policy exactly.
func TestKnapsackPickMatchesTable(t *testing.T) {
	k := newTestKnapsack(t, 3)
	feedKnapsack(k, 0, 500, func(b int) time.Duration { return 200 * time.Microsecond })
	for i := 0; i < 100; i++ {
		key := testKey(i)
		if got, want := k.Pick(key, 0), k.Table().Lookup(key.Hash()); got != want {
			t.Fatalf("pick %d != table lookup %d", got, want)
		}
	}
}

// TestKnapsackHoldsWithoutEvidence: with no fresh fit at all the solver
// must hold its current allocation rather than invent one.
func TestKnapsackHoldsWithoutEvidence(t *testing.T) {
	k := newTestKnapsack(t, 3)
	before := k.Weights()
	// A single sample is below the n >= 2 identifiability bar, so the
	// solve finds nothing fitted and holds.
	k.ObserveLatency(0, time.Millisecond, 200*time.Microsecond)
	for i, w := range k.Weights() {
		if w != before[i] {
			t.Fatalf("weights moved on unidentifiable evidence: %v -> %v", before, k.Weights())
		}
	}
}
