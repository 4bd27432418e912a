package control

import (
	"math"
	"testing"
	"time"

	"inbandlb/internal/core"
)

func coreLatencyCfg() core.ServerLatencyConfig {
	return core.ServerLatencyConfig{HalfLife: 2 * time.Millisecond}
}

func newLA(t *testing.T, cfg LatencyAwareConfig) *LatencyAware {
	t.Helper()
	if cfg.Backends == nil {
		cfg.Backends = []string{"s0", "s1"}
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.10
	}
	if cfg.TableSize == 0 {
		cfg.TableSize = 1021
	}
	cfg.Latency = coreLatencyCfg()
	la, err := NewLatencyAware(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return la
}

func TestLatencyAwareValidation(t *testing.T) {
	base := LatencyAwareConfig{Backends: []string{"a", "b"}, Alpha: 0.1}
	cases := []func(LatencyAwareConfig) LatencyAwareConfig{
		func(c LatencyAwareConfig) LatencyAwareConfig { c.Backends = []string{"a"}; return c },
		func(c LatencyAwareConfig) LatencyAwareConfig { c.Alpha = 0; return c },
		func(c LatencyAwareConfig) LatencyAwareConfig { c.Alpha = 1; return c },
		func(c LatencyAwareConfig) LatencyAwareConfig { c.MinWeight = 0.6; return c },
		func(c LatencyAwareConfig) LatencyAwareConfig { c.MinWeight = -0.1; return c },
		func(c LatencyAwareConfig) LatencyAwareConfig { c.TableSize = 10; return c }, // non-prime
	}
	for i, mut := range cases {
		if _, err := NewLatencyAware(mut(base)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLatencyAwareInitialState(t *testing.T) {
	la := newLA(t, LatencyAwareConfig{Backends: []string{"s0", "s1", "s2", "s3"}})
	w := la.Weights()
	for i, x := range w {
		if math.Abs(x-0.25) > 1e-9 {
			t.Errorf("initial weight[%d] = %v", i, x)
		}
	}
	if la.Updates() != 1 {
		t.Errorf("updates = %d, want 1 (initial build)", la.Updates())
	}
	if la.Name() != "latency-aware" || la.NumBackends() != 4 {
		t.Error("metadata wrong")
	}
	// Equal weights: shares near 1/4.
	for i := 0; i < 4; i++ {
		if s := la.Table().Share(i); math.Abs(s-0.25) > 0.02 {
			t.Errorf("share[%d] = %v", i, s)
		}
	}
}

func TestLatencyAwareShiftsFromWorst(t *testing.T) {
	la := newLA(t, LatencyAwareConfig{})
	// An α-shift lowers exactly one weight: the worst server's.
	var shifts []int
	prev := la.Weights()
	la.OnUpdate = func(now time.Duration, weights []float64) {
		for i := range weights {
			if weights[i] < prev[i] {
				shifts = append(shifts, i)
			}
		}
		prev = weights
	}
	now := time.Duration(0)
	// Server 1 is consistently slow. The controller shifts on every new
	// sample (the paper's behaviour), so the very first sample — when only
	// server 0 is known — shifts from server 0; once both are measured,
	// every shift must come off server 1.
	for i := 0; i < 10; i++ {
		now += time.Millisecond
		la.ObserveLatency(0, now, 300*time.Microsecond)
		now += time.Millisecond
		la.ObserveLatency(1, now, 1500*time.Microsecond)
	}
	if len(shifts) == 0 {
		t.Fatal("no shift occurred")
	}
	for _, s := range shifts[1:] {
		if s != 1 {
			t.Fatalf("shift came off server %d, want 1 (shifts: %v)", s, shifts)
		}
	}
	w := la.Weights()
	if w[1] >= w[0] {
		t.Errorf("weights after shifts = %v; slow server should hold less", w)
	}
}

func TestLatencyAwareMinWeightFloor(t *testing.T) {
	la := newLA(t, LatencyAwareConfig{MinWeight: 0.05})
	now := time.Duration(0)
	// Hammer server 1 as worst for many samples; weight must floor at 0.05.
	for i := 0; i < 100; i++ {
		now += time.Millisecond
		la.ObserveLatency(0, now, 300*time.Microsecond)
		la.ObserveLatency(1, now, 2*time.Millisecond)
	}
	w := la.Weights()
	if w[1] < 0.05-1e-9 {
		t.Errorf("weight below floor: %v", w[1])
	}
	if math.Abs(w[0]+w[1]-1) > 1e-9 {
		t.Errorf("weights do not sum to 1: %v", w)
	}
	if w[1] > 0.051 {
		t.Errorf("weight did not reach the floor: %v", w)
	}
	// Maglev share tracks the weight.
	if s := la.Table().Share(1); s > 0.08 {
		t.Errorf("slow server still owns %.3f of slots", s)
	}
}

func TestLatencyAwareCooldown(t *testing.T) {
	la := newLA(t, LatencyAwareConfig{Cooldown: 10 * time.Millisecond})
	shifts := 0
	la.OnUpdate = func(time.Duration, []float64) { shifts++ }
	now := time.Duration(0)
	for i := 0; i < 50; i++ {
		now += time.Millisecond
		la.ObserveLatency(1, now, 2*time.Millisecond)
		la.ObserveLatency(0, now, 100*time.Microsecond)
	}
	// 50ms of samples with a 10ms cooldown: at most ~6 shifts.
	if shifts == 0 || shifts > 6 {
		t.Errorf("shifts = %d, want 1..6 with cooldown", shifts)
	}
}

func TestLatencyAwareHysteresis(t *testing.T) {
	la := newLA(t, LatencyAwareConfig{HysteresisRatio: 1.5})
	shifts := 0
	la.OnUpdate = func(time.Duration, []float64) { shifts++ }
	now := time.Duration(0)
	// Near-equal servers: apart from the very first sample (when only one
	// server is measurable and the comparison cannot apply), no shift
	// should fire.
	for i := 0; i < 50; i++ {
		now += time.Millisecond
		la.ObserveLatency(0, now, 1000*time.Microsecond)
		la.ObserveLatency(1, now, 1100*time.Microsecond)
	}
	if shifts > 1 {
		t.Errorf("hysteresis failed: %d shifts on near-equal servers", shifts)
	}
	shifts = 0
	// Clear degradation: shifts fire.
	for i := 0; i < 50; i++ {
		now += time.Millisecond
		la.ObserveLatency(0, now, 1000*time.Microsecond)
		la.ObserveLatency(1, now, 3000*time.Microsecond)
	}
	if shifts == 0 {
		t.Error("hysteresis suppressed a genuine shift")
	}
}

func TestLatencyAwareRecovery(t *testing.T) {
	// After the slow server recovers, shifts should start pulling weight
	// from whoever is now worst, re-balancing over time.
	la := newLA(t, LatencyAwareConfig{})
	now := time.Duration(0)
	for i := 0; i < 60; i++ {
		now += time.Millisecond
		la.ObserveLatency(0, now, 300*time.Microsecond)
		la.ObserveLatency(1, now, 2*time.Millisecond)
	}
	degraded := la.Weights()[1]
	for i := 0; i < 200; i++ {
		now += time.Millisecond
		la.ObserveLatency(0, now, 600*time.Microsecond) // now the worse one
		la.ObserveLatency(1, now, 300*time.Microsecond)
	}
	recovered := la.Weights()[1]
	if recovered <= degraded {
		t.Errorf("server 1 weight did not recover: %v -> %v", degraded, recovered)
	}
}

func TestLatencyAwareManyBackends(t *testing.T) {
	names := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
	la := newLA(t, LatencyAwareConfig{Backends: names})
	now := time.Duration(0)
	for i := 0; i < 50; i++ {
		now += time.Millisecond
		for b := 0; b < 8; b++ {
			lat := 300 * time.Microsecond
			if b == 5 {
				lat = 3 * time.Millisecond
			}
			la.ObserveLatency(b, now, lat)
		}
	}
	w := la.Weights()
	var sum float64
	for i, x := range w {
		sum += x
		if i != 5 && x < w[5] {
			t.Errorf("healthy server %d holds less weight (%v) than slow server (%v)", i, x, w[5])
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("weights sum to %v", sum)
	}
	if la.Latency().Worst(now) != 5 {
		t.Errorf("worst = %d, want 5", la.Latency().Worst(now))
	}
}

func TestLatencyAwareUpdateTimestamps(t *testing.T) {
	la := newLA(t, LatencyAwareConfig{})
	var stamps []time.Duration
	la.OnUpdate = func(now time.Duration, _ []float64) { stamps = append(stamps, now) }
	la.ObserveLatency(1, 5*time.Millisecond, time.Millisecond)
	la.ObserveLatency(0, 6*time.Millisecond, 100*time.Microsecond)
	if len(stamps) == 0 {
		t.Fatal("no shift recorded")
	}
	if uint64(len(stamps)) != la.Updates()-1 {
		t.Errorf("OnUpdate fired %d times, Updates() = %d", len(stamps), la.Updates())
	}
	if last := stamps[len(stamps)-1]; last > 6*time.Millisecond {
		t.Errorf("last shift at %v, in the future", last)
	}
}
