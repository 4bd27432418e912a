package control

import (
	"math"
	"testing"
	"time"
)

func newProp(t *testing.T, cfg PolicySpec) *Proportional {
	t.Helper()
	if cfg.Backends == nil {
		cfg.Backends = []string{"s0", "s1"}
	}
	if cfg.TableSize == 0 {
		cfg.TableSize = 1021
	}
	cfg.Latency = coreLatencyCfg()
	p, err := NewProportional(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProportionalValidation(t *testing.T) {
	base := PolicySpec{Backends: []string{"a", "b"}}
	cases := []func(PolicySpec) PolicySpec{
		func(c PolicySpec) PolicySpec { c.Backends = []string{"a"}; return c },
		func(c PolicySpec) PolicySpec { c.MinWeight = 0.6; return c },
		func(c PolicySpec) PolicySpec { c.TableSize = 10; return c },
	}
	for i, mut := range cases {
		if _, err := NewProportional(mut(base)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestProportionalDrainsSlowServer(t *testing.T) {
	p := newProp(t, PolicySpec{Interval: time.Millisecond})
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		now += time.Millisecond
		p.ObserveLatency(0, now, 300*time.Microsecond)
		p.ObserveLatency(1, now, 2*time.Millisecond)
	}
	w := p.Weights()
	if w[1] > 0.1 {
		t.Errorf("slow server weight = %v, want near floor", w[1])
	}
	if math.Abs(w[0]+w[1]-1) > 0.05 {
		t.Errorf("weights sum = %v", w[0]+w[1])
	}
	if p.Updates() <= 1 {
		t.Error("no table updates")
	}
}

func TestProportionalStableOnEqualServers(t *testing.T) {
	// The key advantage over the α-shift: near-equal servers produce
	// near-zero weight movement, not ±α ping-pong.
	p := newProp(t, PolicySpec{Interval: time.Millisecond})
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		now += time.Millisecond
		p.ObserveLatency(0, now, 1000*time.Microsecond)
		p.ObserveLatency(1, now, 1020*time.Microsecond)
	}
	w := p.Weights()
	if math.Abs(w[0]-w[1]) > 0.25 {
		t.Errorf("near-equal servers drifted to %v", w)
	}
}

func TestProportionalRecovers(t *testing.T) {
	p := newProp(t, PolicySpec{Interval: time.Millisecond})
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		now += time.Millisecond
		p.ObserveLatency(0, now, 300*time.Microsecond)
		p.ObserveLatency(1, now, 2*time.Millisecond)
	}
	drained := p.Weights()[1]
	for i := 0; i < 400; i++ {
		now += time.Millisecond
		p.ObserveLatency(0, now, 300*time.Microsecond)
		p.ObserveLatency(1, now, 300*time.Microsecond)
	}
	recovered := p.Weights()[1]
	if recovered <= drained+0.1 {
		t.Errorf("weight did not recover: %v -> %v", drained, recovered)
	}
}

func TestProportionalIntervalThrottles(t *testing.T) {
	p := newProp(t, PolicySpec{Interval: 100 * time.Millisecond})
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		now += time.Millisecond
		p.ObserveLatency(0, now, 300*time.Microsecond)
		p.ObserveLatency(1, now, 3*time.Millisecond)
	}
	// 100ms of samples, 100ms interval: at most a couple of updates
	// beyond the initial build.
	if p.Updates() > 4 {
		t.Errorf("updates = %d with a 100ms interval over 100ms", p.Updates())
	}
}

func TestProportionalSingleFreshServer(t *testing.T) {
	p := newProp(t, PolicySpec{Interval: time.Millisecond})
	now := time.Millisecond
	// Only server 0 measured: its deviation from the (single-server) mean
	// is zero, so nothing should move.
	p.ObserveLatency(0, now, time.Millisecond)
	w := p.Weights()
	if math.Abs(w[0]-0.5) > 1e-6 {
		t.Errorf("weights moved on single-server information: %v", w)
	}
}

func TestProportionalMetadata(t *testing.T) {
	p := newProp(t, PolicySpec{})
	if p.Name() != "proportional" || p.NumBackends() != 2 {
		t.Error("metadata wrong")
	}
	if b := p.Pick(key(1), 0); b < 0 || b > 1 {
		t.Errorf("pick = %d", b)
	}
	if p.Latency() == nil {
		t.Error("latency accessor nil")
	}
}
