package main

import (
	"flag"
	"math"
	"testing"
	"time"

	"inbandlb/internal/control"
)

// defaultPolicy builds the named policy from the spec lbproxy derives when
// no tuning flag is given.
func defaultPolicy(t *testing.T, name string) control.Policy {
	t.Helper()
	fs := flag.NewFlagSet("lbproxy", flag.ContinueOnError)
	spec := policySpecFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	pol, err := control.BuildPolicy(name, spec([]string{"a", "b"}))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return pol
}

// TestDefaultPolicyConfigs pins what -policy builds with every tuning flag at
// its default, the configuration the end-to-end rig runs: maglev on a
// 65537-slot table; latency-aware with α 0.10, floor 0.02, cooldown 5 ms,
// hysteresis 1.3, EWMA half-life 20 ms on 4093 slots. Every registered name
// is a valid -policy and builds from the same flags.
func TestDefaultPolicyConfigs(t *testing.T) {
	const ms = time.Millisecond
	if n := defaultPolicy(t, "maglev").(*control.MaglevStatic).Table().Size(); n != 65537 {
		t.Errorf("maglev table has %d slots, want 65537", n)
	}
	latencyAware := func() *control.LatencyAware {
		return defaultPolicy(t, "latency-aware").(*control.LatencyAware)
	}
	if n := latencyAware().Table().Size(); n != 4093 {
		t.Errorf("latency-aware table has %d slots, want 4093", n)
	}
	weights := func(la *control.LatencyAware, want0, want1 float64, what string) {
		t.Helper()
		if w := la.Weights(); math.Abs(w[0]-want0) > 1e-9 || math.Abs(w[1]-want1) > 1e-9 {
			t.Errorf("%s: weights %v, want [%v %v]", what, w, want0, want1)
		}
	}

	// α: the only measured backend is the worst and gives up a tenth of
	// the traffic. Cooldown: a far worse backend 1 waits out 5 ms.
	la := latencyAware()
	la.ObserveLatency(0, 0, ms)
	weights(la, 0.4, 0.6, "after the first shift")
	la.ObserveLatency(1, 4900*time.Microsecond, 10*ms)
	weights(la, 0.4, 0.6, "inside the cooldown")
	la.ObserveLatency(1, 5*ms, 10*ms)
	weights(la, 0.5, 0.5, "once the cooldown has passed")

	// Hysteresis: backend 1 must be 1.3x backend 0 to lose weight.
	for _, tc := range []struct {
		ratio float64
		want1 float64
	}{{1.29, 0.6}, {1.31, 0.5}} {
		la := latencyAware()
		la.ObserveLatency(0, 0, ms)
		la.ObserveLatency(1, 10*ms, time.Duration(tc.ratio*float64(ms)))
		weights(la, 1-tc.want1, tc.want1, "hysteresis")
	}

	// Floor: a backend that stays the worst keeps 0.02 of the traffic.
	la = latencyAware()
	for i := 0; i < 20; i++ {
		now := time.Duration(i) * 5 * ms
		la.ObserveLatency(0, now, 10*ms)
		la.ObserveLatency(1, now, ms)
	}
	weights(la, 0.02, 0.98, "at the floor")

	// Half-life: a sample 20 ms after the last one carries half the weight.
	lat := latencyAware().Latency()
	lat.Observe(0, 0, ms)
	lat.Observe(0, 20*ms, 3*ms)
	if got := lat.Latency(0); got < 2*ms-time.Microsecond || got > 2*ms+time.Microsecond {
		t.Errorf("EWMA %v after 1 ms then 3 ms one half-life apart, want 2ms", got)
	}

	for _, name := range control.PolicyNames() {
		if pol := defaultPolicy(t, name); pol.Name() != name {
			t.Errorf("-policy %s built %q", name, pol.Name())
		}
	}
}
