package control

import (
	"strings"
	"testing"
	"time"
)

func testSpec(n int) PolicySpec {
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	return PolicySpec{
		Backends:  names,
		TableSize: 211,
		MinWeight: 0.05,
		Interval:  2 * time.Millisecond,
		Seed:      7,
	}
}

// TestRegistryBuildsEveryPolicy: every registered name constructs a usable
// policy from the shared spec — the property the DST -dst.policy flag and
// the arena both depend on.
func TestRegistryBuildsEveryPolicy(t *testing.T) {
	names := PolicyNames()
	if len(names) < 6 {
		t.Fatalf("registry has %d policies (%v), expected at least 6", len(names), names)
	}
	for _, name := range names {
		pol, err := BuildPolicy(name, testSpec(3))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if pol.NumBackends() != 3 {
			t.Errorf("%s: NumBackends = %d, want 3", name, pol.NumBackends())
		}
		if pol.Name() == "" {
			t.Errorf("%s: empty Name()", name)
		}
		// One scripted interaction: the built policy is actually driveable.
		b := pol.Pick(testKey(1), time.Millisecond)
		if b < 0 || b >= 3 {
			t.Errorf("%s: pick %d outside pool", name, b)
		}
		pol.ObserveLatency(b, time.Millisecond, 200*time.Microsecond)
	}
}

// TestRegistryUnknownListsCandidates: the error for a typo'd name must
// enumerate what is registered — it backs lbsim's and the DST flag's
// user-facing messages.
func TestRegistryUnknownListsCandidates(t *testing.T) {
	_, err := BuildPolicy("no-such-policy", testSpec(3))
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, name := range []string{"latency-aware", "knapsack", "p2c", "wlc"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestRegistryRejectsEmptyPools: builders validate with errors, never
// panics, on an empty backend list.
func TestRegistryRejectsEmptyPools(t *testing.T) {
	for _, name := range PolicyNames() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked on empty pool: %v", name, r)
				}
			}()
			if _, err := BuildPolicy(name, testSpec(0)); err == nil {
				t.Errorf("%s: accepted an empty pool", name)
			}
		}()
	}
}

// TestRegistryDeterministicSeeds: randomized policies built from the same
// spec replay identical pick sequences.
func TestRegistryDeterministicSeeds(t *testing.T) {
	run := func() []int {
		pol, err := BuildPolicy("p2c", testSpec(4))
		if err != nil {
			t.Fatal(err)
		}
		picks := make([]int, 50)
		for i := range picks {
			picks[i] = pol.Pick(testKey(i), time.Duration(i)*time.Millisecond)
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestRegistryLatencyAwareHysteresisDefault: a latency-aware policy built
// with no HysteresisRatio gets DefaultHysteresisRatio, the deadband lbproxy
// ships, so a 1.2× gap does not shift weight; a ratio of 1 disables the
// deadband and the same gap does.
func TestRegistryLatencyAwareHysteresisDefault(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		ratio  float64
		shifts bool
	}{{0, false}, {1, true}} {
		spec := testSpec(2)
		spec.HysteresisRatio = tc.ratio
		pol, err := BuildPolicy("latency-aware", spec)
		if err != nil {
			t.Fatal(err)
		}
		la := pol.(*LatencyAware)
		la.ObserveLatency(0, 0, ms) // the only measured backend gives up α
		before := la.Weights()
		la.ObserveLatency(1, 10*ms, 12*ms/10)
		after := la.Weights()
		if shifted := after[1] < before[1]; shifted != tc.shifts {
			t.Errorf("HysteresisRatio %v: weights %v -> %v after a 1.2x gap, shifted=%v, want %v",
				tc.ratio, before, after, shifted, tc.shifts)
		}
	}
}
