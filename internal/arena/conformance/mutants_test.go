package conformance

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/packet"
)

// The mutants below are each new policy's characteristic failure mode,
// implanted deliberately. The kit must catch every one on the named check:
// a conformance suite that waves these through certifies nothing.

// doubleSampleP2C is the canonical power-of-two-choices bug: both "random"
// candidates come from the same draw, so the latency comparison degenerates
// to identity and the policy is uniform random with extra steps.
type doubleSampleP2C struct {
	*control.P2C
	rng *rand.Rand
}

func (d *doubleSampleP2C) Pick(_ packet.FlowKey, _ time.Duration) int {
	b := d.rng.Intn(d.NumBackends())
	return b // second sample == first: the comparison never happens
}

// staleWLC is weighted-least-connections that ignores the occupancy the
// dataplane binds, as a policy keeping a count of its own instead would:
// its picks balance against a load signal that is not the dataplane's.
type staleWLC struct {
	*control.WeightedLeastConn
}

func (s *staleWLC) BindOccupancy(func(int) int) {}

func mutantSubject(name string, build func(n int, seed int64) (control.Policy, error)) Subject {
	return Subject{Name: name, Build: build}
}

func hasCheck(vs []Violation, check string) bool {
	for _, v := range vs {
		if v.Check == check {
			return true
		}
	}
	return false
}

func TestMutantP2CDoubleSample(t *testing.T) {
	sub := mutantSubject("p2c-double-sample", func(n int, seed int64) (control.Policy, error) {
		if n <= 0 {
			return nil, fmt.Errorf("p2c needs >= 1 backend")
		}
		p := control.NewP2C(n, rand.New(rand.NewSource(seed)), core.ServerLatencyConfig{})
		return &doubleSampleP2C{P2C: p, rng: rand.New(rand.NewSource(seed + 1))}, nil
	})
	vs := Check(sub)
	if !hasCheck(vs, "adapts-away") {
		t.Errorf("kit missed the double-sample mutant: uniform-random picks must fail adapts-away; got %v", vs)
	}
}

func TestMutantWLCStaleOccupancy(t *testing.T) {
	sub := mutantSubject("wlc-stale-occupancy", func(n int, seed int64) (control.Policy, error) {
		if n <= 0 {
			return nil, fmt.Errorf("wlc needs >= 1 backend")
		}
		return &staleWLC{control.NewWeightedLeastConn(n, core.ServerLatencyConfig{})}, nil
	})
	vs := Check(sub)
	if !hasCheck(vs, "occupancy-follows") {
		t.Errorf("kit missed the stale-occupancy mutant: an ignored binding must fail occupancy-follows; got %v", vs)
	}
}
