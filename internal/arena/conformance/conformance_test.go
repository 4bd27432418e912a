package conformance

import (
	"fmt"
	"testing"
	"time"

	"inbandlb/internal/control"
)

// registrySubject wraps a registered policy as a conformance subject with
// the arena's shared spec.
func registrySubject(name string) Subject {
	return Subject{
		Name: name,
		Build: func(n int, seed int64) (control.Policy, error) {
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("server-%d", i)
			}
			return control.BuildPolicy(name, control.PolicySpec{
				Backends:  names,
				TableSize: 4093,
				MinWeight: 0.05,
				Interval:  2 * time.Millisecond,
				Seed:      seed,
			})
		},
	}
}

// TestConformance certifies every arena contender — the paper's α-shift
// plus the three challengers — and the proportional controller against
// the full contract.
func TestConformance(t *testing.T) {
	for _, name := range []string{"latency-aware", "proportional", "knapsack", "p2c", "wlc"} {
		t.Run(name, func(t *testing.T) {
			for _, v := range Check(registrySubject(name)) {
				t.Errorf("%s", v)
			}
		})
	}
}
