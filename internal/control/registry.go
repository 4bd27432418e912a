package control

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"inbandlb/internal/core"
	"inbandlb/internal/maglev"
)

// PolicySpec is the policy-agnostic parameter set a builder turns into a
// concrete Policy. Every field has a sensible zero-default, so callers (the
// DST harness, the arena, lbsim) can describe "the same experiment under a
// different policy" by changing only the name.
type PolicySpec struct {
	// Backends names the pool; len(Backends) is the pool size everywhere.
	Backends []string
	// TableSize is the Maglev table size for table-building policies
	// (prime; defaults per policy).
	TableSize int
	// Alpha is the α-shift fraction for the latency-aware policy.
	Alpha float64
	// MinWeight floors weighted policies' shares.
	MinWeight float64
	// Interval is the control period (cooldown for the α-shift, solve
	// period for knapsack/proportional).
	Interval time.Duration
	// HysteresisRatio is the latency-aware policy's worst/best EWMA ratio
	// required to shift. Zero selects DefaultHysteresisRatio; 1 disables
	// it.
	HysteresisRatio float64
	// Seed supplies determinism for randomized policies (P2C).
	Seed int64
	// Latency configures per-server aggregation for adaptive policies.
	Latency core.ServerLatencyConfig
}

// PolicyBuilder constructs a Policy from a spec. Builders validate and
// return errors — never panic — so unknown pool sizes from external input
// (flags, scenario generators) fail loudly but recoverably.
type PolicyBuilder func(PolicySpec) (Policy, error)

var policyRegistry = map[string]PolicyBuilder{}

// RegisterPolicy adds a named builder to the global registry. Registering a
// duplicate name panics: names are API, and two packages claiming one is a
// programming error worth failing fast on.
func RegisterPolicy(name string, build PolicyBuilder) {
	if _, dup := policyRegistry[name]; dup {
		panic(fmt.Sprintf("control: policy %q registered twice", name))
	}
	policyRegistry[name] = build
}

// BuildPolicy constructs the named policy from spec. Unknown names report
// the registered alternatives; an empty pool is an error for every policy,
// so builders may assume at least one backend.
func BuildPolicy(name string, spec PolicySpec) (Policy, error) {
	build, ok := policyRegistry[name]
	if !ok {
		return nil, fmt.Errorf("control: unknown policy %q (registered: %v)", name, PolicyNames())
	}
	if len(spec.Backends) == 0 {
		return nil, fmt.Errorf("control: %s needs >= 1 backend", name)
	}
	return build(spec)
}

// PolicyNames returns the registered policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyRegistry))
	for n := range policyRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterPolicy("latency-aware", func(s PolicySpec) (Policy, error) {
		alpha, hysteresis := s.Alpha, s.HysteresisRatio
		if alpha == 0 {
			alpha = 0.10
		}
		if hysteresis == 0 {
			hysteresis = DefaultHysteresisRatio
		}
		return NewLatencyAware(LatencyAwareConfig{
			Backends:        s.Backends,
			TableSize:       s.TableSize,
			Alpha:           alpha,
			MinWeight:       s.MinWeight,
			Cooldown:        s.Interval,
			HysteresisRatio: hysteresis,
			Latency:         s.Latency,
		})
	})
	RegisterPolicy("proportional", func(s PolicySpec) (Policy, error) {
		return NewProportional(ProportionalConfig{
			Backends:  s.Backends,
			TableSize: s.TableSize,
			MinWeight: s.MinWeight,
			Interval:  s.Interval,
			Latency:   s.Latency,
		})
	})
	RegisterPolicy("knapsack", func(s PolicySpec) (Policy, error) {
		return NewKnapsackGreedy(KnapsackConfig{
			Backends:  s.Backends,
			TableSize: s.TableSize,
			MinWeight: s.MinWeight,
			Interval:  s.Interval,
			Latency:   s.Latency,
		})
	})
	RegisterPolicy("maglev", func(s PolicySpec) (Policy, error) {
		size := s.TableSize
		if size == 0 {
			size = maglev.DefaultTableSize
		}
		return NewMaglevStatic(s.Backends, size)
	})
	RegisterPolicy("roundrobin", func(s PolicySpec) (Policy, error) {
		return NewRoundRobin(len(s.Backends)), nil
	})
	RegisterPolicy("p2c", func(s PolicySpec) (Policy, error) {
		return NewP2C(len(s.Backends), rand.New(rand.NewSource(s.Seed)), s.Latency), nil
	})
	RegisterPolicy("wlc", func(s PolicySpec) (Policy, error) {
		return NewWeightedLeastConn(len(s.Backends), s.Latency), nil
	})
}
