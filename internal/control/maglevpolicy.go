package control

import (
	"fmt"
	"math/rand"
	"time"

	"inbandlb/internal/core"
	"inbandlb/internal/maglev"
	"inbandlb/internal/packet"
)

// MaglevStatic is the paper's baseline: a fixed equal-weight Maglev table
// mapping flow hashes to backends, with no reaction to server performance.
type MaglevStatic struct {
	table *maglev.Table
}

// NewMaglevStatic builds the baseline over the named backends.
func NewMaglevStatic(names []string, tableSize int) (*MaglevStatic, error) {
	backends := make([]maglev.Backend, len(names))
	for i, n := range names {
		backends[i] = maglev.Backend{Name: n, Weight: 1}
	}
	t, err := maglev.New(tableSize, backends)
	if err != nil {
		return nil, err
	}
	return &MaglevStatic{table: t}, nil
}

// Name implements Policy.
func (m *MaglevStatic) Name() string { return "maglev" }

// NumBackends implements Policy.
func (m *MaglevStatic) NumBackends() int { return m.table.NumBackends() }

// Pick implements Policy.
func (m *MaglevStatic) Pick(key packet.FlowKey, _ time.Duration) int {
	return m.table.Lookup(key.Hash())
}

// ObserveLatency implements Policy (ignored — that is the point of the baseline).
func (m *MaglevStatic) ObserveLatency(int, time.Duration, time.Duration) {}

// FlowClosed implements Policy (ignored).
func (m *MaglevStatic) FlowClosed(int, time.Duration) {}

// Table implements TableSource: the routing state is the (immutable) table
// itself, so a Controller can serve picks from snapshots.
func (m *MaglevStatic) Table() *maglev.Table { return m.table }

// P2C is power-of-two-choices guided by the in-band latency signal: sample
// two distinct backends uniformly and route to the one with the lower EWMA
// latency (falling back to fewer active flows, then the lower index, when
// latencies are unknown).
type P2C struct {
	rng    *rand.Rand
	lat    *core.ServerLatency
	active []int
}

// NewP2C creates the policy over n backends.
func NewP2C(n int, rng *rand.Rand, latencyCfg core.ServerLatencyConfig) *P2C {
	if n <= 0 {
		panic("control: need at least one backend")
	}
	return &P2C{
		rng:    rng,
		lat:    core.NewServerLatency(n, latencyCfg),
		active: make([]int, n),
	}
}

// Name implements Policy.
func (p *P2C) Name() string { return "p2c" }

// NumBackends implements Policy.
func (p *P2C) NumBackends() int { return len(p.active) }

// Pick implements Policy.
func (p *P2C) Pick(_ packet.FlowKey, now time.Duration) int {
	n := len(p.active)
	if n == 1 {
		p.active[0]++
		return 0
	}
	a := p.rng.Intn(n)
	b := p.rng.Intn(n - 1)
	if b >= a {
		b++
	}
	choice := p.better(a, b, now)
	p.active[choice]++
	return choice
}

func (p *P2C) better(a, b int, now time.Duration) int {
	af, bf := p.lat.Fresh(a, now), p.lat.Fresh(b, now)
	switch {
	case af && bf:
		la, lb := p.lat.Latency(a), p.lat.Latency(b)
		if la != lb {
			if la < lb {
				return a
			}
			return b
		}
	case af && !bf:
		// Unknown beats known only if the known one is loaded; prefer
		// exploring the unmeasured backend.
		return b
	case !af && bf:
		return a
	}
	if p.active[a] != p.active[b] {
		if p.active[a] < p.active[b] {
			return a
		}
		return b
	}
	if a < b {
		return a
	}
	return b
}

// ObserveLatency implements Policy.
func (p *P2C) ObserveLatency(b int, now, sample time.Duration) {
	p.lat.Observe(b, now, sample)
}

// FlowClosed implements Policy.
func (p *P2C) FlowClosed(b int, _ time.Duration) {
	if b >= 0 && b < len(p.active) && p.active[b] > 0 {
		p.active[b]--
	}
}

// DefaultHysteresisRatio is the shipped latency-aware deadband: lbproxy's
// -hysteresis default, and BuildPolicy's for a zero PolicySpec value. A
// ratio of 1 disables hysteresis.
const DefaultHysteresisRatio = 1.3

// LatencyAwareConfig parameterizes the paper's feedback controller.
type LatencyAwareConfig struct {
	// Backends names the pool (Maglev permutations key off names).
	Backends []string
	// TableSize is the Maglev table size (prime). Defaults to a smaller
	// prime than production Maglev (4093) because the controller rebuilds
	// the table on every shift.
	TableSize int
	// Alpha is the fraction of total traffic shifted from the worst
	// server to the others per control action. The paper uses 0.10.
	Alpha float64
	// MinWeight floors any backend's weight (as a fraction of total) so
	// the controller keeps probing a degraded server and can notice its
	// recovery. Defaults to 0.05.
	MinWeight float64
	// Cooldown is the minimum time between shifts. Zero shifts on every
	// new sample, the paper's literal "may occur every time the LB
	// receives a new sample".
	Cooldown time.Duration
	// HysteresisRatio suppresses shifts unless the worst server's EWMA
	// exceeds the best's by this factor. 1.0 (default ≤1) disables
	// hysteresis, matching the paper's simple strategy. Callers that build
	// the policy by name get DefaultHysteresisRatio instead.
	HysteresisRatio float64
	// SignalQuantile, when in (0,1), drives control decisions from the
	// per-server windowed q-quantile instead of the EWMA: the controller
	// then optimizes the tail directly. Zero keeps the EWMA signal.
	SignalQuantile float64
	// Latency configures the per-server aggregation. With SignalQuantile in
	// (0,1) and no WindowSlices, the windows default to 8 × 125 ms.
	Latency core.ServerLatencyConfig
}

// LatencyAware is the paper's controller: on new latency samples it moves
// α of the traffic share from the worst-latency server equally to all
// others, realized as a weighted Maglev table rebuild. Existing flows are
// unaffected (the LB's connection table pins them), so only new flows land
// on the new slots — exactly the Cilium/Maglev behaviour the paper
// instruments.
type LatencyAware struct {
	cfg     LatencyAwareConfig
	weights []float64
	builder *maglev.Builder
	table   *maglev.Table
	lat     *core.ServerLatency

	lastShift  time.Duration
	shifted    bool
	updates    uint64
	rebuildErr error

	// OnShift, when set, observes every table update with the new weight
	// vector; experiments use it to timestamp controller reactions.
	OnShift func(now time.Duration, worst int, weights []float64)
}

// NewLatencyAware builds the controller.
func NewLatencyAware(cfg LatencyAwareConfig) (*LatencyAware, error) {
	if len(cfg.Backends) < 2 {
		return nil, fmt.Errorf("control: latency-aware needs >= 2 backends, have %d", len(cfg.Backends))
	}
	if cfg.TableSize == 0 {
		cfg.TableSize = 4093
	}
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		return nil, fmt.Errorf("control: alpha %v outside (0,1)", cfg.Alpha)
	}
	if cfg.MinWeight == 0 {
		cfg.MinWeight = 0.05
	}
	if cfg.MinWeight < 0 || cfg.MinWeight*float64(len(cfg.Backends)) >= 1 {
		return nil, fmt.Errorf("control: min weight %v infeasible for %d backends", cfg.MinWeight, len(cfg.Backends))
	}
	if q := cfg.SignalQuantile; q > 0 && q < 1 && cfg.Latency.WindowSlices <= 0 {
		cfg.Latency.WindowSlices = 8 // the quantile signal reads the windows
	}
	n := len(cfg.Backends)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1.0 / float64(n)
	}
	builder, err := maglev.NewBuilder(cfg.TableSize, cfg.Backends)
	if err != nil {
		return nil, err
	}
	la := &LatencyAware{
		cfg:     cfg,
		weights: weights,
		builder: builder,
		lat:     core.NewServerLatency(n, cfg.Latency),
	}
	if err := la.rebuild(); err != nil {
		return nil, err
	}
	return la, nil
}

// Name implements Policy.
func (la *LatencyAware) Name() string { return "latency-aware" }

// NumBackends implements Policy.
func (la *LatencyAware) NumBackends() int { return len(la.weights) }

// Pick implements Policy.
func (la *LatencyAware) Pick(key packet.FlowKey, _ time.Duration) int {
	return la.table.Lookup(key.Hash())
}

// Weights returns a copy of the current weight vector.
func (la *LatencyAware) Weights() []float64 {
	return append([]float64(nil), la.weights...)
}

// Updates returns the number of table builds performed, including the
// initial build (so a freshly constructed controller reports 1).
func (la *LatencyAware) Updates() uint64 { return la.updates }

// LastShift returns the time of the most recent shift (zero if none yet;
// check Updates to distinguish).
func (la *LatencyAware) LastShift() time.Duration { return la.lastShift }

// Latency exposes the per-server aggregation for instrumentation.
func (la *LatencyAware) Latency() *core.ServerLatency { return la.lat }

// ObserveLatency implements Policy: fold in the sample, then run the
// paper's control step.
func (la *LatencyAware) ObserveLatency(b int, now, sample time.Duration) {
	la.lat.Observe(b, now, sample)
	la.maybeShift(now)
}

// FlowClosed implements Policy (ignored — affinity is the conntrack's job).
func (la *LatencyAware) FlowClosed(int, time.Duration) {}

func (la *LatencyAware) maybeShift(now time.Duration) {
	if la.shifted && now-la.lastShift < la.cfg.Cooldown {
		return
	}
	q := la.cfg.SignalQuantile
	signal := func(i int) float64 {
		if q > 0 && q < 1 {
			return float64(la.lat.Quantile(i, now, q))
		}
		return float64(la.lat.Latency(i))
	}
	var worst, best int
	if q > 0 && q < 1 {
		worst, best = la.lat.WorstQuantile(now, q), la.lat.BestQuantile(now, q)
	} else {
		worst, best = la.lat.Worst(now), la.lat.Best(now)
	}
	if worst < 0 {
		return
	}
	if la.cfg.HysteresisRatio > 1 {
		// The comparison only applies when two distinct servers are
		// measurable; with a single fresh server (the degraded one may be
		// the only one producing samples) the shift proceeds — it is the
		// highest measured latency by definition.
		if best >= 0 && best != worst &&
			signal(worst) < la.cfg.HysteresisRatio*signal(best) {
			return
		}
	}
	if !la.shiftFrom(worst) {
		return
	}
	la.lastShift = now
	la.shifted = true
	if la.OnShift != nil {
		la.OnShift(now, worst, la.Weights())
	}
}

// shiftFrom moves α of total weight from the worst backend equally to the
// others, respecting the MinWeight floor. It reports whether any weight
// actually moved.
func (la *LatencyAware) shiftFrom(worst int) bool {
	avail := la.weights[worst] - la.cfg.MinWeight
	if avail <= 0 {
		return false
	}
	move := la.cfg.Alpha
	if move > avail {
		move = avail
	}
	n := len(la.weights)
	la.weights[worst] -= move
	share := move / float64(n-1)
	for i := range la.weights {
		if i != worst {
			la.weights[i] += share
		}
	}
	if err := la.rebuild(); err != nil {
		// Roll back so state stays consistent; record for diagnostics.
		la.weights[worst] += move
		for i := range la.weights {
			if i != worst {
				la.weights[i] -= share
			}
		}
		la.rebuildErr = err
		return false
	}
	return true
}

func (la *LatencyAware) rebuild() error {
	// The builder reuses cached per-backend permutations, so each shift
	// pays only for the population walk (and nothing at all when the
	// weights round-trip back to a previously built vector).
	t, err := la.builder.Build(la.weights)
	if err != nil {
		return err
	}
	la.table = t
	la.updates++
	return nil
}

// Table implements TableSource: the current (immutable) routing table, for
// snapshot publication by a Controller.
func (la *LatencyAware) Table() *maglev.Table { return la.table }

// Share returns the fraction of Maglev slots currently owned by backend i —
// the live hash-table state the paper instruments to show millisecond
// reactions.
func (la *LatencyAware) Share(i int) float64 { return la.table.Share(i) }
