package control

import (
	"fmt"
	"time"

	"inbandlb/internal/core"
	"inbandlb/internal/maglev"
	"inbandlb/internal/packet"
)

// KnapsackConfig parameterizes the KnapsackLB-inspired greedy weight solver.
type KnapsackConfig struct {
	// Backends names the pool.
	Backends []string
	// TableSize is the Maglev table size (prime). Defaults to 4093.
	TableSize int
	// MinWeight floors each backend's share so the solver keeps probing a
	// drained server and can observe its recovery. Defaults to 0.05.
	MinWeight float64
	// Interval is the solve period. Defaults to 5 ms.
	Interval time.Duration
	// Beta in (0,1] smooths each solve toward its target allocation:
	// w += Beta·(target−w). 1 jumps straight to the target. Defaults to 0.5.
	Beta float64
	// Decay in (0,1) is the per-sample forgetting factor of the
	// latency-vs-load regression, so stale operating points fade as the
	// allocation moves. Defaults to 0.98.
	Decay float64
	// Latency configures per-server freshness tracking.
	Latency core.ServerLatencyConfig
}

// knapQuanta is how many equal increments the greedy fill distributes the
// above-floor weight mass in; more quanta give a finer allocation at
// linear solve cost.
const knapQuanta = 64

// knapCurve holds one backend's exponentially-decayed least-squares fit of
// latency (y, nanoseconds) against the weight the backend held when each
// sample was taken (x, share of total). The fitted line l(x) = a + c·x is
// the backend's empirical latency-vs-load curve.
type knapCurve struct {
	n, sx, sy, sxx, sxy float64 // decayed moments
}

func (k *knapCurve) observe(x, y, decay float64) {
	k.n = k.n*decay + 1
	k.sx = k.sx*decay + x
	k.sy = k.sy*decay + y
	k.sxx = k.sxx*decay + x*x
	k.sxy = k.sxy*decay + x*y
}

// fit returns the intercept a and slope c of backend's latency-vs-load
// curve l(x) = a + c·x, and whether there is enough evidence to use it.
//
// The decayed regression is trusted only when it is identifiable (the
// allocation actually varied x) AND genuinely congestive (slope ≥ mean):
// a linear fit over an unsaturated operating range measures slope ≈ 0,
// and a zero-slope linear model makes winner-take-all look optimal — the
// greedy fill would hand the whole pool to the cheapest intercept. True
// latency-vs-load curves are convex (flat, then a wall at saturation), so
// a slope shallower than the anchored prior below is evidence of an
// unsaturated range, not of infinite capacity.
//
// Everything else falls back to the uniform-anchored prior
// l(x) = mean·(1 + x − x0) with x0 = 1/n: the curve passes through
// (uniform share, observed mean) with slope mean, so every backend is
// assumed to congest at the same normalized rate. Under this prior the
// greedy fill equalizes mean_i·(x_i − x0) — equal means converge to the
// uniform split, and a slow backend's share falls off inversely with its
// latency. The anchor must not be the backend's own current share: that
// prior reproduces whatever allocation already exists, freezing any
// degenerate split an earlier fit produced.
func (k *knapCurve) fit(x0 float64) (a, c float64, ok bool) {
	if k.n < 2 {
		return 0, 0, false
	}
	mean := k.sy / k.n
	den := k.n*k.sxx - k.sx*k.sx
	if den > 1e-9*k.n*k.n {
		c = (k.n*k.sxy - k.sx*k.sy) / den
		a = (k.sy - c*k.sx) / k.n
		if c >= mean && a >= 0 {
			return a, c, true
		}
	}
	return mean * (1 - x0), mean, true
}

// KnapsackGreedy is a KnapsackLB-inspired weight solver (see PAPERS.md):
// instead of the paper's fixed α-shift off the single worst server, it fits
// a per-backend latency-vs-load curve from the in-band samples and
// periodically re-solves the whole allocation — fill the unit of traffic
// greedily, one quantum at a time, always placing the next quantum on the
// backend whose fitted curve promises the lowest marginal latency at its
// current assignment. The result is smoothed into the live weights and
// realized as a weighted Maglev table rebuild, so the dataplane consumes it
// exactly like the α-shift controller's output.
type KnapsackGreedy struct {
	cfg     KnapsackConfig
	weights []float64
	curves  []knapCurve
	builder *maglev.Builder
	table   *maglev.Table
	lat     *core.ServerLatency

	lastSolve time.Duration
	started   bool
	updates   uint64

	// OnUpdate, when set, observes every table rebuild.
	OnUpdate func(now time.Duration, weights []float64)
}

// NewKnapsackGreedy builds the solver.
func NewKnapsackGreedy(cfg KnapsackConfig) (*KnapsackGreedy, error) {
	if len(cfg.Backends) < 2 {
		return nil, fmt.Errorf("control: knapsack needs >= 2 backends, have %d", len(cfg.Backends))
	}
	if cfg.TableSize == 0 {
		cfg.TableSize = 4093
	}
	if cfg.MinWeight == 0 {
		cfg.MinWeight = 0.05
	}
	if cfg.MinWeight < 0 || cfg.MinWeight*float64(len(cfg.Backends)) >= 1 {
		return nil, fmt.Errorf("control: min weight %v infeasible for %d backends", cfg.MinWeight, len(cfg.Backends))
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Millisecond
	}
	if cfg.Beta == 0 {
		cfg.Beta = 0.5
	}
	if cfg.Beta < 0 || cfg.Beta > 1 {
		return nil, fmt.Errorf("control: beta %v outside (0,1]", cfg.Beta)
	}
	if cfg.Decay == 0 {
		cfg.Decay = 0.98
	}
	if cfg.Decay <= 0 || cfg.Decay >= 1 {
		return nil, fmt.Errorf("control: decay %v outside (0,1)", cfg.Decay)
	}
	n := len(cfg.Backends)
	builder, err := maglev.NewBuilder(cfg.TableSize, cfg.Backends)
	if err != nil {
		return nil, err
	}
	k := &KnapsackGreedy{
		cfg:     cfg,
		weights: make([]float64, n),
		curves:  make([]knapCurve, n),
		builder: builder,
		lat:     core.NewServerLatency(n, cfg.Latency),
	}
	for i := range k.weights {
		k.weights[i] = 1.0 / float64(n)
	}
	if err := k.rebuild(); err != nil {
		return nil, err
	}
	return k, nil
}

// Name implements Policy.
func (k *KnapsackGreedy) Name() string { return "knapsack" }

// NumBackends implements Policy.
func (k *KnapsackGreedy) NumBackends() int { return len(k.weights) }

// Pick implements Policy.
func (k *KnapsackGreedy) Pick(key packet.FlowKey, _ time.Duration) int {
	return k.table.Lookup(key.Hash())
}

// Weights returns a copy of the weight vector.
func (k *KnapsackGreedy) Weights() []float64 {
	return append([]float64(nil), k.weights...)
}

// Updates returns the number of table builds, including the initial one.
func (k *KnapsackGreedy) Updates() uint64 { return k.updates }

// Latency exposes the per-server aggregation.
func (k *KnapsackGreedy) Latency() *core.ServerLatency { return k.lat }

// FlowClosed implements Policy (affinity is the conntrack's job).
func (k *KnapsackGreedy) FlowClosed(int, time.Duration) {}

// ObserveLatency implements Policy: fold the sample into the backend's
// latency-vs-load curve at its current operating point, then re-solve once
// per Interval.
func (k *KnapsackGreedy) ObserveLatency(b int, now, sample time.Duration) {
	k.lat.Observe(b, now, sample)
	k.curves[b].observe(k.weights[b], float64(sample), k.cfg.Decay)
	if k.started && now-k.lastSolve < k.cfg.Interval {
		return
	}
	k.solve(now)
}

// solve runs one greedy allocation over the fitted curves and smooths the
// live weights toward it.
func (k *KnapsackGreedy) solve(now time.Duration) {
	k.lastSolve = now
	k.started = true

	n := len(k.weights)
	a := make([]float64, n)
	c := make([]float64, n)
	fit := make([]bool, n)
	// Fit every backend with fresh evidence; collect the fitted intercepts
	// for the exploration prior below. Stale backends must not be solved
	// from fossil curves — a recovered server would keep its outage-era
	// curve until the floor traffic slowly overwrote it.
	fitted := 0
	meds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if !k.lat.Fresh(i, now) {
			continue
		}
		ai, ci, ok := k.curves[i].fit(1 / float64(n))
		if !ok {
			continue
		}
		a[i], c[i], fit[i] = ai, ci, true
		fitted++
		// Insertion sort keeps the median deterministic and allocation-lean.
		meds = append(meds, ai)
		for j := len(meds) - 1; j > 0 && meds[j] < meds[j-1]; j-- {
			meds[j], meds[j-1] = meds[j-1], meds[j]
		}
	}
	if fitted == 0 {
		return // no evidence at all: hold the current allocation
	}
	// Unmeasured or stale backends get the pool-median curve: optimistic
	// enough to receive exploration traffic, pessimistic enough not to be
	// handed the whole pool on zero evidence.
	medA := meds[len(meds)/2]
	for i := 0; i < n; i++ {
		if !fit[i] {
			a[i], c[i] = medA, medA
		}
	}

	// Greedy fill: everyone starts at the floor, then the remaining mass is
	// placed one quantum at a time on the backend with the cheapest marginal
	// latency a+c·(x+Δ/2) at its current assignment (the midpoint rule
	// integrates the linear curve exactly). Ties break to the lowest index.
	target := make([]float64, n)
	for i := range target {
		target[i] = k.cfg.MinWeight
	}
	remain := 1 - float64(n)*k.cfg.MinWeight
	dq := remain / knapQuanta
	for q := 0; q < knapQuanta; q++ {
		best, bestCost := 0, 0.0
		for i := 0; i < n; i++ {
			cost := a[i] + c[i]*(target[i]+dq/2)
			if i == 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		target[best] += dq
	}

	// Smooth toward the target and project back onto the floored simplex so
	// the published vector always sums to 1 with every share ≥ MinWeight.
	changed := false
	for i := range k.weights {
		next := k.weights[i] + k.cfg.Beta*(target[i]-k.weights[i])
		if next < k.cfg.MinWeight {
			next = k.cfg.MinWeight
		}
		if abs64(next-k.weights[i]) > 1e-6 {
			changed = true
		}
		k.weights[i] = next
	}
	if !changed {
		return
	}
	var excess float64
	for _, w := range k.weights {
		excess += w - k.cfg.MinWeight
	}
	free := 1 - float64(n)*k.cfg.MinWeight
	if excess > 0 {
		scale := free / excess
		for i := range k.weights {
			k.weights[i] = k.cfg.MinWeight + (k.weights[i]-k.cfg.MinWeight)*scale
		}
	} else {
		for i := range k.weights {
			k.weights[i] = 1.0 / float64(n)
		}
	}
	if err := k.rebuild(); err == nil {
		if k.OnUpdate != nil {
			k.OnUpdate(now, k.Weights())
		}
	}
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func (k *KnapsackGreedy) rebuild() error {
	t, err := k.builder.Build(k.weights)
	if err != nil {
		return err
	}
	k.table = t
	k.updates++
	return nil
}

// Table implements TableSource: the current (immutable) routing table, for
// snapshot publication by a Controller.
func (k *KnapsackGreedy) Table() *maglev.Table { return k.table }
