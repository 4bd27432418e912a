package control

import "time"

const (
	// knapQuanta is how many equal increments the greedy fill distributes
	// the above-floor weight mass in; more quanta give a finer allocation
	// at linear solve cost.
	knapQuanta = 64
	// knapBeta smooths each solve toward its target allocation:
	// w += knapBeta·(target−w).
	knapBeta = 0.5
	// knapDecay is the per-sample forgetting factor of the
	// latency-vs-load regression, so stale operating points fade as the
	// allocation moves.
	knapDecay = 0.98
)

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
	weightTable
	curves   []knapCurve
	interval time.Duration

	lastSolve time.Duration
	started   bool
}

// NewKnapsackGreedy builds the solver from spec: MinWeight defaults to
// 0.05, so the solver keeps probing a drained server and can observe its
// recovery, and Interval (the solve period) to 5 ms.
func NewKnapsackGreedy(spec PolicySpec) (*KnapsackGreedy, error) {
	minWeight, interval := spec.MinWeight, spec.Interval
	if minWeight == 0 {
		minWeight = 0.05
	}
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	wt, err := newWeightTable("knapsack", spec.Backends, spec.TableSize, minWeight, spec.Latency)
	if err != nil {
		return nil, err
	}
	return &KnapsackGreedy{
		weightTable: wt,
		curves:      make([]knapCurve, len(spec.Backends)),
		interval:    interval,
	}, nil
}

// ObserveLatency implements Policy: fold the sample into the backend's
// latency-vs-load curve at its current operating point, then re-solve once
// per interval.
func (k *KnapsackGreedy) ObserveLatency(b int, now, sample time.Duration) {
	k.lat.Observe(b, now, sample)
	k.curves[b].observe(k.weights[b], float64(sample), knapDecay)
	if k.started && now-k.lastSolve < k.interval {
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
		target[i] = k.minWeight
	}
	remain := 1 - float64(n)*k.minWeight
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
		next := k.weights[i] + knapBeta*(target[i]-k.weights[i])
		if next < k.minWeight {
			next = k.minWeight
		}
		if abs64(next-k.weights[i]) > 1e-6 {
			changed = true
		}
		k.weights[i] = next
	}
	if !changed {
		return
	}
	k.project()
	k.rebuild(now)
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
