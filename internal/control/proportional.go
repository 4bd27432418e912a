package control

import (
	"math"
	"time"
)

const (
	// propGain is the control gain γ: each period, weight_i is scaled by
	// exp(-γ·(L_i-L̄)/L̄). Larger gains converge faster but oscillate.
	propGain = 0.5
	// propDeadband is the relative latency deviation below which no
	// corrective action is taken — persistent small differences must not
	// compound into a full drain.
	propDeadband = 0.05
	// propRestore is the per-period leak toward uniform weights applied
	// when a server sits inside the deadband: it rebalances load after a
	// degraded server recovers (a drained server whose latency has
	// equalized would otherwise stay at the floor forever).
	propRestore = 0.02
)

// Proportional is a step beyond the paper's simple strategy (its §5 Q4
// asks for "more sophisticated control loops"): instead of moving a fixed
// fraction α off the single worst server, it adjusts every server's weight
// multiplicatively in proportion to how far its latency sits from the
// pool's weighted mean — the MATE/TeXCP-style gradient flavour the paper
// cites as inspiration. Compared to the α-shift it converges without
// ping-ponging between near-equal servers, because near-zero deviations
// produce near-zero weight changes.
type Proportional struct {
	weightTable
	interval time.Duration

	lastUpdate time.Duration
	started    bool
}

// NewProportional builds the controller from spec: MinWeight defaults to
// 0.02 and Interval (the control period) to 5 ms.
func NewProportional(spec PolicySpec) (*Proportional, error) {
	minWeight, interval := spec.MinWeight, spec.Interval
	if minWeight == 0 {
		minWeight = 0.02
	}
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	wt, err := newWeightTable("proportional", spec.Backends, spec.TableSize, minWeight, spec.Latency)
	if err != nil {
		return nil, err
	}
	return &Proportional{weightTable: wt, interval: interval}, nil
}

// ObserveLatency implements Policy.
func (p *Proportional) ObserveLatency(b int, now, sample time.Duration) {
	p.lat.Observe(b, now, sample)
	if p.started && now-p.lastUpdate < p.interval {
		return
	}
	p.step(now)
}

// step runs one control period: multiplicative weight update toward the
// latency-weighted mean, projected back onto the floored simplex.
func (p *Proportional) step(now time.Duration) {
	// Collect fresh latencies; a server without recent samples keeps its
	// weight (no information, no action).
	n := len(p.weights)
	lats := make([]float64, n)
	fresh := make([]bool, n)
	var meanNum, meanDen float64
	for i := 0; i < n; i++ {
		if !p.lat.Fresh(i, now) {
			continue
		}
		fresh[i] = true
		lats[i] = float64(p.lat.Latency(i))
		meanNum += p.weights[i] * lats[i]
		meanDen += p.weights[i]
	}
	if meanDen == 0 || meanNum == 0 {
		return
	}
	mean := meanNum / meanDen

	// The restore leak only runs when every fresh server sits inside the
	// deadband: leaking toward uniform while one server is still degraded
	// would hand weight back to it each period, creating a limit cycle
	// (drain → leak → drain) instead of a stable drained state.
	allInBand := true
	for i := 0; i < n; i++ {
		if !fresh[i] {
			continue
		}
		if dev := (lats[i] - mean) / mean; math.Abs(dev) > propDeadband {
			allInBand = false
			break
		}
	}

	uniform := 1.0 / float64(n)
	changed := false
	for i := 0; i < n; i++ {
		if !fresh[i] {
			continue
		}
		dev := (lats[i] - mean) / mean
		var next float64
		if math.Abs(dev) <= propDeadband {
			next = p.weights[i]
			if allInBand {
				// Equalized pool: leak toward uniform so recovered
				// servers regain load and small persistent deviations do
				// not compound.
				next += propRestore * (uniform - p.weights[i])
			}
		} else {
			factor := math.Exp(-propGain * dev)
			// Clamp single-step movement to 2x either way for stability.
			if factor > 2 {
				factor = 2
			}
			if factor < 0.5 {
				factor = 0.5
			}
			next = p.weights[i] * factor
		}
		if next < p.minWeight {
			next = p.minWeight
		}
		if math.Abs(next-p.weights[i]) > 1e-4 {
			changed = true
		}
		p.weights[i] = next
	}
	p.lastUpdate = now
	p.started = true
	if !changed {
		return
	}
	p.project()
	p.rebuild(now)
}
