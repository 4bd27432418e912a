package control

import (
	"fmt"
	"math"
	"time"

	"inbandlb/internal/core"
	"inbandlb/internal/maglev"
	"inbandlb/internal/packet"
)

// ProportionalConfig parameterizes the multiplicative-weights controller.
type ProportionalConfig struct {
	// Backends names the pool.
	Backends []string
	// TableSize is the Maglev table size (prime). Defaults to 4093.
	TableSize int
	// Gain is the control gain γ: each period, weight_i is scaled by
	// exp(-γ·(L_i-L̄)/L̄). Larger gains converge faster but oscillate.
	// Defaults to 0.5.
	Gain float64
	// MinWeight floors each backend's share. Defaults to 0.02.
	MinWeight float64
	// Interval is the control period. Defaults to 5 ms.
	Interval time.Duration
	// Latency configures per-server aggregation.
	Latency core.ServerLatencyConfig
}

const (
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
	cfg     ProportionalConfig
	weights []float64
	builder *maglev.Builder
	table   *maglev.Table
	lat     *core.ServerLatency

	lastUpdate time.Duration
	started    bool
	updates    uint64

	// OnUpdate, when set, observes every table rebuild.
	OnUpdate func(now time.Duration, weights []float64)
}

// NewProportional builds the controller.
func NewProportional(cfg ProportionalConfig) (*Proportional, error) {
	if len(cfg.Backends) < 2 {
		return nil, fmt.Errorf("control: proportional needs >= 2 backends, have %d", len(cfg.Backends))
	}
	if cfg.TableSize == 0 {
		cfg.TableSize = 4093
	}
	if cfg.Gain == 0 {
		cfg.Gain = 0.5
	}
	if cfg.Gain < 0 || cfg.Gain > 5 {
		return nil, fmt.Errorf("control: gain %v outside (0,5]", cfg.Gain)
	}
	if cfg.MinWeight == 0 {
		cfg.MinWeight = 0.02
	}
	if cfg.MinWeight < 0 || cfg.MinWeight*float64(len(cfg.Backends)) >= 1 {
		return nil, fmt.Errorf("control: min weight %v infeasible for %d backends", cfg.MinWeight, len(cfg.Backends))
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Millisecond
	}
	n := len(cfg.Backends)
	builder, err := maglev.NewBuilder(cfg.TableSize, cfg.Backends)
	if err != nil {
		return nil, err
	}
	p := &Proportional{
		cfg:     cfg,
		weights: make([]float64, n),
		builder: builder,
		lat:     core.NewServerLatency(n, cfg.Latency),
	}
	for i := range p.weights {
		p.weights[i] = 1.0 / float64(n)
	}
	if err := p.rebuild(); err != nil {
		return nil, err
	}
	return p, nil
}

// Name implements Policy.
func (p *Proportional) Name() string { return "proportional" }

// NumBackends implements Policy.
func (p *Proportional) NumBackends() int { return len(p.weights) }

// Pick implements Policy.
func (p *Proportional) Pick(key packet.FlowKey, _ time.Duration) int {
	return p.table.Lookup(key.Hash())
}

// Weights returns a copy of the weight vector.
func (p *Proportional) Weights() []float64 {
	return append([]float64(nil), p.weights...)
}

// Updates returns the number of table builds, including the initial one.
func (p *Proportional) Updates() uint64 { return p.updates }

// Latency exposes the per-server aggregation.
func (p *Proportional) Latency() *core.ServerLatency { return p.lat }

// FlowClosed implements Policy (affinity is the conntrack's job).
func (p *Proportional) FlowClosed(int, time.Duration) {}

// ObserveLatency implements Policy.
func (p *Proportional) ObserveLatency(b int, now, sample time.Duration) {
	p.lat.Observe(b, now, sample)
	if p.started && now-p.lastUpdate < p.cfg.Interval {
		return
	}
	p.step(now)
}

// step runs one control period: multiplicative weight update toward the
// latency-weighted mean, floored and renormalized.
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
			factor := math.Exp(-p.cfg.Gain * dev)
			// Clamp single-step movement to 2x either way for stability.
			if factor > 2 {
				factor = 2
			}
			if factor < 0.5 {
				factor = 0.5
			}
			next = p.weights[i] * factor
		}
		if next < p.cfg.MinWeight {
			next = p.cfg.MinWeight
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
	// Renormalize to a unit simplex, respecting the floor.
	var sum float64
	for _, w := range p.weights {
		sum += w
	}
	for i := range p.weights {
		p.weights[i] /= sum
		if p.weights[i] < p.cfg.MinWeight {
			p.weights[i] = p.cfg.MinWeight
		}
	}
	if err := p.rebuild(); err == nil {
		if p.OnUpdate != nil {
			p.OnUpdate(now, p.Weights())
		}
	}
}

func (p *Proportional) rebuild() error {
	t, err := p.builder.Build(p.weights)
	if err != nil {
		return err
	}
	p.table = t
	p.updates++
	return nil
}

// Table implements TableSource: the current (immutable) routing table, for
// snapshot publication by a Controller.
func (p *Proportional) Table() *maglev.Table { return p.table }
