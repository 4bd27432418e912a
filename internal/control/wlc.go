package control

import (
	"time"

	"inbandlb/internal/core"
	"inbandlb/internal/packet"
)

// OccupancyBinder is implemented by policies whose picks consult live
// per-backend occupancy and can take it from an external source — the LB's
// sharded connection table — instead of their internal Pick/FlowClosed
// bookkeeping. Wrappers (Controller) forward the binding to the wrapped
// policy. The supplied function is called from Pick, i.e. under whatever
// serialization the Policy contract already guarantees; it must be cheap
// and must not call back into the policy.
type OccupancyBinder interface {
	BindOccupancy(func(b int) int)
}

// WeightedLeastConn routes each new flow to the backend with the lowest
// latency-weighted occupancy: cost_b = (occ_b + 1) · latency_b, where
// occ_b is the live connection count (the LB's connection table when
// bound via BindOccupancy, internal counters otherwise) and latency_b is the
// in-band EWMA. Unmeasured or stale backends are costed at the pool's median fresh
// latency so they keep receiving flows (exploration) without dominating.
// Ties break toward the lowest index for determinism.
type WeightedLeastConn struct {
	lat    *core.ServerLatency
	active []int
	occ    func(b int) int // nil → internal counters
}

// NewWeightedLeastConn creates the policy over n backends.
func NewWeightedLeastConn(n int, latencyCfg core.ServerLatencyConfig) *WeightedLeastConn {
	if n <= 0 {
		panic("control: need at least one backend")
	}
	return &WeightedLeastConn{
		lat:    core.NewServerLatency(n, latencyCfg),
		active: make([]int, n),
	}
}

// Name implements Policy.
func (w *WeightedLeastConn) Name() string { return "wlc" }

// NumBackends implements Policy.
func (w *WeightedLeastConn) NumBackends() int { return len(w.active) }

// BindOccupancy implements OccupancyBinder: subsequent picks read live
// occupancy from fn instead of the internal counters. The internal counters
// keep tracking charged flows regardless, so unbinding (nil) is safe.
func (w *WeightedLeastConn) BindOccupancy(fn func(b int) int) { w.occ = fn }

// Occupancy returns backend b's occupancy as the next Pick would see it.
func (w *WeightedLeastConn) Occupancy(b int) int {
	if w.occ != nil {
		return w.occ(b)
	}
	return w.active[b]
}

// Active returns the internally tracked charged-flow count for backend b.
func (w *WeightedLeastConn) Active(b int) int { return w.active[b] }

// Pick implements Policy.
func (w *WeightedLeastConn) Pick(_ packet.FlowKey, now time.Duration) int {
	n := len(w.active)
	fallback := w.medianFresh(now)
	best, bestCost := 0, 0.0
	for i := 0; i < n; i++ {
		l := fallback
		if w.lat.Fresh(i, now) {
			l = float64(w.lat.Latency(i))
		}
		if l <= 0 {
			l = 1
		}
		cost := float64(w.Occupancy(i)+1) * l
		if i == 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	w.active[best]++
	return best
}

// medianFresh returns the median EWMA latency over fresh backends, or 1
// when nothing is fresh (all costs then reduce to pure least-connections).
func (w *WeightedLeastConn) medianFresh(now time.Duration) float64 {
	med := make([]float64, 0, len(w.active))
	for i := range w.active {
		if !w.lat.Fresh(i, now) {
			continue
		}
		v := float64(w.lat.Latency(i))
		med = append(med, v)
		for j := len(med) - 1; j > 0 && med[j] < med[j-1]; j-- {
			med[j], med[j-1] = med[j-1], med[j]
		}
	}
	if len(med) == 0 {
		return 1
	}
	return med[len(med)/2]
}

// ObserveLatency implements Policy.
func (w *WeightedLeastConn) ObserveLatency(b int, now, sample time.Duration) {
	w.lat.Observe(b, now, sample)
}

// FlowClosed implements Policy.
func (w *WeightedLeastConn) FlowClosed(b int, _ time.Duration) {
	if b >= 0 && b < len(w.active) && w.active[b] > 0 {
		w.active[b]--
	}
}

// Latency exposes the per-server aggregation for instrumentation.
func (w *WeightedLeastConn) Latency() *core.ServerLatency { return w.lat }
