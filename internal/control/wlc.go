package control

import (
	"time"

	"inbandlb/internal/core"
	"inbandlb/internal/packet"
)

// WeightedLeastConn routes each new flow to the backend with the lowest
// latency-weighted occupancy: cost_b = (occ_b + 1) · latency_b, where
// occ_b is the bound open-flow count (see OccupancyBinder) and latency_b is
// the in-band EWMA. Unmeasured or stale backends are costed at the pool's median fresh
// latency so they keep receiving flows (exploration) without dominating.
// Ties break toward the lowest index for determinism.
type WeightedLeastConn struct {
	lat *core.ServerLatency
	occ occupancy
}

// NewWeightedLeastConn creates the policy over n backends.
func NewWeightedLeastConn(n int, latencyCfg core.ServerLatencyConfig) *WeightedLeastConn {
	if n <= 0 {
		panic("control: need at least one backend")
	}
	return &WeightedLeastConn{lat: core.NewServerLatency(n, latencyCfg)}
}

// Name implements Policy.
func (w *WeightedLeastConn) Name() string { return "wlc" }

// NumBackends implements Policy.
func (w *WeightedLeastConn) NumBackends() int { return w.lat.NumServers() }

// BindOccupancy implements OccupancyBinder.
func (w *WeightedLeastConn) BindOccupancy(fn func(b int) int) { w.occ = fn }

// Pick implements Policy.
func (w *WeightedLeastConn) Pick(_ packet.FlowKey, now time.Duration) int {
	n := w.lat.NumServers()
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
		cost := float64(w.occ.of(i)+1) * l
		if i == 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

// medianFresh returns the median EWMA latency over fresh backends, or 1
// when nothing is fresh (all costs then reduce to pure least-connections).
func (w *WeightedLeastConn) medianFresh(now time.Duration) float64 {
	n := w.lat.NumServers()
	med := make([]float64, 0, n)
	for i := 0; i < n; i++ {
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

// Latency exposes the per-server aggregation for instrumentation.
func (w *WeightedLeastConn) Latency() *core.ServerLatency { return w.lat }
