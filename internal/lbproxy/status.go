package lbproxy

import (
	"net/http"
	"runtime"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
)

// StatusSnapshot is the JSON document the admin surface serves at /status.
type StatusSnapshot struct {
	UptimeSeconds float64  `json:"uptime_seconds"`
	Policy        string   `json:"policy"`
	Backends      []string `json:"backends"`
	// TrackedFlows counts connections holding a live estimator.
	TrackedFlows int   `json:"tracked_flows"`
	Stats        Stats `json:"stats"`
	// Goroutines is a live runtime.NumGoroutine gauge. On Linux it stays
	// O(shards) regardless of connection count.
	Goroutines int `json:"goroutines"`
	// SnapshotGeneration counts routing-snapshot publications: 1 at
	// start-up, then one per table rebuild merged by a control tick and per
	// admission change, for every policy.
	SnapshotGeneration uint64 `json:"snapshot_generation"`
	// Weights is present for weight-based policies (latency-aware,
	// proportional); nil otherwise.
	Weights []float64 `json:"weights,omitempty"`
	// LatenciesMs is the per-backend EWMA latency in milliseconds for
	// policies that expose one; nil otherwise.
	LatenciesMs []float64 `json:"latencies_ms,omitempty"`
}

// latencied is implemented by policies that expose per-server latency
// aggregation (LatencyAware, Proportional).
type latencied interface {
	Latency() *core.ServerLatency
}

// Snapshot assembles the current status document.
func (p *Proxy) Snapshot() StatusSnapshot {
	snap := StatusSnapshot{
		UptimeSeconds:      time.Since(p.start).Seconds(),
		Policy:             p.cfg.Policy.Name(),
		Backends:           append([]string(nil), p.cfg.Backends...),
		TrackedFlows:       int(p.estimators.Load()),
		Stats:              p.Stats(),
		Goroutines:         runtime.NumGoroutine(),
		SnapshotGeneration: p.ctrl.Generation(),
	}
	// Policy state is read under the controller's serialization lock so the
	// snapshot cannot race a control tick.
	p.ctrl.Do(func(pol control.Policy) {
		if w, ok := pol.(control.Weighted); ok {
			snap.Weights = w.Weights()
		}
		if l, ok := pol.(latencied); ok {
			for _, d := range l.Latency().Snapshot() {
				snap.LatenciesMs = append(snap.LatenciesMs, float64(d)/1e6)
			}
		}
	})
	return snap
}

func (p *Proxy) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, p.Snapshot())
}
