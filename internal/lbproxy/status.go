package lbproxy

import (
	"encoding/json"
	"net/http"
	"runtime"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
)

// StatusSnapshot is the JSON document served by the status handler.
type StatusSnapshot struct {
	UptimeSeconds float64  `json:"uptime_seconds"`
	Policy        string   `json:"policy"`
	Backends      []string `json:"backends"`
	// FlowTableShards is the measurement path's lock-stripe width;
	// TrackedFlows the current flow-table population.
	FlowTableShards int   `json:"flow_table_shards"`
	TrackedFlows    int   `json:"tracked_flows"`
	Stats           Stats `json:"stats"`
	// Dataplane is the relay new connections run on ("netpoll" or
	// "goroutine"); DataplaneFallback says why it is not the event relay.
	Dataplane         string `json:"dataplane"`
	DataplaneFallback string `json:"dataplane_fallback,omitempty"`
	// Goroutines is a live runtime.NumGoroutine gauge. Under the netpoll
	// dataplane it stays O(shards) regardless of connection count; on the
	// goroutine-per-connection path it tracks 2x the active relays.
	Goroutines int `json:"goroutines"`
	// SnapshotGeneration counts routing-snapshot publications (table
	// rebuilds merged by control ticks plus health-eject flips); zero for
	// stateful policies that route under the mutex instead of a snapshot.
	SnapshotGeneration uint64 `json:"snapshot_generation"`
	// Weights is present for weight-based policies (latency-aware,
	// proportional); nil otherwise.
	Weights []float64 `json:"weights,omitempty"`
	// LatenciesMs is the per-backend EWMA latency in milliseconds for
	// policies that expose one; nil otherwise.
	LatenciesMs []float64 `json:"latencies_ms,omitempty"`
}

// weighted is implemented by policies that expose a weight vector.
type weighted interface {
	Weights() []float64
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
		FlowTableShards:    p.flows.Shards(),
		TrackedFlows:       p.flows.Len(),
		Stats:              p.Stats(),
		Goroutines:         runtime.NumGoroutine(),
		SnapshotGeneration: p.ctrl.Generation(),
	}
	snap.Dataplane, snap.DataplaneFallback = p.Dataplane()
	// Policy state is read under the controller's serialization lock so the
	// snapshot cannot race a control tick.
	p.ctrl.Do(func(pol control.Policy) {
		if w, ok := pol.(weighted); ok {
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

// StatusHandler serves the proxy's live state as JSON — weights, per-backend
// latencies, health, and counters — for dashboards and debugging.
func (p *Proxy) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p.Snapshot())
	})
}
