package core

import (
	"time"

	"inbandlb/internal/packet"
)

// FlowTableConfig parameterizes per-flow estimator tracking.
type FlowTableConfig struct {
	// Ensemble configures the per-flow EnsembleTimeout estimators.
	Ensemble EnsembleConfig
	// MaxFlows bounds tracked flows; when full, the longest-idle flow is
	// evicted to admit a new one. Defaults to 65536.
	MaxFlows int
	// IdleTimeout lets Sweep discard flows with no packets for this long.
	// Defaults to 10 s.
	IdleTimeout time.Duration
}

// FlowTable maintains one EnsembleTimeout per tracked flow. It is the
// state a load balancer keeps to run the paper's measurement on every
// connection traversing it.
type FlowTable struct {
	cfg   FlowTableConfig
	flows map[packet.FlowKey]*flowEntry
	free  []*flowEntry // entries of dropped flows, estimators and all

	evictions uint64
	rejected  uint64
}

type flowEntry struct {
	est      *EnsembleTimeout
	lastSeen time.Duration
}

// NewFlowTable creates an empty table.
func NewFlowTable(cfg FlowTableConfig) (*FlowTable, error) {
	if err := cfg.Ensemble.applyDefaults(); err != nil {
		return nil, err
	}
	if cfg.MaxFlows <= 0 {
		cfg.MaxFlows = 65536
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 10 * time.Second
	}
	return &FlowTable{
		cfg:   cfg,
		flows: make(map[packet.FlowKey]*flowEntry),
	}, nil
}

// Observe feeds one packet arrival of flow key at time now into the flow's
// estimator, creating it on first sight, and returns the latency sample the
// estimator produced, if any.
func (t *FlowTable) Observe(key packet.FlowKey, now time.Duration) (time.Duration, bool) {
	e, ok := t.flows[key]
	if !ok {
		if len(t.flows) >= t.cfg.MaxFlows && !t.evictOldest() {
			t.rejected++
			return 0, false
		}
		e = t.newEntry()
		t.flows[key] = e
	}
	e.lastSeen = now
	return e.est.Observe(now)
}

// newEntry takes a dropped flow's entry, its estimator reset and its
// OnEpoch hook cleared, or builds one.
func (t *FlowTable) newEntry() *flowEntry {
	n := len(t.free)
	if n == 0 {
		return &flowEntry{est: MustEnsemble(t.cfg.Ensemble)}
	}
	e := t.free[n-1]
	t.free = t.free[:n-1]
	e.est.Reset()
	e.est.OnEpoch = nil
	return e
}

// drop removes a tracked flow and keeps its entry for reuse.
func (t *FlowTable) drop(key packet.FlowKey, e *flowEntry) {
	delete(t.flows, key)
	t.free = append(t.free, e)
}

// Estimator exposes the per-flow estimator for instrumentation (nil when
// the flow is not tracked). The pointer is the flow's only while the flow
// is tracked: once it is forgotten, swept or evicted, the table reuses the
// estimator for a later flow.
func (t *FlowTable) Estimator(key packet.FlowKey) *EnsembleTimeout {
	if e, ok := t.flows[key]; ok {
		return e.est
	}
	return nil
}

// Forget drops a flow (connection closed).
func (t *FlowTable) Forget(key packet.FlowKey) {
	if e, ok := t.flows[key]; ok {
		t.drop(key, e)
	}
}

// Len returns the number of tracked flows.
func (t *FlowTable) Len() int { return len(t.flows) }

// Evictions returns how many flows were evicted to admit new ones.
func (t *FlowTable) Evictions() uint64 { return t.evictions }

// Rejected returns how many new flows were refused because the table was
// full and nothing could be evicted.
func (t *FlowTable) Rejected() uint64 { return t.rejected }

// Sweep removes flows idle since before now - IdleTimeout and returns the
// number removed. Call it periodically (e.g. once per second).
func (t *FlowTable) Sweep(now time.Duration) int {
	cutoff := now - t.cfg.IdleTimeout
	n := 0
	for k, e := range t.flows {
		if e.lastSeen < cutoff {
			t.drop(k, e)
			n++
		}
	}
	return n
}

// evictOldest removes the longest-idle flow, the smallest key among equally
// idle ones; it reports false when the table is empty.
func (t *FlowTable) evictOldest() bool {
	var oldestKey packet.FlowKey
	var oldestEntry *flowEntry
	for k, e := range t.flows {
		if oldestEntry == nil || e.lastSeen < oldestEntry.lastSeen ||
			e.lastSeen == oldestEntry.lastSeen && k.Less(oldestKey) {
			oldestEntry, oldestKey = e, k
		}
	}
	if oldestEntry == nil {
		return false
	}
	t.drop(oldestKey, oldestEntry)
	t.evictions++
	return true
}
