package core

import (
	"time"

	"inbandlb/internal/packet"
)

// Observer is the measurement interface the dataplane drives: one call per
// client→server packet, returning a latency sample when one is produced.
// FlowTable (the paper's ensemble estimator) and HandshakeTable (the
// SYN-based baseline) both implement it.
type Observer interface {
	// Observe feeds one packet arrival for flow key at time now.
	Observe(key packet.FlowKey, now time.Duration) (time.Duration, bool)
	// Forget drops per-flow state (connection closed).
	Forget(key packet.FlowKey)
	// Sweep discards idle state, returning the number of flows removed.
	Sweep(now time.Duration) int
	// Len returns the tracked flow count.
	Len() int
}

var (
	_ Observer = (*FlowTable)(nil)
	_ Observer = (*HandshakeTable)(nil)
)

// HandshakeTable is the paper's "simple instantiation" of proxy
// measurement: the delay between a connection's first packet (the SYN) and
// its second (the first causally-triggered transmission after the
// handshake completes) estimates the round-trip time once, at connection
// start. It needs no timeout tuning — the handshake's packet pair is
// unambiguous — but produces exactly one sample per connection, so the
// signal is sparse and goes stale on long-lived connections.
type HandshakeTable struct {
	cfg   FlowTableConfig
	flows map[packet.FlowKey]*handshakeState
}

type handshakeState struct {
	openAt   time.Duration
	sampled  bool
	lastSeen time.Duration
}

// NewHandshakeTable creates an empty table. Only MaxFlows and IdleTimeout
// of the config apply.
func NewHandshakeTable(cfg FlowTableConfig) *HandshakeTable {
	if cfg.MaxFlows <= 0 {
		cfg.MaxFlows = 65536
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 10 * time.Second
	}
	return &HandshakeTable{
		cfg:   cfg,
		flows: make(map[packet.FlowKey]*handshakeState),
	}
}

// Observe implements Observer.
func (t *HandshakeTable) Observe(key packet.FlowKey, now time.Duration) (time.Duration, bool) {
	st, ok := t.flows[key]
	if !ok {
		if len(t.flows) >= t.cfg.MaxFlows {
			t.evictOldest()
		}
		t.flows[key] = &handshakeState{openAt: now, lastSeen: now}
		return 0, false
	}
	st.lastSeen = now
	if st.sampled {
		return 0, false
	}
	st.sampled = true
	return now - st.openAt, true
}

// Forget implements Observer.
func (t *HandshakeTable) Forget(key packet.FlowKey) { delete(t.flows, key) }

// Len implements Observer.
func (t *HandshakeTable) Len() int { return len(t.flows) }

// Sweep implements Observer.
func (t *HandshakeTable) Sweep(now time.Duration) int {
	cutoff := now - t.cfg.IdleTimeout
	n := 0
	for k, st := range t.flows {
		if st.lastSeen < cutoff {
			delete(t.flows, k)
			n++
		}
	}
	return n
}

// evictOldest removes the longest-idle flow, the smallest key among equally
// idle ones.
func (t *HandshakeTable) evictOldest() {
	var oldestKey packet.FlowKey
	var oldest time.Duration = -1
	found := false
	for k, st := range t.flows {
		if !found || st.lastSeen < oldest || st.lastSeen == oldest && flowKeyLess(k, oldestKey) {
			found = true
			oldest = st.lastSeen
			oldestKey = k
		}
	}
	if found {
		delete(t.flows, oldestKey)
	}
}
