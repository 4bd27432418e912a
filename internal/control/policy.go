// Package control implements request-routing policies behind a single
// interface: the classic baselines (round robin, random, least connections,
// power-of-two-choices, static Maglev) and the paper's contribution — a
// latency-aware feedback controller that consumes the in-band estimator's
// samples and shifts a fixed fraction α of traffic away from the
// worst-latency server by re-weighting a Maglev table.
package control

import (
	"math/rand"
	"time"

	"inbandlb/internal/packet"
)

// Policy selects backends for new flows and, for feedback policies,
// consumes latency observations.
//
// Concurrency contract: implementations are single-threaded and need no
// internal locking. Callers guarantee that no two Policy methods run
// concurrently — the simulator calls policies from its one dataplane
// goroutine, and the live proxy wraps its policy in a Controller, which
// batches the parallel measurement path's samples into per-shard
// accumulators merged under one lock at control ticks, and serves routing
// from immutable snapshots. New callers with concurrent flows must wrap
// their policy in a Controller rather than make implementations lock
// internally.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// NumBackends returns the pool size.
	NumBackends() int
	// Pick selects a backend index for a new flow.
	Pick(key packet.FlowKey, now time.Duration) int
	// ObserveLatency feeds a latency sample attributed to backend b.
	// Policies that do not adapt ignore it.
	ObserveLatency(b int, now, sample time.Duration)
	// FlowClosed reports that a flow assigned to backend b ended.
	// Policies that do not track occupancy ignore it.
	FlowClosed(b int, now time.Duration)
}

// RoundRobin cycles through backends for successive new flows.
type RoundRobin struct {
	n    int
	next int
}

// NewRoundRobin creates a round-robin policy over n backends.
func NewRoundRobin(n int) *RoundRobin {
	if n <= 0 {
		panic("control: need at least one backend")
	}
	return &RoundRobin{n: n}
}

// Name implements Policy.
func (r *RoundRobin) Name() string { return "roundrobin" }

// NumBackends implements Policy.
func (r *RoundRobin) NumBackends() int { return r.n }

// Pick implements Policy.
func (r *RoundRobin) Pick(packet.FlowKey, time.Duration) int {
	b := r.next
	r.next = (r.next + 1) % r.n
	return b
}

// ObserveLatency implements Policy (ignored).
func (r *RoundRobin) ObserveLatency(int, time.Duration, time.Duration) {}

// FlowClosed implements Policy (ignored).
func (r *RoundRobin) FlowClosed(int, time.Duration) {}

// Random picks a uniformly random backend per new flow.
type Random struct {
	n   int
	rng *rand.Rand
}

// NewRandom creates a random policy; rng supplies determinism.
func NewRandom(n int, rng *rand.Rand) *Random {
	if n <= 0 {
		panic("control: need at least one backend")
	}
	return &Random{n: n, rng: rng}
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// NumBackends implements Policy.
func (r *Random) NumBackends() int { return r.n }

// Pick implements Policy.
func (r *Random) Pick(packet.FlowKey, time.Duration) int { return r.rng.Intn(r.n) }

// ObserveLatency implements Policy (ignored).
func (r *Random) ObserveLatency(int, time.Duration, time.Duration) {}

// FlowClosed implements Policy (ignored).
func (r *Random) FlowClosed(int, time.Duration) {}

// LeastConn picks the backend with the fewest active flows, breaking ties
// toward the lowest index.
type LeastConn struct {
	active []int
}

// NewLeastConn creates a least-connections policy over n backends.
func NewLeastConn(n int) *LeastConn {
	if n <= 0 {
		panic("control: need at least one backend")
	}
	return &LeastConn{active: make([]int, n)}
}

// Name implements Policy.
func (l *LeastConn) Name() string { return "leastconn" }

// NumBackends implements Policy.
func (l *LeastConn) NumBackends() int { return len(l.active) }

// Pick implements Policy.
func (l *LeastConn) Pick(packet.FlowKey, time.Duration) int {
	best := 0
	for i := 1; i < len(l.active); i++ {
		if l.active[i] < l.active[best] {
			best = i
		}
	}
	l.active[best]++
	return best
}

// ObserveLatency implements Policy (ignored).
func (l *LeastConn) ObserveLatency(int, time.Duration, time.Duration) {}

// FlowClosed implements Policy.
func (l *LeastConn) FlowClosed(b int, _ time.Duration) {
	if b >= 0 && b < len(l.active) && l.active[b] > 0 {
		l.active[b]--
	}
}

// Active returns the tracked active-flow count for backend b.
func (l *LeastConn) Active(b int) int { return l.active[b] }
