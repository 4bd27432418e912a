package core

import "time"

// SharedLadder is a per-server variant of Algorithm 2, an extension beyond
// the paper: the timeout ladder's epoch counters and cliff selection are
// shared across all flows routed to one server, while each flow keeps only
// its lightweight batch state (one lastPkt plus one lastBatch per rung).
//
// Motivation: a per-flow EnsembleTimeout cannot adapt its δ until the flow
// survives a full epoch (64 ms). Connection-per-request and other
// short-lived flows die first and are stuck with the initial rung. Flows
// hitting the same server share the same RTT regime, so pooling their
// sample counts lets even 5 ms-lived flows benefit from a δ learned across
// the population.
type SharedLadder struct {
	cliff

	// OnEpoch mirrors EnsembleTimeout.OnEpoch.
	OnEpoch func(now time.Duration, counts []uint64, chosen int)
}

// NewSharedLadder creates the shared selector.
func NewSharedLadder(cfg EnsembleConfig) (*SharedLadder, error) {
	c, err := newCliff(cfg)
	if err != nil {
		return nil, err
	}
	return &SharedLadder{cliff: c}, nil
}

// MustSharedLadder panics on config error; for known-valid configurations.
func MustSharedLadder(cfg EnsembleConfig) *SharedLadder {
	s, err := NewSharedLadder(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewFlow allocates per-flow batch state.
func (s *SharedLadder) NewFlow() *LadderFlow {
	f := s.newFlow()
	return &f
}

// Observe processes one packet arrival of flow f at time now, sharing
// sample counting and epoch rotation across all flows. Packet timestamps
// must be non-decreasing overall (they are: the caller is a single LB).
func (s *SharedLadder) Observe(f *LadderFlow, now time.Duration) (time.Duration, bool) {
	return s.observe(f, now, s.OnEpoch)
}
