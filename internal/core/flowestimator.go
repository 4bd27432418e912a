package core

import "time"

// EstimatorIdleReset is how long a flow may stay silent before its
// estimator starts over at the next packet: a gap that long says nothing
// about the backend's service time.
const EstimatorIdleReset = 10 * time.Second

// FlowEstimator is one connection's in-band estimator under the rule both
// dataplanes run: built at the flow's first packet, started over at a
// packet that follows more than EstimatorIdleReset of silence, and kept in
// the connection's own state (the live proxy's relay, the simulated LB's
// connection entry) rather than in a flow table, so nothing sweeps it. The
// zero value holds no estimator.
type FlowEstimator struct {
	est  *EnsembleTimeout // built at the first packet, kept across Reset
	last time.Duration    // arrival of the previous packet
	live bool             // a packet arrived since the last Reset
}

// Observe feeds one packet arrival at now and returns the latency sample
// the flow's estimator produced, if any.
func (f *FlowEstimator) Observe(now time.Duration) (time.Duration, bool) {
	switch {
	case f.est == nil:
		f.est = MustEnsemble(EnsembleConfig{})
	case !f.live || now-f.last > EstimatorIdleReset:
		f.est.Reset()
	}
	f.live = true
	f.last = now
	return f.est.Observe(now)
}

// Live reports whether a packet has arrived since construction or the last
// Reset.
func (f *FlowEstimator) Live() bool { return f.live }

// Reset ends the flow: the next packet is a first packet again. The
// estimator's memory is kept for that packet to reuse.
func (f *FlowEstimator) Reset() { f.live = false }
