// Package core implements the paper's primary contribution: in-band
// estimation of end-to-end response latency at a load balancer that
// observes only client→server traffic (direct server return), and the
// per-flow / per-server bookkeeping that turns raw packet timestamps into
// control signals.
//
// The key idea is the causally-triggered transmission: a flow-controlled
// client exhausts its quota of outstanding data and pauses until a response
// re-opens it, so the gap between the first packets of successive packet
// batches approximates the response latency. Algorithm 1 (FixedTimeout)
// separates batches with a fixed inter-batch timeout δ; Algorithm 2
// (EnsembleTimeout) runs an exponential ladder of timeouts and picks, each
// epoch, the timeout at the "sample cliff" — the largest drop in sample
// count between adjacent timeouts.
package core

import (
	"fmt"
	"time"
)

// FixedTimeout is Algorithm 1: it is fed the arrival timestamp of every
// packet of one flow and emits a response-latency sample whenever a new
// batch starts, i.e. whenever the gap since the previous packet exceeds the
// fixed timeout δ.
//
// The zero value is not usable; construct with NewFixedTimeout.
type FixedTimeout struct {
	delta     time.Duration
	lastPkt   time.Duration
	lastBatch time.Duration
	started   bool
}

// NewFixedTimeout creates an estimator with inter-batch timeout delta.
func NewFixedTimeout(delta time.Duration) *FixedTimeout {
	if delta <= 0 {
		panic("core: FixedTimeout delta must be positive")
	}
	return &FixedTimeout{delta: delta}
}

// Timeout returns δ.
func (f *FixedTimeout) Timeout() time.Duration { return f.delta }

// Observe processes one packet arrival at time now and returns a
// response-latency sample (T_LB) when this packet opens a new batch. The
// boolean is false when no sample is produced — the paper's "undef".
// Timestamps must be non-decreasing per flow.
func (f *FixedTimeout) Observe(now time.Duration) (time.Duration, bool) {
	if !f.started {
		f.started = true
		f.lastPkt = now
		f.lastBatch = now
		return 0, false
	}
	var sample time.Duration
	ok := false
	if now-f.lastPkt > f.delta {
		// New batch: the gap between batch heads is the latency estimate.
		sample = now - f.lastBatch
		ok = true
		f.lastBatch = now
	}
	f.lastPkt = now
	return sample, ok
}

// Reset clears the flow state (used when a connection is recycled).
func (f *FixedTimeout) Reset() {
	f.started = false
	f.lastPkt = 0
	f.lastBatch = 0
}

// defaultTimeouts is the shared immutable default ladder. Every flow's
// estimator used to materialize its own copy (one slice per connection);
// now configs left empty all alias this one, and nothing in this package
// ever writes through a config's Timeouts slice. Callers who want to
// mutate get their own copy from DefaultTimeouts.
var defaultTimeouts = func() []time.Duration {
	out := make([]time.Duration, 7)
	d := 64 * time.Microsecond
	for i := range out {
		out[i] = d
		d *= 2
	}
	return out
}()

// DefaultTimeouts is the paper's ladder: δ₁ = 64µs doubling up to δ₇ = 4096µs.
// The returned slice is the caller's to mutate (copy-on-read); estimators
// built with an empty Timeouts share one immutable default instead.
func DefaultTimeouts() []time.Duration {
	out := make([]time.Duration, len(defaultTimeouts))
	copy(out, defaultTimeouts)
	return out
}

// DefaultEpoch is the paper's sample-cliff epoch E = 64 ms.
const DefaultEpoch = 64 * time.Millisecond

// EnsembleConfig parameterizes Algorithm 2.
type EnsembleConfig struct {
	// Timeouts is the δ ladder, strictly increasing. Defaults to
	// DefaultTimeouts().
	Timeouts []time.Duration
	// Epoch is the cliff-detection interval E. Defaults to DefaultEpoch.
	Epoch time.Duration
}

func (c *EnsembleConfig) applyDefaults() error {
	if len(c.Timeouts) == 0 {
		c.Timeouts = defaultTimeouts
	}
	if len(c.Timeouts) < 2 {
		return fmt.Errorf("core: ensemble needs at least 2 timeouts, have %d", len(c.Timeouts))
	}
	for i := 1; i < len(c.Timeouts); i++ {
		if c.Timeouts[i] <= c.Timeouts[i-1] {
			return fmt.Errorf("core: ensemble timeouts must be strictly increasing (index %d)", i)
		}
	}
	if c.Timeouts[0] <= 0 {
		return fmt.Errorf("core: ensemble timeouts must be positive")
	}
	if c.Epoch == 0 {
		c.Epoch = DefaultEpoch
	}
	if c.Epoch < 0 {
		return fmt.Errorf("core: ensemble epoch must be positive")
	}
	return nil
}

// EnsembleTimeout is Algorithm 2: k FixedTimeout rungs sharing the packet
// stream of one flow, with per-epoch sample counting and cliff detection
// selecting the timeout whose samples are reported.
//
// The ladder is stored flat — parallel slices indexed by rung — rather
// than as k boxed *FixedTimeout objects. Because every rung observes the
// same packet stream, the per-rung lastPkt timestamps are always equal, so
// one shared lastPkt plus a per-rung batch-head slice (a LadderFlow) is the
// complete flow state. Observe walks lastBatch/counts sequentially
// (contiguous memory, no pointer chasing) and exits at the first rung whose
// δ exceeds the gap: the ladder is strictly increasing, so no later rung
// can fire either.
//
// Construct with NewEnsembleTimeout.
type EnsembleTimeout struct {
	cliff
	flow LadderFlow

	// OnEpoch, when set, observes each cliff decision: the epoch-end
	// time, per-timeout sample counts for the finished epoch, and the
	// chosen index. Experiment harnesses use it to plot Fig. 2(b).
	OnEpoch func(now time.Duration, counts []uint64, chosen int)
}

// LadderFlow is one flow's batch state on a timeout ladder: the last
// packet's arrival, shared by every rung, and each rung's batch head. An
// EnsembleTimeout holds one; with a SharedLadder, obtain one from
// SharedLadder.NewFlow per connection and discard it on close.
type LadderFlow struct {
	lastPkt   time.Duration
	lastBatch []time.Duration // per-rung batch-head timestamp
	started   bool
}

// cliff is Algorithm 2's sample-cliff selector over a timeout ladder: the
// per-rung sample counts of the running epoch, the rung the last epoch
// chose, and the epoch clock. An EnsembleTimeout runs one over its own
// flow; a SharedLadder runs one over every flow routed to a server.
type cliff struct {
	cfg     EnsembleConfig
	counts  []uint64 // per-rung samples this epoch
	current int      // index of δe, the timeout whose samples are emitted

	epochStart   time.Duration
	epochStarted bool
	epochs       uint64
}

func newCliff(cfg EnsembleConfig) (cliff, error) {
	if err := cfg.applyDefaults(); err != nil {
		return cliff{}, err
	}
	// Start from the smallest timeout: with no information yet it is the
	// only choice guaranteed to produce samples (a too-low δ oversamples,
	// a too-high δ can be silent forever), so even flows shorter than one
	// epoch — e.g. a closed-loop connection sending a hundred requests —
	// yield usable latency estimates. The first epoch's cliff corrects it.
	return cliff{cfg: cfg, counts: make([]uint64, len(cfg.Timeouts)), current: 0}, nil
}

// NewEnsembleTimeout creates the estimator for one flow.
func NewEnsembleTimeout(cfg EnsembleConfig) (*EnsembleTimeout, error) {
	c, err := newCliff(cfg)
	if err != nil {
		return nil, err
	}
	return &EnsembleTimeout{cliff: c, flow: c.newFlow()}, nil
}

// MustEnsemble is NewEnsembleTimeout for configurations known to be valid;
// it panics on error. Intended for defaults in tests and experiments.
func MustEnsemble(cfg EnsembleConfig) *EnsembleTimeout {
	e, err := NewEnsembleTimeout(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

func (c *cliff) newFlow() LadderFlow {
	return LadderFlow{lastBatch: make([]time.Duration, len(c.cfg.Timeouts))}
}

// CurrentTimeout returns δe, the timeout selected for the current epoch.
func (c *cliff) CurrentTimeout() time.Duration {
	return c.cfg.Timeouts[c.current]
}

// CurrentIndex returns the ladder index of δe.
func (c *cliff) CurrentIndex() int { return c.current }

// Epochs returns the number of completed epochs.
func (c *cliff) Epochs() uint64 { return c.epochs }

// Observe processes one packet arrival. It feeds all k ladder rungs,
// counts their samples for cliff detection, rotates the epoch when this
// packet is the first of a new one, and returns the sample produced by the
// currently selected timeout (ok=false when that timeout produced none for
// this packet).
func (e *EnsembleTimeout) Observe(now time.Duration) (time.Duration, bool) {
	return e.observe(&e.flow, now, e.OnEpoch)
}

// observe feeds one packet arrival of flow f to every rung. It rotates the
// epoch first when this packet is the first of a new one, reporting the
// decision to onEpoch, then counts each rung on which the packet opens a
// new batch and returns the selected rung's sample. Timestamps must be
// non-decreasing across every flow the cliff serves.
func (c *cliff) observe(f *LadderFlow, now time.Duration, onEpoch func(time.Duration, []uint64, int)) (time.Duration, bool) {
	if !c.epochStarted {
		c.epochStarted = true
		c.epochStart = now
	} else if now-c.epochStart >= c.cfg.Epoch {
		c.rotateEpoch(now, onEpoch)
	}

	if !f.started {
		f.started = true
		f.lastPkt = now
		for i := range f.lastBatch {
			f.lastBatch[i] = now
		}
		return 0, false
	}

	gap := now - f.lastPkt
	f.lastPkt = now
	var sample time.Duration
	ok := false
	for i, d := range c.cfg.Timeouts {
		if gap <= d {
			// Strictly increasing ladder: no later rung fires either. In
			// steady state (intra-batch packets) this exits at rung 0.
			break
		}
		// New batch on rung i: the gap between batch heads is rung i's
		// latency estimate.
		c.counts[i]++
		if i == c.current {
			sample = now - f.lastBatch[i]
			ok = true
		}
		f.lastBatch[i] = now
	}
	return sample, ok
}

// rotateEpoch performs the paper's sample-cliff detection (Alg. 2 line 8):
// pick m = argmax_i N_i / N_{i+1} over adjacent ladder entries. Zero
// denominators are smoothed to one so that a genuine cliff (many → zero)
// scores by its height, while a stray sample above an empty bucket
// (one → zero) cannot outrank a real drop such as 128 → 1. With no samples
// at all, the previous selection is retained. Ties break to the smallest
// timeout.
func (c *cliff) rotateEpoch(now time.Duration, onEpoch func(time.Duration, []uint64, int)) {
	c.epochs++
	bestIdx := -1
	bestRatio := 0.0
	for i := 0; i+1 < len(c.counts); i++ {
		ni, nj := c.counts[i], c.counts[i+1]
		if ni == 0 {
			continue
		}
		if nj == 0 {
			nj = 1
		}
		r := float64(ni) / float64(nj)
		if r > bestRatio {
			bestRatio = r
			bestIdx = i
		}
	}
	if bestIdx >= 0 {
		c.current = bestIdx
	}
	if onEpoch != nil {
		// Copy only when a hook is installed: the hook may retain the
		// slice, but hookless estimators (every proxy flow) must not pay
		// an allocation per epoch.
		counts := make([]uint64, len(c.counts))
		copy(counts, c.counts)
		onEpoch(now, counts, c.current)
	}
	clear(c.counts)
	c.epochStart = now
}

// Reset clears all flow and epoch state.
func (e *EnsembleTimeout) Reset() {
	e.flow.started = false
	e.flow.lastPkt = 0
	clear(e.flow.lastBatch)
	clear(e.counts)
	e.current = 0
	e.epochStarted = false
	e.epochs = 0
}
