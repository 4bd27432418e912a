package control

import (
	"math/rand"
	"sync/atomic"
	"time"

	"inbandlb/internal/auditlog"
)

// HealthState is one backend's position in the failure-detection state
// machine:
//
//	Healthy ──(consecutive failures | latency outlier | sample
//	           starvation)──▶ Ejected ──(backoff expires)──▶ HalfOpen
//	HalfOpen ──(trial succeeds)──▶ SlowStart ──(ramp completes)──▶ Healthy
//	HalfOpen / SlowStart ──(failure)──▶ Ejected (backoff doubled)
//
// Every transition republishes the routing Snapshot (an RCU republish), so
// the data plane's Pick/Route stay lock-free and allocation-free: ejection
// is admit-fraction 0, half-open a sliver of the hash space, slow-start a
// ramp back to full admission.
type HealthState uint8

const (
	// Healthy backends receive their full table share.
	Healthy HealthState = iota
	// Ejected backends receive nothing; a backoff timer arms re-probing.
	Ejected
	// HalfOpen backends receive a small trial fraction of their hash
	// range; the first in-band success promotes, any failure re-ejects
	// with doubled backoff.
	HalfOpen
	// SlowStart backends ramp linearly back to full admission so
	// re-admission cannot re-overload a barely recovered server.
	SlowStart
)

// String names the state for status endpoints and logs.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Ejected:
		return "ejected"
	case HalfOpen:
		return "half-open"
	case SlowStart:
		return "slow-start"
	}
	return "unknown"
}

// DetectorConfig parameterizes passive, in-band failure detection inside a
// Controller. The signals are the ones the data plane already produces —
// dial errors and relay resets reported by the proxy, and per-backend
// latency aggregates merged each control tick — so detection reacts at
// connection/tick granularity instead of probe granularity. Active probes
// (the proxy's HealthInterval) remain available as a slow backstop via
// SetEjected.
type DetectorConfig struct {
	// Enabled turns passive detection on. Off (the zero value) preserves
	// the legacy behavior exactly: SetEjected flips are instantaneous and
	// no admission ramping ever happens.
	Enabled bool
	// FailureThreshold ejects a backend after this many consecutive
	// connection failures (dial errors, relay resets) with no intervening
	// success. Default 3.
	FailureThreshold int
	// OutlierFactor and OutlierTicks drive the latency-outlier detector: a
	// backend whose per-tick mean exceeds OutlierFactor × the pool median
	// for OutlierTicks consecutive ticks is ejected. Defaults 8 and 10.
	OutlierFactor float64
	OutlierTicks  int
	// StarvationTicks ejects a backend that produced zero samples for this
	// many consecutive ticks while the rest of the pool produced at least
	// MinPoolSamples per tick and Route sent it a flow since its last
	// sample — the blackhole signature: flows are routed there but nothing
	// ever comes back through the estimator. Only backends that have
	// produced samples before are eligible, so an idle-from-birth backend
	// is never starved out. Default 25.
	StarvationTicks int
	// MinPoolSamples gates the tick-granularity detectors: outlier and
	// starvation judgments require at least this many pool-wide samples in
	// the tick, so an idle system never ejects anyone. Default 8.
	MinPoolSamples int64
	// BackoffInitial is the first ejection's re-probe delay; every failed
	// half-open trial doubles it up to BackoffMax. Defaults 500ms and 8s.
	BackoffInitial time.Duration
	BackoffMax     time.Duration
	// HalfOpenFraction is the share of the backend's hash range admitted
	// while half-open — the trial traffic. Default 1/16.
	HalfOpenFraction float64
	// HalfOpenTicks bounds a trial: if no success arrives within this many
	// ticks of entering half-open, the backend re-ejects with doubled
	// backoff (covers both "trials failed silently" and "no trial traffic
	// landed"). The first success — a reported dial success, or a tick
	// that merged in-family samples from it — promotes it to slow-start.
	// Default 150.
	HalfOpenTicks int
	// SlowStartTicks shapes recovery: admission starts at slowStartInitial
	// of the full share and ramps linearly to full over this many control
	// ticks. Default 50.
	SlowStartTicks int
	// CongestionPerTick enables the transport-distress detector: a tick in
	// which a backend accumulates at least this many congestion events
	// (retransmissions + dup-ACK runs + zero-window stalls, reported via
	// ObserveCongestion) counts as a congested tick for that backend. The
	// zero value disables the congestion path entirely — the legacy detector
	// behavior is preserved bit for bit. Congestion is an earlier signal
	// than the latency-outlier detector: retransmits and closed windows
	// appear while the response-latency median is still intact, so a
	// congested backend is weighted down (and then ejected) before its
	// queue buildup ever moves client-visible latency.
	CongestionPerTick int64
	// CongestionTicks is how many consecutive congested ticks latch the
	// weight-down (admission cut to congestionAdmit); twice that many eject
	// the backend outright, and twice that many consecutive calm ticks
	// (events below CongestionPerTick) release the latch. A hot tick's
	// distress must also be *concentrated*: at least congestionFactor times
	// the mean of the other backends' counts, so pool-wide congestion (an
	// incast wave hitting everyone, a collapsed shared uplink) never ejects
	// anyone — there is nowhere better to shift the load. Default 4.
	CongestionTicks int
	// Seed feeds the backoff-jitter RNG so simulations are deterministic.
	Seed int64
}

// Detector constants that no deployment tunes.
const (
	slowStartInitial = 0.25 // admission fraction a slow-start ramp begins at
	congestionFactor = 4    // a hot tick's events over the others' mean: distress must be concentrated
	congestionAdmit  = 0.5  // admission fraction while the congestion weight-down latch is set
)

func (c *DetectorConfig) applyDefaults() {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.OutlierFactor <= 1 {
		c.OutlierFactor = 8
	}
	if c.OutlierTicks <= 0 {
		c.OutlierTicks = 10
	}
	if c.StarvationTicks <= 0 {
		c.StarvationTicks = 25
	}
	if c.MinPoolSamples <= 0 {
		c.MinPoolSamples = 8
	}
	if c.BackoffInitial <= 0 {
		c.BackoffInitial = 500 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 8 * time.Second
	}
	if c.HalfOpenFraction <= 0 || c.HalfOpenFraction > 1 {
		c.HalfOpenFraction = 1.0 / 16
	}
	if c.HalfOpenTicks <= 0 {
		c.HalfOpenTicks = 150
	}
	if c.SlowStartTicks <= 0 {
		c.SlowStartTicks = 50
	}
	if c.CongestionPerTick > 0 && c.CongestionTicks <= 0 {
		c.CongestionTicks = 4
	}
}

// admitFull is the admission denominator: a backend's admit fraction is
// admit/admitFull of its hash range. Full admission compares the top 16
// hash bits (decorrelated from the Maglev index, which is hash mod a prime
// over the low-entropy-mixed whole word) against admit.
const admitFull = 1 << 16

// detectorState is one backend's detector state, guarded by Controller.mu.
// Only Controller.move changes its state or resets it.
type detectorState struct {
	state             HealthState
	consecFails       int           // consecutive reported connection failures
	outlierTicks      int           // consecutive latency-outlier ticks
	silentTicks       int           // consecutive sampleless ticks (pool active)
	routedSinceSample uint32        // flows routed here since the last merged sample
	everSampled       bool          // starvation eligibility
	backoff           time.Duration // current re-probe backoff
	reopenAt          time.Duration // when the ejected backend turns half-open
	trialTicks        int           // ticks spent in half-open
	rampTick          int           // ticks spent in slow-start
	congTicks         int           // consecutive congestion-hot ticks
	calmTicks         int           // consecutive calm ticks while latched
	congested         bool          // congestion weight-down latch (Healthy only)
	ejections         uint64        // cumulative passive ejections
	congEjections     uint64        // ejections driven by the congestion detector
}

// detector is the passive failure-detection plane of a Controller. All
// methods are called with Controller.mu held.
type detector struct {
	cfg DetectorConfig
	// jitter spreads re-probe times by ± this fraction of the backoff,
	// drawn from rng (seeded by DetectorConfig.Seed). It is 0 — exact
	// reopen times — as every deployment has run it; tests set it.
	jitter float64
	rng    *rand.Rand
	st     []detectorState
	// routed counts the flows Route and FailoverTarget sent each backend
	// since the last tick, lock-free via the snapshots that share it.
	routed []atomic.Uint32
}

func newDetector(cfg DetectorConfig, backends int) *detector {
	cfg.applyDefaults()
	return &detector{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		st:     make([]detectorState, backends),
		routed: make([]atomic.Uint32, backends),
	}
}

// countRoute records one new flow sent to backend b; a no-op on nil routed.
func countRoute(routed []atomic.Uint32, b int) {
	if b >= 0 && b < len(routed) {
		routed[b].Add(1)
	}
}

// admit returns backend b's current admission fraction in [0, admitFull].
func (d *detector) admit(b int) uint32 {
	h := &d.st[b]
	switch h.state {
	case Ejected:
		return 0
	case HalfOpen:
		return fracToAdmit(d.cfg.HalfOpenFraction)
	case SlowStart:
		frac := slowStartInitial + (1-slowStartInitial)*float64(h.rampTick)/float64(d.cfg.SlowStartTicks)
		return fracToAdmit(frac)
	}
	if h.congested {
		// Congestion weight-down: still healthy, still routable, but shed a
		// slice of the hash range so the distressed backend drains instead
		// of accumulating a deeper retransmit queue.
		return fracToAdmit(congestionAdmit)
	}
	return admitFull
}

// congestionEnabled reports whether the transport-distress path is active.
func (d *detector) congestionEnabled() bool { return d.cfg.CongestionPerTick > 0 }

func fracToAdmit(f float64) uint32 {
	if f >= 1 {
		return admitFull
	}
	a := uint32(f * admitFull)
	if a == 0 {
		a = 1 // a half-open backend must see *some* trial traffic
	}
	return a
}

// evidence is what a detector transition is audited with.
type evidence struct {
	fails                      int           // streak that tripped the transition
	mean, median               time.Duration // the backend's tick statistic and its yardstick
	retrans, dupAcks, zeroWins int64         // this tick's congestion events
}

// move is the detector's one transition function: the only code that
// changes a backend's state. It vetoes an ejection from Healthy that would
// leave no routable backend, doubles the backoff — capped at BackoffMax —
// when a recovery attempt (HalfOpen, SlowStart) fails, applies the resets
// the new state needs, and audits the change with its cause and evidence.
// Caller holds c.mu; the detector is enabled.
func (c *Controller) move(b int, to HealthState, cause auditlog.Cause, now time.Duration, ev evidence) {
	d := c.det
	h := &d.st[b]
	from := h.state
	switch to {
	case Ejected:
		if from == Healthy && !c.othersRoutableLocked(b) {
			return
		}
		backoff := h.backoff
		if from == HalfOpen || from == SlowStart {
			backoff = min(2*backoff, d.cfg.BackoffMax)
		}
		if backoff == 0 {
			backoff = d.cfg.BackoffInitial
		}
		congEjections := h.congEjections
		if cause == auditlog.CauseCongestion {
			congEjections++
		}
		// Every streak, latch and piece of evidence starts over.
		*h = detectorState{state: Ejected, backoff: backoff, reopenAt: now + d.jittered(backoff),
			everSampled: h.everSampled, ejections: h.ejections + 1, congEjections: congEjections}
	case HalfOpen:
		h.state, h.trialTicks = HalfOpen, 0
	case SlowStart:
		h.state, h.rampTick, h.trialTicks, h.consecFails = SlowStart, 0, 0, 0
	case Healthy:
		// Full health resets the backoff ladder. Only the lifetime counters
		// and routes not yet answered carry over.
		*h = detectorState{everSampled: h.everSampled, routedSinceSample: h.routedSinceSample,
			ejections: h.ejections, congEjections: h.congEjections}
	}
	c.auditTransition(b, from, to, cause, ev)
}

func (d *detector) jittered(base time.Duration) time.Duration {
	if d.jitter == 0 {
		return base
	}
	span := 2*d.rng.Float64() - 1 // [-1, 1)
	return base + time.Duration(span*d.jitter*float64(base))
}
