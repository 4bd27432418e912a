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
	// half-open trial doubles it up to BackoffMax. BackoffJitter spreads
	// re-probe times by ±jitter fraction so many LBs (or many backends)
	// do not re-probe in lockstep. Defaults 500ms, 8s, 0.1.
	BackoffInitial time.Duration
	BackoffMax     time.Duration
	BackoffJitter  float64
	// HalfOpenFraction is the share of the backend's hash range admitted
	// while half-open — the trial traffic. Default 1/16.
	HalfOpenFraction float64
	// HalfOpenTicks bounds a trial: if no success arrives within this many
	// ticks of entering half-open, the backend re-ejects with doubled
	// backoff (covers both "trials failed silently" and "no trial traffic
	// landed"). Default 150.
	HalfOpenTicks int
	// SuccessThreshold promotes a half-open backend to slow-start after
	// this many successes (reported dial successes, or ticks that merged
	// samples from it). Default 1.
	SuccessThreshold int
	// SlowStartInitial and SlowStartTicks shape recovery: admission starts
	// at SlowStartInitial of the full share and ramps linearly to full
	// over SlowStartTicks control ticks. Defaults 0.25 and 50.
	SlowStartInitial float64
	SlowStartTicks   int
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
	// weight-down (admission cut to CongestionAdmit); twice that many eject
	// the backend outright. Default 4.
	CongestionTicks int
	// CongestionFactor requires the distress to be *concentrated*: the
	// backend's per-tick event count must be at least this factor times the
	// mean of the other backends' counts. Pool-wide congestion (an incast
	// wave hitting everyone, a collapsed shared uplink) therefore never
	// ejects anyone — there is nowhere better to shift the load. Default 4.
	CongestionFactor float64
	// CongestionAdmit is the admission fraction applied while the
	// weight-down latch is set. Default 0.5.
	CongestionAdmit float64
	// CongestionClear is how many consecutive calm ticks (events below
	// CongestionPerTick) release the weight-down latch. Default
	// 2×CongestionTicks.
	CongestionClear int
	// Seed feeds the backoff-jitter RNG so simulations are deterministic.
	Seed int64
}

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
	if c.BackoffJitter < 0 || c.BackoffJitter >= 1 {
		c.BackoffJitter = 0.1
	}
	if c.HalfOpenFraction <= 0 || c.HalfOpenFraction > 1 {
		c.HalfOpenFraction = 1.0 / 16
	}
	if c.HalfOpenTicks <= 0 {
		c.HalfOpenTicks = 150
	}
	if c.SuccessThreshold <= 0 {
		c.SuccessThreshold = 1
	}
	if c.SlowStartInitial <= 0 || c.SlowStartInitial > 1 {
		c.SlowStartInitial = 0.25
	}
	if c.SlowStartTicks <= 0 {
		c.SlowStartTicks = 50
	}
	if c.CongestionPerTick > 0 {
		if c.CongestionTicks <= 0 {
			c.CongestionTicks = 4
		}
		if c.CongestionFactor <= 1 {
			c.CongestionFactor = 4
		}
		if c.CongestionAdmit <= 0 || c.CongestionAdmit > 1 {
			c.CongestionAdmit = 0.5
		}
		if c.CongestionClear <= 0 {
			c.CongestionClear = 2 * c.CongestionTicks
		}
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
	successes         int           // successes while half-open
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
	rng *rand.Rand
	st  []detectorState
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
		lo := d.cfg.SlowStartInitial
		frac := lo + (1-lo)*float64(h.rampTick)/float64(d.cfg.SlowStartTicks)
		return fracToAdmit(frac)
	}
	if h.congested {
		// Congestion weight-down: still healthy, still routable, but shed a
		// slice of the hash range so the distressed backend drains instead
		// of accumulating a deeper retransmit queue.
		return fracToAdmit(d.cfg.CongestionAdmit)
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
		h.state, h.trialTicks, h.successes = HalfOpen, 0, 0
	case SlowStart:
		h.state, h.rampTick, h.trialTicks, h.successes, h.consecFails = SlowStart, 0, 0, 0, 0
	case Healthy:
		// Full health resets the backoff ladder. Only the lifetime counters
		// and routes not yet answered carry over.
		*h = detectorState{everSampled: h.everSampled, routedSinceSample: h.routedSinceSample,
			ejections: h.ejections, congEjections: h.congEjections}
	}
	c.auditTransition(b, from, to, cause, ev)
}

func (d *detector) jittered(base time.Duration) time.Duration {
	if d.cfg.BackoffJitter == 0 {
		return base
	}
	span := 2*d.rng.Float64() - 1 // [-1, 1)
	return base + time.Duration(span*d.cfg.BackoffJitter*float64(base))
}
