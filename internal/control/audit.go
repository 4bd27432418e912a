package control

import (
	"time"

	"inbandlb/internal/auditlog"
)

// Audit plumbing: every decision the controller makes — snapshot
// publishes, weight changes, detector transitions, manual flips, config
// reloads — is mirrored into the configured auditlog.Sink. Emission
// happens strictly off the data plane's hot path: all call sites already
// hold c.mu (tick merges, failure reports, SetEjected), and the sink
// contract makes Note a few stores into a preallocated slot. The scratch
// record c.arec lives on the controller so emitting allocates nothing.

// auditNoteLocked fills the scratch record and hands it to the sink.
// Caller holds c.mu.
func (c *Controller) auditNoteLocked(rec auditlog.Record) {
	if c.audit == nil {
		return
	}
	rec.At = c.lastNow
	rec.Gen = c.gen
	c.arec = rec
	c.audit.Note(&c.arec)
}

// auditTransition records one detector state change with its evidence.
// Caller holds c.mu: move for every state change, and the congestion
// latch and clear, which stay Healthy.
func (c *Controller) auditTransition(b int, from, to HealthState, cause auditlog.Cause, ev evidence) {
	if c.audit == nil {
		return
	}
	c.auditNoteLocked(auditlog.Record{
		Kind:    auditlog.KindTransition,
		Cause:   cause,
		From:    uint8(from),
		To:      uint8(to),
		Backend: int32(b),
		Healthy: int32(c.healthy),
		Fails:   int32(ev.fails),
		Mean:    ev.mean,
		Median:  ev.median,
		Retrans: ev.retrans, DupAcks: ev.dupAcks, ZeroWins: ev.zeroWins,
	})
}

// equalWeights reports exact equality — audit records a weight change on
// any bit-level difference, mirroring what the data plane will route on.
func equalWeights(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SetDetectorConfig replaces the passive detector's tuning at runtime —
// the admin endpoint's live reload. With the detector currently enabled,
// thresholds are swapped in place: per-backend state machines and the
// backoff-jitter RNG stream continue uninterrupted, so a reload never
// resets an in-flight recovery. Enabling from scratch builds a fresh
// detector; disabling drops it (backends return to manual-veto-only
// health, full admission). Returns false when the call was a no-op
// (disabling an already-disabled detector). Any admission change
// republishes the snapshot immediately, and the reload itself is
// recorded in the audit log.
func (c *Controller) SetDetectorConfig(cfg DetectorConfig) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case !cfg.Enabled:
		if c.det == nil {
			return false
		}
		c.det = nil
		c.dirty = true // the next snapshot stops counting routes
	case c.det == nil:
		c.det = newDetector(cfg, len(c.admit))
		c.dirty = true // the next snapshot counts routes into the new detector
		if c.medScratch == nil {
			c.medScratch = make([]time.Duration, 0, len(c.admit))
			c.medScratch2 = make([]time.Duration, 0, len(c.admit))
		}
	default:
		cfg.applyDefaults()
		c.det.cfg = cfg
	}
	c.auditNoteLocked(auditlog.Record{Kind: auditlog.KindConfigReload, Backend: -1,
		Healthy: int32(c.healthy)})
	c.refreshAdmitLocked()
	c.republishLocked()
	return true
}

// DetectorConfigView returns a copy of the live detector configuration
// (defaults applied) and whether passive detection is currently enabled.
func (c *Controller) DetectorConfigView() (DetectorConfig, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.det == nil {
		return DetectorConfig{}, false
	}
	return c.det.cfg, true
}
