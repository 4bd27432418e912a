package control

import (
	"sync"
	"sync/atomic"
	"time"

	"inbandlb/internal/auditlog"
	"inbandlb/internal/packet"
)

// Weighted is implemented by policies that expose a weight vector
// (LatencyAware, Proportional); Controllers copy it into Snapshots.
type Weighted interface {
	Weights() []float64
}

// ControllerConfig parameterizes a Controller.
type ControllerConfig struct {
	// Shards is the sample-aggregator stripe count, rounded up to a power
	// of two. Zero defaults to runtime.GOMAXPROCS(0). Give each dataplane
	// thread its own stripe (the live proxy passes one per event-loop
	// shard) so threads do not contend on one stripe's lock.
	Shards int
	// Interval is the control tick period used by Start: how often queued
	// samples are merged into the policy and the routing snapshot is
	// republished. It bounds snapshot staleness. Zero defaults to 2 ms.
	Interval time.Duration
	// Now supplies the controller clock for background ticks (the proxy
	// passes its monotonic since-start clock so sample timestamps and tick
	// timestamps share a timebase). Nil defaults to time-since-creation.
	// Drivers that call Tick directly (the simulator) never use it.
	Now func() time.Duration
	// Detector configures passive, in-band failure detection. The zero
	// value disables it, preserving the legacy behavior: SetEjected is the
	// only health input and flips take effect instantly and fully.
	Detector DetectorConfig
	// Audit receives every control decision — snapshot publishes, weight
	// changes, detector transitions with their evidence, manual flips,
	// config reloads. Notes are issued under the controller's lock into the
	// controller's own scratch record, so the sink must copy and return
	// (auditlog.Log and auditlog.SyncWriter both do). Nil disables
	// auditing at zero cost.
	Audit auditlog.Sink
}

// Controller splits the data plane from the control plane around a
// single-threaded Policy:
//
//   - The data plane routes via an immutable Snapshot loaded from an
//     atomic.Pointer: Pick and Route are pure reads — no mutex, no
//     channel, zero allocations — when the policy is a TableSource.
//     Policies with per-pick state (RoundRobin, LeastConn, P2C) publish no
//     snapshot and fall back to a mutex around the policy.
//   - Latency samples are folded into per-shard, cache-line-padded
//     accumulators (see aggregator) — shard-local work, never a global
//     lock, never a channel send, and lossless: nothing is dropped under
//     load.
//   - The control plane is the tick: every Interval the Controller merges
//     all shards into the policy (one ObserveLatency per non-empty
//     shard×backend cell, carrying the batch mean at the newest sample's
//     timestamp), then republishes the snapshot if the policy replaced
//     its table. Routing therefore lags policy state by at most one
//     control interval — the staleness bound DESIGN.md documents.
//   - Health is two stacked layers. SetEjected is the manual/probe layer:
//     a boolean veto, as before. The optional passive detector layer
//     (ControllerConfig.Detector) consumes in-band signals — reported
//     dial/relay failures between ticks, per-backend latency aggregates
//     at each tick — and drives the healthy → ejected → half-open →
//     slow-start state machine, expressed to the data plane purely as
//     per-backend admission fractions in the published Snapshot.
//
// Controller implements Policy, so it drops in anywhere a Policy does. The
// wrapped policy never sees concurrent calls, exactly as the Policy
// contract promises. FlowClosed and non-snapshot Picks are applied
// synchronously under the internal mutex (they are per-connection, not
// per-packet).
type Controller struct {
	policy Policy
	src    TableSource // nil when the policy keeps no immutable table
	cfg    ControllerConfig

	mu          sync.Mutex // serializes every call into policy
	agg         *aggregator
	scratch     []sampleCell // drain buffer, reused every tick
	lastMerge   []TickStat   // per-backend summary of the newest tick
	congTotal   []uint64     // cumulative congestion events per backend
	congSeen    bool         // any congestion event ever merged
	manual      []bool       // SetEjected layer (probe / operator vetoes)
	det         *detector    // passive layer; nil when disabled
	medScratch  []time.Duration
	medScratch2 []time.Duration // others-median rebuilds for recovery states
	admit       []uint32        // combined admission view (manual ∧ detector)
	healthy     int             // backends with admit > 0
	dirty       bool
	gen         uint64
	audit       auditlog.Sink   // decision log; nil when disabled
	arec        auditlog.Record // scratch record — emitting never allocates
	lastNow     time.Duration   // controller clock at the newest mutation
	lastWeights []float64       // last audited weight vector

	snap      atomic.Pointer[Snapshot]
	delivered atomic.Uint64

	start     time.Time
	startOnce sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
	running   bool
}

// TickStat summarizes the samples merged for one backend during the most
// recent tick. Count is zero for backends with no samples that tick. The
// congestion counters are transport-distress events reported between ticks
// via ObserveCongestion; they are independent of Count — a backend can be
// congestion-hot in a tick that merged no latency samples.
type TickStat struct {
	Count    int64
	Mean     time.Duration
	Min, Max time.Duration
	Last     time.Duration // arrival time of the newest merged sample
	Retrans  int64         // retransmissions observed this tick
	DupAcks  int64         // dup-ACK runs observed this tick
	ZeroWins int64         // zero-window stalls observed this tick
}

// NewController wraps policy. The returned controller has an up-to-date
// snapshot published (when the policy is a TableSource) and is ready for
// concurrent use; call Start to run the background tick loop, or drive
// Tick directly from a single-threaded event loop.
func NewController(policy Policy, cfg ControllerConfig) *Controller {
	if policy == nil {
		panic("control: controller needs a policy")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Millisecond
	}
	n := policy.NumBackends()
	c := &Controller{
		policy:    policy,
		cfg:       cfg,
		agg:       newAggregator(cfg.Shards, n),
		scratch:   make([]sampleCell, n),
		lastMerge: make([]TickStat, n),
		congTotal: make([]uint64, n),
		manual:    make([]bool, n),
		admit:     make([]uint32, n),
		healthy:   n,
		start:     time.Now(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for i := range c.admit {
		c.admit[i] = admitFull
	}
	if cfg.Detector.Enabled {
		c.det = newDetector(cfg.Detector, n)
		c.medScratch = make([]time.Duration, 0, n)
		c.medScratch2 = make([]time.Duration, 0, n)
	}
	if cfg.Audit != nil {
		// Armed before the initial republish below, so generation 1 — the
		// construction-time snapshot — is the log's first record.
		c.audit = cfg.Audit
		c.lastWeights = make([]float64, 0, n)
	}
	if cfg.Now == nil {
		c.cfg.Now = func() time.Duration { return time.Since(c.start) }
	}
	c.src, _ = policy.(TableSource)
	c.mu.Lock()
	c.republishLocked()
	c.mu.Unlock()
	return c
}

// Name implements Policy.
func (c *Controller) Name() string { return c.policy.Name() }

// NumBackends implements Policy.
func (c *Controller) NumBackends() int { return c.policy.NumBackends() }

// Pick implements Policy. For TableSource policies it is a pure read on
// the current snapshot — lock-free and allocation-free; otherwise the
// policy is consulted under the mutex. Health ejection is Route's job, not
// Pick's: Pick preserves the Policy contract exactly.
func (c *Controller) Pick(key packet.FlowKey, now time.Duration) int {
	if s := c.snap.Load(); s != nil {
		return s.table.Lookup(key.Hash())
	}
	c.mu.Lock()
	b := c.policy.Pick(key, now)
	c.mu.Unlock()
	return b
}

// Route picks an admitted backend for a new flow, applying health state.
// On the snapshot path this is lock-free. On the mutex path (stateful
// policies) a pick that lands on a non-admitting backend is re-pointed to
// the next admitted index and the original pick's occupancy accounting is
// undone via FlowClosed, so per-backend counters do not leak. The fallback
// target is never charged. Returns -1 when the whole pool is ejected (any
// charged pick is undone first).
func (c *Controller) Route(key packet.FlowKey, now time.Duration) (backend int, fellBack bool) {
	return c.RouteHashed(key.Hash(), key, now)
}

// RouteHashed is Route for callers that already computed key.Hash().
// hash must equal key.Hash().
func (c *Controller) RouteHashed(hash uint64, key packet.FlowKey, now time.Duration) (backend int, fellBack bool) {
	if s := c.snap.Load(); s != nil {
		return s.RouteHash(hash)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.policy.Pick(key, now)
	if b < 0 || b >= len(c.admit) {
		return -1, false
	}
	if admits(c.admit[b], hash) {
		return b, false
	}
	orig := b
	c.policy.FlowClosed(orig, now) // undo the pick's occupancy accounting
	if c.healthy == 0 {
		return -1, false
	}
	if cand := nextAdmitted(c.admit, orig); cand >= 0 {
		return cand, true
	}
	if c.admit[orig] > 0 { // only admitted backend is the partial pick
		return orig, false
	}
	return -1, false
}

// FailoverTarget returns an alternative backend for a connection whose
// dial to skip just failed: the next admitted backend, preferring fully
// admitted ones. It never consults or charges the policy — the caller owns
// occupancy accounting for the retry. Returns -1 when no alternative
// exists. Lock-free on the snapshot path.
func (c *Controller) FailoverTarget(skip int) int {
	if s := c.snap.Load(); s != nil {
		return s.NextHealthy(skip)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return nextAdmitted(c.admit, skip)
}

// ObserveLatency implements Policy: the sample is folded into a shard
// accumulator and applied to the policy at the next Tick. Callers that
// know their flow hash should prefer ObserveSharded, which keeps each
// dataplane thread on its own stripe; this variant derives a stripe from
// the timestamp, which is correct but spreads one caller across stripes.
func (c *Controller) ObserveLatency(b int, now, sample time.Duration) {
	c.agg.observe(uint64(now)*0x9e3779b97f4a7c15, b, now, sample)
}

// ObserveSharded folds a latency sample into the aggregation stripe that
// hash selects (modulo the stripe count) — the proxy passes its event-loop
// shard's index, so each loop's per-read path touches one stripe's cache
// lines. Never blocks, never allocates, never drops.
func (c *Controller) ObserveSharded(hash uint64, b int, now, sample time.Duration) {
	c.agg.observe(hash, b, now, sample)
}

// ObserveCongestion folds transport-distress event counts for backend b into
// the aggregation stripe selected by hash — the same stripe the flow's
// latency samples use, so the congestion path never touches new cache lines.
// retrans/dupAcks/zeroWins are event counts since the caller's last report
// (the simulator reports per-packet 0/1 deltas, the live proxy reports
// TCP_INFO counter deltas per sampling pass). Merged at the next Tick into
// TickStat and, when the detector's congestion path is enabled, judged
// against the pool for early weight-down and ejection. Never blocks, never
// allocates, never drops.
func (c *Controller) ObserveCongestion(hash uint64, b int, retrans, dupAcks, zeroWins int) {
	if retrans <= 0 && dupAcks <= 0 && zeroWins <= 0 {
		return
	}
	if b < 0 || b >= len(c.lastMerge) {
		return
	}
	c.agg.observeCongestion(hash, b, int64(retrans), int64(dupAcks), int64(zeroWins))
}

// FlowClosed implements Policy, serialized with ticks.
func (c *Controller) FlowClosed(b int, now time.Duration) {
	c.mu.Lock()
	c.policy.FlowClosed(b, now)
	c.mu.Unlock()
}

// ReportDialError feeds the passive detector one connection-establishment
// failure against backend b at time now. Consecutive failures (with no
// intervening success) past the configured threshold eject the backend; a
// failure during a half-open trial or slow-start ramp re-ejects it with
// doubled backoff. No-op when the detector is disabled. Any resulting
// health transition republishes the snapshot immediately.
func (c *Controller) ReportDialError(b int, now time.Duration) {
	c.reportFailure(b, now)
}

// ReportRelayError feeds the passive detector one mid-stream connection
// failure (relay reset) against backend b. Same thresholds and transitions
// as ReportDialError — a reset stream and a refused dial are the same
// in-band evidence.
func (c *Controller) ReportRelayError(b int, now time.Duration) {
	c.reportFailure(b, now)
}

func (c *Controller) reportFailure(b int, now time.Duration) {
	if c.det == nil {
		return
	}
	c.mu.Lock()
	c.lastNow = now
	c.det.sawDials = true
	if b >= 0 && b < len(c.det.st) {
		h := &c.det.st[b]
		switch h.state {
		case Healthy, SlowStart:
			h.consecFails++
			if h.consecFails >= c.det.cfg.FailureThreshold {
				prev, fails := h.state, h.consecFails
				if h.state == SlowStart {
					c.det.reEject(b, now)
				} else {
					c.det.eject(b, now, c.othersRoutableLocked(b))
				}
				if h.state != prev { // ejection can be vetoed (last routable backend)
					c.auditTransition(b, prev, h.state, auditlog.CauseFailures, fails, 0, 0, 0, 0, 0)
				}
			}
		case HalfOpen:
			// A failed trial: one strike re-ejects with doubled backoff.
			c.det.reEject(b, now)
			c.auditTransition(b, HalfOpen, Ejected, auditlog.CauseTrialFailed, 1, 0, 0, 0, 0, 0)
		}
		c.refreshAdmitLocked()
		if c.dirty {
			c.republishLocked()
		}
	}
	c.mu.Unlock()
}

// ReportDialSuccess feeds the passive detector one successful connection
// establishment against backend b: it clears the consecutive-failure
// streak and, during a half-open trial, counts toward the success
// threshold that promotes the backend into slow-start recovery. No-op when
// the detector is disabled.
func (c *Controller) ReportDialSuccess(b int) {
	if c.det == nil {
		return
	}
	c.mu.Lock()
	c.det.sawDials = true
	if b >= 0 && b < len(c.det.st) {
		h := &c.det.st[b]
		h.dialsSinceSample++
		switch h.state {
		case Healthy, SlowStart:
			h.consecFails = 0
		case HalfOpen:
			h.successes++
			if h.successes >= c.det.cfg.SuccessThreshold {
				c.det.recoverTo(b)
				c.auditTransition(b, HalfOpen, SlowStart, auditlog.CauseTrialSuccess, 0, 0, 0, 0, 0, 0)
				c.refreshAdmitLocked()
				if c.dirty {
					c.republishLocked()
				}
			}
		}
	}
	c.mu.Unlock()
}

// othersRoutableLocked reports whether any backend besides b currently
// admits traffic — the guard that keeps the passive detector from ejecting
// the last routable backend.
func (c *Controller) othersRoutableLocked(b int) bool {
	for i, a := range c.admit {
		if i != b && a > 0 {
			return true
		}
	}
	return false
}

// refreshAdmitLocked recomputes the combined admission view (manual veto ∧
// detector state) and the healthy count, marking the snapshot dirty on any
// change. Allocation-free.
func (c *Controller) refreshAdmitLocked() {
	healthy := 0
	changed := false
	for i := range c.admit {
		var a uint32
		switch {
		case c.manual[i]:
			a = 0
		case c.det != nil:
			a = c.det.admit(i)
		default:
			a = admitFull
		}
		if a != c.admit[i] {
			c.admit[i] = a
			changed = true
		}
		if a > 0 {
			healthy++
		}
	}
	if healthy != c.healthy {
		c.healthy = healthy
		changed = true
	}
	if changed {
		c.dirty = true
	}
}

// Tick runs one control interval: drain every aggregator shard into the
// policy, run the passive detector's tick-granularity checks (latency
// outlier, sample starvation, timer-driven state advances), then republish
// the routing snapshot if the policy replaced its table or health state
// changed. Safe to call concurrently with the data plane; single-threaded
// drivers (the simulator's lb.LB) call it directly with
// their own clock.
func (c *Controller) Tick(now time.Duration) {
	c.mu.Lock()
	c.lastNow = now
	var applied int64
	for i := range c.lastMerge {
		c.lastMerge[i] = TickStat{}
	}
	for si := range c.agg.shards {
		if c.agg.drainShard(si, c.scratch) == 0 {
			continue
		}
		for b := range c.scratch {
			cell := &c.scratch[b]
			if ev := cell.retrans + cell.dupAcks + cell.zeroWins; ev != 0 {
				// Congestion merges before the count gate: a backend whose
				// tick produced only distress events (retransmits with no
				// completed responses — the worst case) must still be seen.
				m := &c.lastMerge[b]
				m.Retrans += cell.retrans
				m.DupAcks += cell.dupAcks
				m.ZeroWins += cell.zeroWins
				c.congTotal[b] += uint64(ev)
				c.congSeen = true
			}
			if cell.count == 0 {
				continue
			}
			mean := cell.sum / time.Duration(cell.count)
			c.policy.ObserveLatency(b, cell.last, mean)
			applied += cell.count
			m := &c.lastMerge[b]
			if m.Count == 0 || cell.min < m.Min {
				m.Min = cell.min
			}
			if m.Count == 0 || cell.max > m.Max {
				m.Max = cell.max
			}
			if cell.last > m.Last {
				m.Last = cell.last
			}
			// Mean over all of this backend's cells, weighted by count.
			m.Mean = (m.Mean*time.Duration(m.Count) + cell.sum) / time.Duration(m.Count+cell.count)
			m.Count += cell.count
		}
	}
	if c.det != nil {
		c.detectorTickLocked(now)
	}
	c.republishLocked()
	c.mu.Unlock()
	if applied != 0 {
		c.delivered.Add(uint64(applied))
	}
}

// detectorTickLocked runs the tick-granularity half of passive detection:
// latency-outlier and sample-starvation checks against this tick's merged
// aggregates, plus the timer- and counter-driven state advances (backoff
// expiry → half-open, trial success → slow-start, ramp completion →
// healthy). Allocation-free: the median scratch is preallocated.
func (c *Controller) detectorTickLocked(now time.Duration) {
	// Pool-wide view of this tick: total samples, total congestion events,
	// and median backend mean.
	var pool, totalEv int64
	med := c.medScratch[:0]
	for b := range c.lastMerge {
		m := &c.lastMerge[b]
		totalEv += m.Retrans + m.DupAcks + m.ZeroWins
		if m.Count == 0 {
			continue
		}
		pool += m.Count
		c.det.st[b].everSampled = true
		// Insertion sort keeps this allocation-free; pools are small.
		med = append(med, m.Mean)
		for i := len(med) - 1; i > 0 && med[i] < med[i-1]; i-- {
			med[i], med[i-1] = med[i-1], med[i]
		}
	}
	var median time.Duration
	if len(med) > 0 {
		median = med[len(med)/2]
	}
	active := pool >= c.det.cfg.MinPoolSamples

	for b := range c.det.st {
		h := &c.det.st[b]
		m := &c.lastMerge[b]
		switch h.state {
		case Ejected:
			if !c.manual[b] && now >= h.reopenAt {
				h.state = HalfOpen
				h.trialTicks = 0
				h.successes = 0
				c.auditTransition(b, Ejected, HalfOpen, auditlog.CauseBackoffExpired, 0, 0, 0, 0, 0, 0)
			}
		case HalfOpen:
			// Judge the trial against the rest of the pool, never against
			// the suspect's own samples: when a timeout burst makes the
			// suspect the only backend merged this tick, the whole-pool
			// median IS the suspect's mean and any garbage looks in-family.
			// With no cross-pool evidence the tick proves nothing either way.
			if om := c.othersMedianLocked(b); m.Count > 0 && om > 0 {
				if outlier(m.Min, om, c.det.cfg.OutlierFactor) {
					// Every trial sample was far out of family — e.g. only
					// the estimator's close-after-timeout artifacts came
					// back, the signature of clients giving up on a
					// still-dead backend. In-band proof the trial failed;
					// no need to wait out the window.
					c.det.reEject(b, now)
					c.auditTransition(b, HalfOpen, Ejected, auditlog.CauseTrialFailed,
						0, m.Min, om, m.Retrans, m.DupAcks, m.ZeroWins)
					continue
				}
				// In-band evidence the trial worked: samples flowed, and
				// at least one was in family with the pool.
				h.successes++
			}
			if h.successes >= c.det.cfg.SuccessThreshold {
				c.det.recoverTo(b)
				c.auditTransition(b, HalfOpen, SlowStart, auditlog.CauseTrialSuccess,
					0, m.Mean, median, 0, 0, 0)
			} else if h.trialTicks++; h.trialTicks >= c.det.cfg.HalfOpenTicks {
				// No successful trial in time — whether trials failed or
				// never arrived, the backend goes back to the bench.
				c.det.reEject(b, now)
				c.auditTransition(b, HalfOpen, Ejected, auditlog.CauseTrialTimeout, 0, 0, 0, 0, 0, 0)
			}
		case SlowStart:
			if om := c.othersMedianLocked(b); m.Count > 0 && om > 0 &&
				outlier(m.Min, om, c.det.cfg.OutlierFactor) {
				// The ramp's own traffic is uniformly slow: pause the ramp,
				// and send the backend back to the bench if it persists.
				if h.outlierTicks++; h.outlierTicks >= c.det.cfg.OutlierTicks {
					ticks := h.outlierTicks
					c.det.reEject(b, now)
					c.auditTransition(b, SlowStart, Ejected, auditlog.CauseRampOutlier,
						ticks, m.Min, c.othersMedianLocked(b), m.Retrans, m.DupAcks, m.ZeroWins)
				}
				continue
			}
			h.outlierTicks = 0
			if h.rampTick++; h.rampTick >= c.det.cfg.SlowStartTicks {
				c.det.heal(b)
				c.auditTransition(b, SlowStart, Healthy, auditlog.CauseRampDone, 0, m.Mean, median, 0, 0, 0)
			}
		case Healthy:
			if c.det.congestionEnabled() {
				// Transport distress is judged before any latency evidence:
				// retransmits and closed windows appear while the latency
				// median is still intact, so a congested backend drains
				// early instead of waiting for the outlier detector. It is
				// also independent of the sample gate — a congestion-only
				// tick (nothing completing) is exactly the signal.
				c.congestionCheckLocked(b, totalEv, now)
				if h.state != Healthy {
					continue // congestion ejected it this tick
				}
			}
			if !active {
				continue // too little pool evidence to judge anyone
			}
			if m.Count == 0 {
				// Starvation: flows route there, nothing comes back. Silence
				// is only evidence when routing actually sent the backend
				// traffic. Where dial outcomes are reported (the live
				// proxy), that means a connection was established since the
				// backend last produced a sample — routed-but-silent; a
				// backend a weighted policy pushed down to its floor gets no
				// dials, so its silence never counts. Connection-granular
				// routing makes anything weaker unsound at low concurrency:
				// a minority-share backend can hold zero of eight live
				// connections for many ticks while perfectly healthy.
				// Without dial reports (the simulator), fall back to the
				// sample-share expectation: the backend's share of this
				// tick's pool must have been worth at least one sample.
				// Below either bar the count freezes rather than resets.
				routed := h.dialsSinceSample > 0
				if !c.det.sawDials {
					routed = c.expectedShareLocked(b)*float64(pool) >= 1
				}
				if h.everSampled && routed {
					if h.silentTicks++; h.silentTicks >= c.det.cfg.StarvationTicks {
						ticks := h.silentTicks
						if c.det.eject(b, now, c.othersRoutableLocked(b)) {
							c.auditTransition(b, Healthy, Ejected, auditlog.CauseStarvation,
								ticks, 0, median, 0, 0, 0)
						}
					}
				}
				continue
			}
			h.silentTicks = 0
			h.dialsSinceSample = 0
			if outlier(m.Mean, median, c.det.cfg.OutlierFactor) {
				if h.outlierTicks++; h.outlierTicks >= c.det.cfg.OutlierTicks {
					ticks := h.outlierTicks
					if c.det.eject(b, now, c.othersRoutableLocked(b)) {
						c.auditTransition(b, Healthy, Ejected, auditlog.CauseOutlier,
							ticks, m.Mean, median, 0, 0, 0)
					}
				}
			} else {
				h.outlierTicks = 0
			}
		}
	}
	c.refreshAdmitLocked()
}

// congestionCheckLocked runs the transport-distress detector for one Healthy
// backend: a tick with at least CongestionPerTick events that are also
// concentrated on this backend (CongestionFactor × the others' mean) is a
// hot tick. CongestionTicks consecutive hot ticks latch the weight-down;
// twice that many eject. Calm ticks release the latch after CongestionClear.
// Pool-wide distress — everyone hot at once, the incast/collapsed-uplink
// signature — fails the concentration test and judges no one. Caller holds
// c.mu; b's state is Healthy.
func (c *Controller) congestionCheckLocked(b int, totalEv int64, now time.Duration) {
	cfg := &c.det.cfg
	h := &c.det.st[b]
	m := &c.lastMerge[b]
	ev := m.Retrans + m.DupAcks + m.ZeroWins
	var othersMean float64
	if n := len(c.det.st); n > 1 {
		othersMean = float64(totalEv-ev) / float64(n-1)
	}
	hot := ev >= cfg.CongestionPerTick && float64(ev) >= cfg.CongestionFactor*othersMean
	switch {
	case hot:
		h.calmTicks = 0
		h.congTicks++
		if h.congTicks >= cfg.CongestionTicks && !h.congested {
			h.congested = true
			c.auditTransition(b, Healthy, Healthy, auditlog.CauseCongestionLatch,
				h.congTicks, 0, 0, m.Retrans, m.DupAcks, m.ZeroWins)
		}
		if h.congTicks >= 2*cfg.CongestionTicks {
			ticks := h.congTicks
			if c.det.eject(b, now, c.othersRoutableLocked(b)) {
				h.congEjections++
				c.auditTransition(b, Healthy, Ejected, auditlog.CauseCongestion,
					ticks, 0, 0, m.Retrans, m.DupAcks, m.ZeroWins)
			}
		}
	case h.congested:
		if h.calmTicks++; h.calmTicks >= cfg.CongestionClear {
			h.congested = false
			h.congTicks = 0
			h.calmTicks = 0
			c.auditTransition(b, Healthy, Healthy, auditlog.CauseCongestionClear,
				0, 0, 0, m.Retrans, m.DupAcks, m.ZeroWins)
		}
	default:
		h.congTicks = 0
	}
}

// outlier reports whether v is more than factor times the pool median; a
// zero median (no pool evidence) never judges anyone an outlier.
func outlier(v, median time.Duration, factor float64) bool {
	return median > 0 && float64(v) > factor*float64(median)
}

// expectedShareLocked estimates backend b's share of the pool's samples:
// its published routing weight when the policy exposes one, an equal split
// otherwise. Reads the last published snapshot (one tick stale at most)
// rather than Weighted.Weights, which copies — the detector tick must stay
// allocation-free.
func (c *Controller) expectedShareLocked(b int) float64 {
	n := len(c.det.st)
	if s := c.snap.Load(); s != nil && len(s.weights) == n {
		var sum float64
		for _, v := range s.weights {
			sum += v
		}
		if sum > 0 {
			return s.weights[b] / sum
		}
	}
	if n == 0 {
		return 0
	}
	return 1 / float64(n)
}

// othersMedianLocked returns the median of this tick's per-backend mean
// latencies excluding backend b, or 0 when no other backend merged samples.
// Only recovery states (half-open, slow-start) consult it, so the O(n)
// rebuild per suspect stays off the common path. Caller holds c.mu.
func (c *Controller) othersMedianLocked(b int) time.Duration {
	med := c.medScratch2[:0]
	for i := range c.lastMerge {
		if i == b || c.lastMerge[i].Count == 0 {
			continue
		}
		med = append(med, c.lastMerge[i].Mean)
		for j := len(med) - 1; j > 0 && med[j] < med[j-1]; j-- {
			med[j], med[j-1] = med[j-1], med[j]
		}
	}
	c.medScratch2 = med[:0]
	if len(med) == 0 {
		return 0
	}
	return med[len(med)/2]
}

// republishLocked publishes a fresh snapshot when the policy's table or
// the health/admission state changed since the last publication. Caller
// holds c.mu.
func (c *Controller) republishLocked() {
	if c.src == nil {
		return
	}
	t := c.src.Table()
	cur := c.snap.Load()
	if cur != nil && cur.table == t && !c.dirty {
		return
	}
	c.gen++
	s := &Snapshot{
		gen:     c.gen,
		policy:  c.policy.Name(),
		table:   t,
		admit:   append([]uint32(nil), c.admit...),
		healthy: c.healthy,
		full:    c.healthy == len(c.admit),
	}
	if s.full {
		for _, a := range c.admit {
			if a != admitFull {
				s.full = false
				break
			}
		}
	}
	if w, ok := c.policy.(Weighted); ok {
		s.weights = w.Weights()
	}
	if c.congSeen {
		s.cong = append([]uint64(nil), c.congTotal...)
	}
	c.dirty = false
	c.snap.Store(s)
	if c.audit != nil {
		c.auditNoteLocked(auditlog.Record{Kind: auditlog.KindPublish, Backend: -1,
			Healthy: int32(c.healthy)})
		if s.weights != nil && !equalWeights(c.lastWeights, s.weights) {
			c.lastWeights = append(c.lastWeights[:0], s.weights...)
			c.auditNoteLocked(auditlog.Record{Kind: auditlog.KindWeights, Backend: -1,
				Healthy: int32(c.healthy), Weights: s.weights})
		}
	}
}

// SetEjected marks backend i health-ejected (down=true) or healthy — the
// manual layer, fed by active probes or operators, stacked as a veto on
// top of the passive detector. The change republishes the snapshot
// immediately — health reactions do not wait for the next tick. Clearing
// the veto with the detector enabled re-admits through slow-start (ramped
// admission) rather than instantly; with the detector disabled the flip is
// instantaneous and full, as before. No-op when the state is unchanged.
func (c *Controller) SetEjected(i int, down bool) {
	c.mu.Lock()
	if i >= 0 && i < len(c.manual) && c.manual[i] != down {
		c.manual[i] = down
		to := Healthy
		if down {
			to = Ejected
		}
		c.auditNoteLocked(auditlog.Record{Kind: auditlog.KindManual, Cause: auditlog.CauseManual,
			To: uint8(to), Backend: int32(i), Healthy: int32(c.healthy)})
		if !down && c.det != nil && c.det.st[i].state == Healthy {
			// Probe-driven recovery: ramp back in instead of slamming the
			// backend with its full share on the first snapshot.
			c.det.recoverTo(i)
			c.auditTransition(i, Healthy, SlowStart, auditlog.CauseManual, 0, 0, 0, 0, 0, 0)
		}
		c.refreshAdmitLocked()
		c.republishLocked()
	}
	c.mu.Unlock()
}

// Ejected reports whether backend i currently admits no traffic (manually
// vetoed or passively ejected).
func (c *Controller) Ejected(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admit[i] == 0
}

// Admission returns backend i's combined admission fraction in [0, 1] —
// the manual-veto ∧ passive-detector view the next published snapshot will
// carry. Unlike Snapshot().Admission it is defined for non-TableSource
// policies too, which never publish snapshots.
func (c *Controller) Admission(i int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.admit) {
		return 0
	}
	return float64(c.admit[i]) / float64(admitFull)
}

// BindOccupancy forwards a live occupancy source to the wrapped policy when
// it consults one (see OccupancyBinder); no-op otherwise. The binding is
// installed under the serialization lock, so in-flight picks never observe
// a half-installed source.
func (c *Controller) BindOccupancy(fn func(b int) int) {
	if ob, ok := c.policy.(OccupancyBinder); ok {
		c.mu.Lock()
		ob.BindOccupancy(fn)
		c.mu.Unlock()
	}
}

// HealthState returns backend i's passive-detector state. A manual veto
// reports Ejected regardless of detector state; with the detector disabled
// an unvetoed backend is always Healthy.
func (c *Controller) HealthState(i int) HealthState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.manual[i] {
		return Ejected
	}
	if c.det == nil {
		return Healthy
	}
	return c.det.st[i].state
}

// Ejections returns backend i's cumulative passive-ejection count (0 when
// the detector is disabled).
func (c *Controller) Ejections(i int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.det == nil {
		return 0
	}
	return c.det.st[i].ejections
}

// CongestionEjections returns how many of backend i's passive ejections were
// driven by the transport-distress detector rather than latency or failure
// evidence (0 when the detector or its congestion path is disabled).
func (c *Controller) CongestionEjections(i int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.det == nil {
		return 0
	}
	return c.det.st[i].congEjections
}

// Congested reports whether backend i currently has the congestion
// weight-down latch set (always false when the congestion path is disabled).
func (c *Controller) Congested(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.det == nil || i < 0 || i >= len(c.det.st) {
		return false
	}
	return c.det.st[i].congested
}

// CongestionEvents returns backend i's cumulative merged congestion-event
// count (retransmissions + dup-ACK runs + zero-window stalls). Counted
// whether or not the detector acts on them, so instrumentation can compare
// observed distress against injected faults.
func (c *Controller) CongestionEvents(i int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.congTotal) {
		return 0
	}
	return c.congTotal[i]
}

// Snapshot returns the currently published routing snapshot, or nil when
// the wrapped policy is not a TableSource.
func (c *Controller) Snapshot() *Snapshot { return c.snap.Load() }

// Generation returns the current snapshot's generation (0 before any
// publication, i.e. for non-TableSource policies).
func (c *Controller) Generation() uint64 {
	if s := c.snap.Load(); s != nil {
		return s.gen
	}
	return 0
}

// LastTick returns a copy of the per-backend merge summary from the most
// recent tick.
func (c *Controller) LastTick() []TickStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]TickStat(nil), c.lastMerge...)
}

// Do runs fn with the wrapped policy under the serialization lock. It is
// how callers read policy-specific state (weights, per-server latency)
// without racing a tick. The state fn sees includes every sample merged by
// completed ticks; samples still in the aggregator are not yet applied.
func (c *Controller) Do(fn func(Policy)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.policy)
}

// Delivered returns how many samples ticks have applied to the policy.
func (c *Controller) Delivered() uint64 { return c.delivered.Load() }

// Start launches the background tick loop at the configured Interval.
// Idempotent; Close stops it.
func (c *Controller) Start() {
	c.startOnce.Do(func() {
		c.running = true
		go func() {
			defer close(c.done)
			t := time.NewTicker(c.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-c.stop:
					return
				case <-t.C:
					c.Tick(c.cfg.Now())
				}
			}
		}()
	})
}

// Close stops the background tick loop (if started) and runs a final Tick
// so every sample observed before Close is applied to the policy —
// Delivered then accounts for every observation. Idempotent.
func (c *Controller) Close() {
	c.closeOnce.Do(func() {
		if c.running {
			close(c.stop)
			<-c.done
		}
		c.Tick(c.cfg.Now())
	})
}
