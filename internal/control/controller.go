package control

import (
	"sync"
	"sync/atomic"
	"time"

	"inbandlb/internal/auditlog"
	"inbandlb/internal/maglev"
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
//     atomic.Pointer, published for every policy. The Snapshot carries the
//     admission view, so one rule (Snapshot.RouteHash's) admits a pick,
//     falls it back and fails a dial over. Only the pick differs: a
//     TableSource's Snapshot carries its table, so Pick and Route are pure
//     reads — no mutex, no channel, zero allocations; a policy with
//     per-pick state (RoundRobin, LeastConn, P2C, WLC) is asked under the
//     mutex.
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
//   - Health is two stacked layers, and the Controller is its one home.
//     The manual layer is a boolean veto, set by SetEjected or by the
//     active prober's streaks (ReportProbe). The optional passive detector
//     layer (ControllerConfig.Detector) judges in-band signals at each
//     tick — connection outcomes (ObserveConn), congestion counts and
//     per-backend latency aggregates, all drained from the same stripes —
//     and drives the healthy → ejected → half-open → slow-start state
//     machine through one transition function (move), expressed to the
//     data plane purely as per-backend admission fractions in the
//     published Snapshot. Health reads it all back.
//
// Controller implements Policy, so it drops in anywhere a Policy does. The
// wrapped policy never sees concurrent calls, exactly as the Policy
// contract promises. Stateful Picks are applied synchronously under the
// internal mutex (they are per-connection, not per-packet); a flow's end
// is the dataplane's business alone, since occupancy is its own open-flow
// count (BindOccupancy).
type Controller struct {
	policy Policy
	src    TableSource // nil for a stateful policy: its Snapshots carry no table
	cfg    ControllerConfig

	mu          sync.Mutex // serializes every call into policy
	agg         *aggregator
	scratch     []sampleCell // drain buffer, reused every tick
	lastMerge   []TickStat   // per-backend summary of the newest tick
	congTotal   []uint64     // cumulative congestion events per backend
	congSeen    bool         // any congestion event ever merged
	manual      []bool       // SetEjected layer (probe / operator vetoes)
	probeStreak []int        // per backend: >0 consecutive probe successes, <0 failures
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

	oks, fails, failRun int64 // connection outcomes (ObserveConn), for the detector
}

// NewController wraps policy. The returned controller has its first
// snapshot published (generation 1) and is ready for concurrent use; call
// Start to run the background tick loop, or drive Tick directly from a
// single-threaded event loop.
func NewController(policy Policy, cfg ControllerConfig) *Controller {
	if policy == nil {
		panic("control: controller needs a policy")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Millisecond
	}
	n := policy.NumBackends()
	c := &Controller{
		policy:      policy,
		cfg:         cfg,
		agg:         newAggregator(cfg.Shards, n),
		scratch:     make([]sampleCell, n),
		lastMerge:   make([]TickStat, n),
		congTotal:   make([]uint64, n),
		manual:      make([]bool, n),
		probeStreak: make([]int, n),
		admit:       make([]uint32, n),
		healthy:     n,
		start:       time.Now(),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
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

// Pick implements Policy: the policy's own choice, health ignored — a
// lookup in the snapshot's table for a TableSource (lock-free and
// allocation-free), otherwise the policy's Pick under the mutex. Health
// ejection is Route's job, not Pick's: Pick preserves the Policy contract
// exactly.
func (c *Controller) Pick(key packet.FlowKey, now time.Duration) int {
	return c.pick(c.snap.Load(), key.Hash(), key, now)
}

// pick is Pick against snapshot s, for a flow whose key hashes to hash.
func (c *Controller) pick(s *Snapshot, hash uint64, key packet.FlowKey, now time.Duration) int {
	if s.table != nil {
		return s.table.Lookup(hash)
	}
	c.mu.Lock()
	b := c.policy.Pick(key, now)
	c.mu.Unlock()
	return b
}

// Route picks an admitted backend for a new flow: the policy's pick (see
// Pick) passed through the current snapshot's admission rule, which
// re-points a pick the backend does not admit to the next admitted index
// and reports fellBack. Returns -1 when the whole pool is ejected.
// Lock-free for a TableSource.
func (c *Controller) Route(key packet.FlowKey, now time.Duration) (backend int, fellBack bool) {
	return c.RouteHashed(key.Hash(), key, now)
}

// RouteHashed is Route for callers that already computed key.Hash().
// hash must equal key.Hash().
func (c *Controller) RouteHashed(hash uint64, key packet.FlowKey, now time.Duration) (backend int, fellBack bool) {
	s := c.snap.Load()
	backend, fellBack = s.route(c.pick(s, hash, key, now), hash)
	countRoute(s.routed, backend)
	return backend, fellBack
}

// FailoverTarget returns an alternative backend for a connection whose
// dial to skip just failed: the current snapshot's NextHealthy. It never
// consults the policy and never takes the lock. Returns -1 when no
// alternative exists.
func (c *Controller) FailoverTarget(skip int) int {
	s := c.snap.Load()
	b := s.NextHealthy(skip)
	countRoute(s.routed, b)
	return b
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

// ObserveConn folds one connection outcome for backend b into the
// aggregation stripe selected by hash — the same stripe discipline as
// ObserveSharded. ok is a completed dial; !ok is a refused or timed-out
// dial, or a stream the backend broke. The next Tick hands the outcomes to
// the passive detector, which ejects a backend at FailureThreshold
// consecutive failures and settles a half-open trial on them; with the
// detector off they are dropped. Never blocks on the control plane, never
// allocates.
func (c *Controller) ObserveConn(hash uint64, b int, ok bool) {
	if b < 0 || b >= len(c.lastMerge) {
		return
	}
	c.agg.observeConn(hash, b, ok)
}

// othersRoutableLocked reports whether any backend besides b admits
// traffic — the guard that keeps the passive detector from ejecting the
// last routable backend. It reads the manual and detector layers
// themselves, not c.admit, which a tick refreshes only after its last
// transition: two ejections in one tick must each see the other.
func (c *Controller) othersRoutableLocked(b int) bool {
	for i := range c.manual {
		if i != b && !c.manual[i] && c.det.admit(i) > 0 {
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
// policy, run the passive detector's checks (connection outcomes, latency
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
			m := &c.lastMerge[b]
			// Connection outcomes merge before the count gate too. Stripes
			// keep no order between them, so the merged failure run is the
			// sum of each stripe's run: exact with one stripe.
			m.oks += cell.oks
			m.fails += cell.fails
			m.failRun += cell.failRun
			if ev := cell.retrans + cell.dupAcks + cell.zeroWins; ev != 0 {
				// Congestion merges before the count gate: a backend whose
				// tick produced only distress events (retransmits with no
				// completed responses — the worst case) must still be seen.
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

// detectorTickLocked runs passive detection against this tick's merged
// aggregates: connection outcomes first, then latency-outlier and
// sample-starvation checks, plus the timer- and counter-driven state
// advances (backoff expiry → half-open, trial success → slow-start, ramp
// completion → healthy). Allocation-free: the median scratch is
// preallocated.
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
		// Any merged sample clears the routed evidence, in every state;
		// flows routed since the last tick survive it, because they have
		// not had time to answer.
		if n := c.det.routed[b].Swap(0); m.Count > 0 {
			h.routedSinceSample = n
		} else {
			h.routedSinceSample += n
		}
		if c.connVerdictLocked(b, now) {
			continue // the outcomes moved it; the latency checks wait a tick
		}
		switch h.state {
		case Ejected:
			if !c.manual[b] && now >= h.reopenAt {
				c.move(b, HalfOpen, auditlog.CauseBackoffExpired, now, evidence{})
			}
		case HalfOpen:
			// Judge the trial against the rest of the pool, never against
			// the suspect's own samples: when a timeout burst makes the
			// suspect the only backend merged this tick, the whole-pool
			// median IS the suspect's mean and any garbage looks in-family.
			// With no cross-pool evidence the tick proves nothing either way.
			trialOK := false
			if om := c.othersMedianLocked(b); m.Count > 0 && om > 0 {
				if outlier(m.Min, om, c.det.cfg.OutlierFactor) {
					// Every trial sample was far out of family — e.g. only
					// the estimator's close-after-timeout artifacts came
					// back, the signature of clients giving up on a
					// still-dead backend. In-band proof the trial failed;
					// no need to wait out the window.
					c.move(b, Ejected, auditlog.CauseTrialFailed, now, evidence{mean: m.Min, median: om,
						retrans: m.Retrans, dupAcks: m.DupAcks, zeroWins: m.ZeroWins})
					continue
				}
				// In-band evidence the trial worked: samples flowed, and
				// at least one was in family with the pool.
				trialOK = true
			}
			if trialOK {
				c.move(b, SlowStart, auditlog.CauseTrialSuccess, now, evidence{mean: m.Mean, median: median})
			} else if h.trialTicks++; h.trialTicks >= c.det.cfg.HalfOpenTicks {
				// No successful trial in time — whether trials failed or
				// never arrived, the backend goes back to the bench.
				c.move(b, Ejected, auditlog.CauseTrialTimeout, now, evidence{})
			}
		case SlowStart:
			if om := c.othersMedianLocked(b); m.Count > 0 && om > 0 &&
				outlier(m.Min, om, c.det.cfg.OutlierFactor) {
				// The ramp's own traffic is uniformly slow: pause the ramp,
				// and send the backend back to the bench if it persists.
				if h.outlierTicks++; h.outlierTicks >= c.det.cfg.OutlierTicks {
					c.move(b, Ejected, auditlog.CauseRampOutlier, now, evidence{fails: h.outlierTicks,
						mean: m.Min, median: om, retrans: m.Retrans, dupAcks: m.DupAcks, zeroWins: m.ZeroWins})
				}
				continue
			}
			h.outlierTicks = 0
			if h.rampTick++; h.rampTick >= c.det.cfg.SlowStartTicks {
				c.move(b, Healthy, auditlog.CauseRampDone, now, evidence{mean: m.Mean, median: median})
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
				// is evidence only when Route sent the backend a flow since
				// its last sample — routed-but-silent. A backend a weighted
				// policy pushed down to its floor, or one that holds no flow
				// at low concurrency, is routed nothing, so its silence
				// freezes the count rather than resetting it.
				if h.everSampled && h.routedSinceSample > 0 {
					if h.silentTicks++; h.silentTicks >= c.det.cfg.StarvationTicks {
						c.move(b, Ejected, auditlog.CauseStarvation, now, evidence{fails: h.silentTicks, median: median})
					}
				}
				continue
			}
			h.silentTicks = 0
			if outlier(m.Mean, median, c.det.cfg.OutlierFactor) {
				if h.outlierTicks++; h.outlierTicks >= c.det.cfg.OutlierTicks {
					c.move(b, Ejected, auditlog.CauseOutlier, now, evidence{fails: h.outlierTicks, mean: m.Mean, median: median})
				}
			} else {
				h.outlierTicks = 0
			}
		}
	}
	c.refreshAdmitLocked()
}

// connVerdictLocked judges backend b's connection outcomes from this tick
// and reports whether they moved it. Healthy and SlowStart keep a streak of
// consecutive failures: it restarts at the failures after the tick's newest
// success, or grows by them when nothing succeeded, and ejects at
// FailureThreshold. A half-open trial re-ejects on any failure and
// otherwise promotes on any success. An ejected backend's outcomes are
// dropped. Caller holds c.mu.
func (c *Controller) connVerdictLocked(b int, now time.Duration) bool {
	h := &c.det.st[b]
	m := &c.lastMerge[b]
	from := h.state
	switch {
	case m.oks+m.fails == 0:
	case from == Healthy || from == SlowStart:
		if m.oks > 0 {
			h.consecFails = 0
		}
		if h.consecFails += int(m.failRun); h.consecFails >= c.det.cfg.FailureThreshold {
			c.move(b, Ejected, auditlog.CauseFailures, now, evidence{fails: h.consecFails})
		}
	case from == HalfOpen && m.fails > 0:
		// A failed trial: one strike re-ejects with doubled backoff.
		c.move(b, Ejected, auditlog.CauseTrialFailed, now, evidence{fails: int(m.fails)})
	case from == HalfOpen:
		c.move(b, SlowStart, auditlog.CauseTrialSuccess, now, evidence{})
	}
	return h.state != from
}

// congestionCheckLocked runs the transport-distress detector for one Healthy
// backend: a tick with at least CongestionPerTick events that are also
// concentrated on this backend (congestionFactor × the others' mean) is a
// hot tick. CongestionTicks consecutive hot ticks latch the weight-down;
// twice that many eject, and twice that many calm ticks release the latch.
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
	hot := ev >= cfg.CongestionPerTick && float64(ev) >= congestionFactor*othersMean
	switch {
	case hot:
		h.calmTicks = 0
		h.congTicks++
		if h.congTicks >= cfg.CongestionTicks && !h.congested {
			h.congested = true
			c.auditTransition(b, Healthy, Healthy, auditlog.CauseCongestionLatch, evidence{fails: h.congTicks,
				retrans: m.Retrans, dupAcks: m.DupAcks, zeroWins: m.ZeroWins})
		}
		if h.congTicks >= 2*cfg.CongestionTicks {
			c.move(b, Ejected, auditlog.CauseCongestion, now, evidence{fails: h.congTicks,
				retrans: m.Retrans, dupAcks: m.DupAcks, zeroWins: m.ZeroWins})
		}
	case h.congested:
		if h.calmTicks++; h.calmTicks >= 2*cfg.CongestionTicks {
			h.congested = false
			h.congTicks = 0
			h.calmTicks = 0
			c.auditTransition(b, Healthy, Healthy, auditlog.CauseCongestionClear,
				evidence{retrans: m.Retrans, dupAcks: m.DupAcks, zeroWins: m.ZeroWins})
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

// republishLocked publishes a fresh snapshot when there is none yet, or
// when the policy's table or the health/admission state changed since the
// last publication. Caller holds c.mu.
func (c *Controller) republishLocked() {
	var t *maglev.Table
	if c.src != nil {
		t = c.src.Table()
	}
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
	if c.det != nil {
		s.routed = c.det.routed
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
	c.setManualLocked(i, down)
	c.mu.Unlock()
}

// setManualLocked is SetEjected with c.mu held.
func (c *Controller) setManualLocked(i int, down bool) {
	if i < 0 || i >= len(c.manual) || c.manual[i] == down {
		return
	}
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
		c.move(i, SlowStart, auditlog.CauseManual, c.lastNow, evidence{})
	}
	c.refreshAdmitLocked()
	c.republishLocked()
}

// The active prober's de-flapping: probeFailThreshold consecutive failed
// probes set a backend's manual veto and probeRecoverThreshold consecutive
// successes lift it, so one lost SYN does not flap routing.
const (
	probeFailThreshold    = 3
	probeRecoverThreshold = 2
)

// ReportProbe feeds one active health-probe result for backend i (ok: the
// probe connected) into the backend's probe streak, and sets or lifts the
// manual veto, as SetEjected does, once the streak reaches its threshold.
// The live proxy reports each probe dial; the simulator reports the fault
// schedule's verdict.
func (c *Controller) ReportProbe(i int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.probeStreak) {
		return
	}
	s := &c.probeStreak[i]
	if ok {
		if *s = max(*s, 0) + 1; *s >= probeRecoverThreshold {
			c.setManualLocked(i, false)
		}
	} else if *s = min(*s, 0) - 1; -*s >= probeFailThreshold {
		c.setManualLocked(i, true)
	}
}

// BackendHealth is one backend's health as the Controller sees it.
type BackendHealth struct {
	// State is the passive-detector state. A manual veto reads Ejected
	// whatever the detector says; with the detector disabled an unvetoed
	// backend is Healthy.
	State HealthState
	// Admission is the combined admission fraction in [0, 1] — the
	// manual-veto ∧ passive-detector view, which the current snapshot's
	// Admission carries too: every change to it republishes under the same
	// lock.
	Admission float64
	// Ejections counts the backend's passive ejections, and
	// CongestionEjections those of them the transport-distress detector
	// drove (both 0 with the detector disabled).
	Ejections, CongestionEjections uint64
	// Congested reports the congestion weight-down latch.
	Congested bool
	// CongestionEvents is the cumulative merged congestion-event count
	// (retransmissions + dup-ACK runs + zero-window stalls), counted
	// whether or not the detector acts on them.
	CongestionEvents uint64
}

// Ejected reports whether the backend admits no traffic (manually vetoed or
// passively ejected).
func (h BackendHealth) Ejected() bool { return h.Admission == 0 }

// Health returns backend i's health, read under one lock acquisition. An
// out-of-range i reads as the zero BackendHealth, which admits nothing.
func (c *Controller) Health(i int) BackendHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.admit) {
		return BackendHealth{}
	}
	h := BackendHealth{
		Admission:        float64(c.admit[i]) / float64(admitFull),
		CongestionEvents: c.congTotal[i],
	}
	if c.det != nil {
		d := &c.det.st[i]
		h.State, h.Ejections, h.CongestionEjections, h.Congested = d.state, d.ejections, d.congEjections, d.congested
	}
	if c.manual[i] {
		h.State = Ejected
	}
	return h
}

// BindOccupancy forwards the dataplane's open-flow count to the wrapped
// policy when it consults one (see OccupancyBinder); no-op otherwise.
// lbproxy.New binds through it, and lb.New reaches it through
// OccupancyBinder when its policy is a Controller. The binding is installed
// under the serialization lock, so in-flight picks never observe a
// half-installed source.
func (c *Controller) BindOccupancy(fn func(b int) int) {
	if ob, ok := c.policy.(OccupancyBinder); ok {
		c.mu.Lock()
		ob.BindOccupancy(fn)
		c.mu.Unlock()
	}
}

// Interval returns the control tick period (ControllerConfig.Interval,
// defaults applied): Start ticks at it, and so does the simulator's LB.
func (c *Controller) Interval() time.Duration { return c.cfg.Interval }

// Snapshot returns the currently published routing snapshot; never nil.
func (c *Controller) Snapshot() *Snapshot { return c.snap.Load() }

// Generation returns the current snapshot's generation: the number of
// publications, 1 from NewController on.
func (c *Controller) Generation() uint64 { return c.snap.Load().gen }

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
