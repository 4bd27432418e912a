package dst

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"inbandlb/internal/auditlog"
	"inbandlb/internal/control"
	"inbandlb/internal/faults"
	"inbandlb/internal/lb"
	"inbandlb/internal/server"
	"inbandlb/internal/tcpsim"
	"inbandlb/internal/testbed"
)

// Violation is one oracle failure, timestamped on the sim clock.
type Violation struct {
	At     time.Duration
	Oracle string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%v %s: %s", v.At, v.Oracle, v.Detail)
}

// RunStats are the end-of-run counters a Report carries for sweeps and
// the experiment harness.
type RunStats struct {
	Sent      uint64
	Responses uint64
	Timeouts  uint64
	Aborts    uint64
	Stale     uint64
	Abandoned uint64
	NewFlows  uint64
	Fallbacks uint64
	NoBackend uint64
	Ejections uint64
	// Congestion channel (GenerateCongestion runs; zero elsewhere).
	Retransmits   uint64 // client RTO re-sends
	DupAcks       uint64 // client duplicate ACKs emitted
	ZeroWindows   uint64 // client zero-window advertisements
	CongObserved  uint64 // distress events the LB's tracker detected
	CongEjections uint64 // ejections claimed by the congestion detector
}

// Report is the outcome of one scenario run. Digest is a 64-bit FNV-1a
// fold of every per-tick counter tuple plus the final state: two runs of
// the same Scenario must produce equal digests, which is what makes a
// repro line from CI trustworthy on a developer laptop.
type Report struct {
	Scenario Scenario
	// Violations holds the first recorded failures (capped); Total counts
	// all of them, so a pathologically broken run stays bounded.
	Violations []Violation
	Total      int
	Digest     uint64
	Stats      RunStats
}

// Failed reports whether any oracle fired.
func (r *Report) Failed() bool { return r.Total > 0 }

// maxRecordedViolations bounds Report.Violations; Total keeps counting.
const maxRecordedViolations = 64

// livenessEvidence is how many post-recovery flow arrivals a backend must
// have seen before a non-Healthy end state counts as a liveness failure.
// Below it, the backend simply never received trial traffic inside the
// run — a statement about the bounded workload, not about the controller
// (the first sample needs two packets, and backoff can eat the rest).
const livenessEvidence = 4

// precisionGrace is how long after a fault window closes a latency-outlier
// or starvation ejection may still be blamed on that fault: flows it
// stranded time out, re-route and leave timeout-sized samples behind for
// up to a request timeout plus a backoff cycle.
const precisionGrace = time.Second

// recallSlack is the k in the recall oracle's StarvationTicks + k bound.
// The oracle reads LB counters once per CheckInterval, not once per
// control tick, so it can date a backend's first routed-but-silent tick up
// to one check interval early and misses a tick whose pool fell below
// MinPoolSamples; k covers both.
const recallSlack = 10

// RunOptions carries the optional hooks a scenario run accepts.
type RunOptions struct {
	// Mutate wraps the built policy (deliberately broken variants for the
	// oracle-teeth tests). Nil runs the real policy.
	Mutate func(control.Policy) control.Policy
	// Audit, when non-nil, receives every controller decision. Incident
	// recording passes an auditlog.SyncWriter so the decision log is a
	// deterministic function of the scenario; replay passes a Collector.
	Audit auditlog.Sink

	// wire, when set, runs on the assembled cluster before the run: the
	// package's tests use it to break an ownership rule on purpose.
	wire func(*testbed.Cluster)
	// detector, when set, edits the detector tuning the controller runs
	// with; the oracles keep judging against the scenario's own tuning.
	// The package's tests use it to break the detector on purpose.
	detector func(*control.DetectorConfig)
}

// Run executes the scenario with the real controller and returns its
// report. It is RunMutated with the identity policy.
func Run(sc Scenario) (*Report, error) { return RunOpts(sc, RunOptions{}) }

// RunMutated executes the scenario, optionally substituting a wrapped
// (deliberately broken) policy built around the real one — the hook the
// mutation-smoke tests use to prove the oracles have teeth. The scenario's
// Policy field selects any registered routing policy; oracles that assert
// on published snapshots or weight vectors apply themselves only to
// policies that produce them.
func RunMutated(sc Scenario, mutate func(control.Policy) control.Policy) (*Report, error) {
	return RunOpts(sc, RunOptions{Mutate: mutate})
}

// RunAudited executes the scenario with every controller decision mirrored
// into sink — the incident recorder's entry point.
func RunAudited(sc Scenario, sink auditlog.Sink) (*Report, error) {
	return RunOpts(sc, RunOptions{Audit: sink})
}

// RunOpts is the general form behind Run/RunMutated/RunAudited.
func RunOpts(sc Scenario, opts RunOptions) (*Report, error) {
	mutate := opts.Mutate
	if sc.Backends < 2 {
		return nil, fmt.Errorf("dst: scenario not generated (backends=%d)", sc.Backends)
	}
	names := make([]string, sc.Backends)
	for i := range names {
		names[i] = fmt.Sprintf("server-%d", i)
	}
	pol, err := control.BuildPolicy(sc.PolicyName(), control.PolicySpec{
		Backends:  names,
		TableSize: sc.TableSize,
		Alpha:     sc.Alpha,
		MinWeight: sc.MinWeight,
		Interval:  sc.ControlInterval,
		Seed:      sc.Seed,
	})
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		pol = mutate(pol)
	}
	h := &harness{
		sc:          sc,
		det:         detectorConfig(sc),
		next:        opts.Audit,
		report:      &Report{Scenario: sc},
		digest:      fnv.New64a(),
		samples:     make([][]time.Duration, sc.Backends),
		health:      make([]control.BackendHealth, sc.Backends),
		lastState:   make([]control.HealthState, sc.Backends),
		lastChange:  make([]time.Duration, sc.Backends),
		prevNew:     make([]uint64, sc.Backends),
		prevSamp:    make([]uint64, sc.Backends),
		silentSince: make([]time.Duration, sc.Backends),
	}
	for i := range h.silentSince {
		h.silentSince[i] = -1
	}
	det := h.det
	if opts.detector != nil {
		opts.detector(&det)
	}
	// Shards is pinned: left at zero it follows GOMAXPROCS, and the merge
	// grouping (hence the digest) would differ from host to host.
	ctrl := control.NewController(pol, control.ControllerConfig{
		Shards:   1,
		Interval: sc.ControlInterval,
		Detector: det,
		Audit:    h,
	})

	servers := make([]server.Config, sc.Backends)
	scheds := make([]faults.Schedule, sc.Backends)
	collapses := make(map[int]faults.Collapses)
	for i := range servers {
		servers[i] = server.Config{
			Name:       names[i],
			Workers:    sc.Workers[i],
			QueueLimit: sc.QueueLimit[i],
			Service:    server.LogNormal{Median: sc.ServiceMedian[i], Sigma: sc.ServiceSigma[i]},
		}
		scheds[i] = faults.Step{Extra: sc.BaseDelay[i]}
	}
	for _, f := range sc.Faults {
		switch f.Kind {
		case FaultLatencyStep:
			scheds[f.Server] = faults.Stack{scheds[f.Server],
				faults.Step{Start: f.Start, End: f.End, Extra: f.Extra}}
		case FaultOutageRefuse, FaultOutageBlackhole:
			servers[f.Server].ConnFaults = stackConn(servers[f.Server].ConnFaults,
				faults.Outage{Start: f.Start, End: f.End, Blackhole: f.Kind == FaultOutageBlackhole})
		case FaultFlaky:
			servers[f.Server].ConnFaults = stackConn(servers[f.Server].ConnFaults,
				faults.Flaky{Start: f.Start, End: f.End, P: f.P, Seed: f.Seed})
		case FaultReset:
			servers[f.Server].ConnFaults = stackConn(servers[f.Server].ConnFaults,
				faults.Reset{Start: f.Start, End: f.End, AfterBytes: f.AfterBytes})
		case FaultBandwidthCollapse:
			collapses[f.Server] = append(collapses[f.Server],
				faults.Collapse{Start: f.Start, End: f.End, Rate: f.Rate})
		case FaultIncast:
			servers[f.Server].Batch = stackSched(servers[f.Server].Batch,
				faults.Step{Start: f.Start, End: f.End, Extra: f.Extra})
		case FaultQueueRamp:
			scheds[f.Server] = faults.Stack{scheds[f.Server],
				faults.Ramp{Start: f.Start, End: f.End, Rise: f.Rise, Extra: f.Extra}}
		case FaultHotKey:
			// The workload carries the skew window; the last hot-key fault
			// wins (the generator emits at most one).
			sc.Workload.Hot = &tcpsim.HotWindow{
				Start: f.Start, End: f.End, Fraction: f.Fraction, Factor: f.Factor,
			}
		}
	}

	cluster, err := testbed.NewCluster(testbed.ClusterConfig{
		Seed:                sc.Seed,
		Policy:              ctrl,
		Servers:             servers,
		Workload:            sc.Workload,
		ClientToLB:          sc.ClientToLB,
		LBToServer:          sc.LBToServer,
		ServerToClient:      sc.ServerToClient,
		LinkRate:            sc.LinkRate,
		ServerPathSchedules: scheds,
		Congestion:          sc.Congestion,
	})
	if err != nil {
		return nil, err
	}

	// Faults that act on assembled cluster parts rather than configs:
	// bandwidth collapses override LB→server line rates (with a bounded
	// queue so sustained overload tail-drops instead of buffering forever),
	// herds abort every client connection at once, and autoscale churn
	// removes/returns a backend through the manual-ejection veto.
	for s, col := range collapses {
		link := cluster.ServerLinks[s]
		link.SetRateAt(col.RateAt)
		if link.QueueLimit == 0 {
			link.QueueLimit = 128
		}
	}
	for _, f := range sc.Faults {
		switch f.Kind {
		case FaultHerd:
			cluster.Sim.Schedule(f.Start, cluster.Client.Thunder)
		case FaultAutoscale:
			s := f.Server
			cluster.Sim.Schedule(f.Start, func() { ctrl.SetEjected(s, true) })
			cluster.Sim.Schedule(f.End, func() { ctrl.SetEjected(s, false) })
		}
	}

	if opts.wire != nil {
		opts.wire(cluster)
	}

	_, h.weighted = pol.(control.Weighted)
	h.ctrl, h.cluster = ctrl, cluster

	// In-band samples feed the estimator-bounds oracle, but only samples
	// taken on clean stretches and only under Pipeline==1 (with pipelined
	// sends the triggered-gap signal intentionally mixes in-batch gaps; the
	// paper's ensemble handles that adaptively, but a fixed two-sided
	// factor bound would not be meaningful there).
	if sc.Workload.Pipeline == 1 {
		cluster.LB.OnSample = func(now time.Duration, backend int, sample time.Duration) {
			if !sc.cleanAt(now) || len(h.samples[backend]) >= 4096 {
				return
			}
			h.samples[backend] = append(h.samples[backend], sample)
		}
	}

	cluster.Sim.Every(sc.CheckInterval, sc.CheckInterval, func() bool {
		h.checkTick()
		return cluster.Sim.Now() < sc.Duration
	})

	cluster.Run(sc.Duration)
	// Drain: stop issuing work and let every in-flight packet and pending
	// request timeout resolve, so the cross-tier conservation identities
	// close exactly instead of modulo in-flight state.
	cluster.Client.Stop()
	cluster.Sim.Run()
	h.checkFinal()

	h.report.Digest = h.digest.Sum64()
	return h.report, nil
}

// detectorConfig tunes passive detection for the harness's timescales:
// 2 ms ticks, sub-second backoffs, and half-open trials wide enough
// (half the hash share, 500 ms) that reopened connections actually land
// trial traffic on recovering backends before the liveness deadline.
func detectorConfig(sc Scenario) control.DetectorConfig {
	cfg := control.DetectorConfig{
		Enabled:          true,
		FailureThreshold: 3,
		OutlierFactor:    8,
		OutlierTicks:     10,
		MinPoolSamples:   4,
		// Starvation patience scales with the pool size.
		StarvationTicks:  8 + 4*sc.Backends,
		BackoffInitial:   100 * time.Millisecond,
		BackoffMax:       300 * time.Millisecond,
		HalfOpenFraction: 0.5,
		HalfOpenTicks:    250,
		SlowStartTicks:   20,
	}
	if sc.Congestion {
		// Congestion channel: at 2 ms ticks a backend must show
		// concentrated distress every tick for 6 ms before the weight-down
		// latch and 12 ms before ejection — far quicker than the latency
		// outlier's OutlierTicks, which is the point, but demanding enough
		// consecutiveness that a lone RTO burst doesn't eject anyone. The
		// sim's RTO floor is 15 ms, so sustaining a hot streak takes
		// several connections retransmitting against one backend at once.
		cfg.CongestionPerTick = 1
		cfg.CongestionTicks = 3
	}
	return cfg
}

func stackConn(cur faults.ConnSchedule, add faults.ConnSchedule) faults.ConnSchedule {
	if cur == nil {
		return add
	}
	if st, ok := cur.(faults.ConnStack); ok {
		return append(st, add)
	}
	return faults.ConnStack{cur, add}
}

func stackSched(cur faults.Schedule, add faults.Schedule) faults.Schedule {
	if cur == nil {
		return add
	}
	if st, ok := cur.(faults.Stack); ok {
		return append(st, add)
	}
	return faults.Stack{cur, add}
}

// harness carries oracle state across ticks for one run. It is also the
// controller's audit sink, so the precision oracle sees every ejection as
// it is decided.
type harness struct {
	sc      Scenario
	det     control.DetectorConfig // the scenario's tuning, as the oracles judge it
	next    auditlog.Sink          // the caller's audit sink, if any
	ctrl    *control.Controller
	cluster *testbed.Cluster
	// weighted gates the weight oracle: only Weighted policies carry a
	// weight vector to normalize.
	weighted bool
	report   *Report
	digest   interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
	// foldBuf stages fold's bytes; on the stack it would escape through
	// the digest's interface and cost an allocation per value.
	foldBuf [8]byte

	lastGen   uint64
	samples   [][]time.Duration // clean in-band samples per backend
	baselined bool
	baseNew   []uint64 // NewPerBack at CleanFrom
	baseResp  uint64   // client responses at CleanFrom

	// health is each backend's health as of the current check tick, read
	// once per backend for every check that tick.
	health []control.BackendHealth
	// Health-state transition tracking for the liveness oracle: sampled
	// each check tick, so "stuck" means no transition across many ticks.
	lastState  []control.HealthState
	lastChange []time.Duration

	// Recall oracle: the LB counters at the previous check, and when each
	// backend's current blackholed, routed-but-silent streak began (-1:
	// none).
	prevCheck   time.Duration
	prevSamples uint64
	prevNew     []uint64
	prevSamp    []uint64
	silentSince []time.Duration
}

// Note implements auditlog.Sink. It runs the precision oracle on every
// Healthy → Ejected decision and forwards each record to the caller's sink.
func (h *harness) Note(rec *auditlog.Record) {
	if rec.Kind == auditlog.KindTransition && rec.From == uint8(control.Healthy) &&
		rec.To == uint8(control.Ejected) {
		h.checkEjection(rec)
	}
	if h.next != nil {
		h.next.Note(rec)
	}
}

// checkEjection is the precision oracle: a latency-outlier or starvation
// ejection needs a fault on that backend whose window, extended by
// precisionGrace, covers the decision. Herds and hot keys act on the whole
// pool, so they are on every backend. Only a latency step justifies an
// outlier ejection; it never silences a backend. Congestion-cause
// ejections are out of scope (ROADMAP 16: some have no fault to blame).
func (h *harness) checkEjection(rec *auditlog.Record) {
	if rec.Cause != auditlog.CauseOutlier && rec.Cause != auditlog.CauseStarvation {
		return
	}
	b := int(rec.Backend)
	for _, f := range h.sc.Faults {
		onB := f.Server == b || f.Kind == FaultHerd || f.Kind == FaultHotKey
		if onB && rec.At >= f.Start && rec.At <= f.End+precisionGrace &&
			(f.Kind != FaultLatencyStep || rec.Cause == auditlog.CauseOutlier) {
			return
		}
	}
	h.violate("precision", "backend %d ejected for %v at %v with no fault on it to blame",
		b, rec.Cause, rec.At)
}

// checkRecall is the recall oracle, run every check tick: a blackholed
// backend that is routed a new flow while the pool is active must leave
// Healthy within StarvationTicks + recallSlack control ticks of that
// routed-but-silent tick. The clock starts at the check interval in which
// the Healthy, sampled-before backend was routed a flow and produced no
// sample; it stops at the backend's next sample, at the end of the
// blackhole, and at any interval in which the pool merged fewer than
// MinPoolSamples per control tick on average.
func (h *harness) checkRecall(now time.Duration, ls *lb.Stats) {
	ticks := int64(h.sc.CheckInterval / h.sc.ControlInterval)
	active := ls.Samples-h.prevSamples >= uint64(h.det.MinPoolSamples*ticks)
	deadline := time.Duration(h.det.StarvationTicks+recallSlack) * h.sc.ControlInterval
	for b, since := range h.silentSince {
		silent := ls.SampPerBack[b] == h.prevSamp[b] && ls.SampPerBack[b] > 0
		switch {
		case !active || !silent || !h.sc.blackholedOver(b, h.prevCheck, now) ||
			h.health[b].State != control.Healthy:
			since = -1
		case since < 0 && ls.NewPerBack[b] > h.prevNew[b]:
			since = h.prevCheck
		}
		if since >= 0 && now-since > deadline {
			h.violate("recall", "blackholed backend %d routed-but-silent since %v, still healthy (bound %v)",
				b, since, deadline)
			since = -1
		}
		h.silentSince[b] = since
	}
	h.prevCheck, h.prevSamples = now, ls.Samples
	copy(h.prevNew, ls.NewPerBack)
	copy(h.prevSamp, ls.SampPerBack)
}

func (h *harness) violate(oracle, format string, args ...any) {
	h.report.Total++
	if len(h.report.Violations) < maxRecordedViolations {
		h.report.Violations = append(h.report.Violations, Violation{
			At:     h.cluster.Sim.Now(),
			Oracle: oracle,
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// fold mixes values into the trace digest.
func (h *harness) fold(vals ...uint64) {
	buf := &h.foldBuf
	for _, v := range vals {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		buf[4] = byte(v >> 32)
		buf[5] = byte(v >> 40)
		buf[6] = byte(v >> 48)
		buf[7] = byte(v >> 56)
		h.digest.Write(buf[:])
	}
}

// checkTick runs the per-tick oracles and folds the observable state into
// the trace digest.
func (h *harness) checkTick() {
	now := h.cluster.Sim.Now()
	ls := h.cluster.LB.Stats()
	cs := h.cluster.Client.Stats()
	connCount := uint64(h.cluster.LB.ConnCount())
	outstanding := uint64(h.cluster.Client.Outstanding())

	// Conservation: every client→server packet the LB saw was forwarded
	// to exactly one backend or dropped for lack of one.
	var perBackend uint64
	for _, n := range ls.PerBackend {
		perBackend += n
	}
	if ls.Packets != perBackend+ls.NoBackend {
		h.violate("conservation-packets", "Packets=%d != sum(PerBackend)=%d + NoBackend=%d",
			ls.Packets, perBackend, ls.NoBackend)
	}
	// Conservation: every tracked flow is still open, closed, swept, or
	// evicted.
	if ls.NewFlows != ls.Closed+ls.Swept+ls.Evicted+connCount {
		h.violate("conservation-flows", "NewFlows=%d != Closed=%d + Swept=%d + Evicted=%d + open=%d",
			ls.NewFlows, ls.Closed, ls.Swept, ls.Evicted, connCount)
	}
	// Conservation: every request the client sent is answered, abandoned,
	// or still outstanding — at every instant, not just at drain.
	if cs.Sent != cs.Responses+cs.Abandoned+outstanding {
		h.violate("conservation-client", "Sent=%d != Responses=%d + Abandoned=%d + Outstanding=%d",
			cs.Sent, cs.Responses, cs.Abandoned, outstanding)
	}
	// Conservation: the LB never detects more transport distress than the
	// client emitted. Each detection consumes at least one emitted signal
	// (a dup-ACK run needs four identical ACKs, a zero-window stall at
	// least one advertisement); detections may undercount — state
	// released at close — but can never invent events.
	if ls.Retrans > cs.Retransmits || ls.DupAcks > cs.DupAcks || ls.ZeroWins > cs.ZeroWindows {
		h.violate("conservation-congestion",
			"LB observed retrans=%d dupAcks=%d zeroWins=%d exceeding client-emitted %d/%d/%d",
			ls.Retrans, ls.DupAcks, ls.ZeroWins, cs.Retransmits, cs.DupAcks, cs.ZeroWindows)
	}

	// Snapshot sanity — every policy publishes one.
	snap := h.ctrl.Snapshot()
	if snap == nil {
		h.violate("snapshot-sanity", "no published snapshot")
		return
	}
	gen := snap.Generation()
	if gen < h.lastGen {
		h.violate("snapshot-generation", "generation went backwards: %d -> %d", h.lastGen, gen)
	}
	h.lastGen = gen
	var weights []float64
	if h.weighted {
		weights = snap.Weights()
		if len(weights) != h.sc.Backends {
			h.violate("snapshot-weights", "weight vector has %d entries for %d backends",
				len(weights), h.sc.Backends)
		}
		var wsum float64
		for i, w := range weights {
			wsum += w
			if math.IsNaN(w) || math.IsInf(w, 0) || w < h.sc.MinWeight*(1-1e-9) || w > 1+1e-9 {
				h.violate("snapshot-weights", "weight[%d]=%v outside [MinWeight=%v, 1]", i, w, h.sc.MinWeight)
			}
		}
		if len(weights) > 0 && math.Abs(wsum-1) > 1e-9 {
			h.violate("snapshot-weights", "weights not normalized: sum=%v", wsum)
		}
	}
	admitted := 0
	for i := range h.health {
		h.health[i] = h.ctrl.Health(i)
		a := h.health[i].Admission
		if a < 0 || a > 1 {
			h.violate("snapshot-admission", "admission[%d]=%v outside [0,1]", i, a)
		}
		if a > 0 {
			admitted++
		}
	}
	if admitted == 0 {
		h.violate("snapshot-admission", "every backend ejected: the pool went unroutable")
	}

	h.checkRecall(now, &ls)

	// Post-fault baselines for the starvation and liveness oracles.
	if !h.baselined && now >= h.sc.CleanFrom {
		h.baselined = true
		h.baseNew = append([]uint64(nil), ls.NewPerBack...)
		h.baseResp = cs.Responses
	}

	// Trace digest: the complete per-tick observable state.
	h.fold(uint64(now), ls.Packets, ls.NewFlows, ls.Closed, ls.Swept,
		ls.Samples, ls.NoBackend, ls.Fallbacks, connCount,
		cs.Sent, cs.Responses, cs.Timeouts, cs.Aborts, cs.Opened,
		cs.Stale, cs.Abandoned, outstanding, h.ctrl.Generation(),
		ls.Retrans, ls.DupAcks, ls.ZeroWins,
		cs.Retransmits, cs.DupAcks, cs.ZeroWindows)
	for i, bh := range h.health {
		if bh.State != h.lastState[i] {
			h.lastState[i] = bh.State
			h.lastChange[i] = now
		}
		h.fold(ls.PerBackend[i], ls.NewPerBack[i], ls.SampPerBack[i],
			uint64(bh.State), math.Float64bits(bh.Admission))
		if ls.CongPerBack != nil {
			h.fold(ls.CongPerBack[i], bh.CongestionEjections)
		}
	}
	for _, w := range weights {
		h.fold(math.Float64bits(w))
	}
}

// checkFinal runs the end-of-run oracles after the drain: cross-tier
// conservation, estimator bounds, liveness, and starvation.
func (h *harness) checkFinal() {
	ls := h.cluster.LB.Stats()
	cs := h.cluster.Client.Stats()

	// Drain conservation: nothing may remain outstanding, and both the
	// client-side and cross-tier identities must close exactly.
	if out := h.cluster.Client.Outstanding(); out != 0 {
		h.violate("conservation-drain", "%d requests still outstanding after drain", out)
	}
	if cs.Sent != cs.Responses+cs.Abandoned {
		h.violate("conservation-drain", "Sent=%d != Responses=%d + Abandoned=%d",
			cs.Sent, cs.Responses, cs.Abandoned)
	}
	var served uint64
	for _, srv := range h.cluster.Servers {
		served += srv.Stats().Served
	}
	if served != cs.Responses+cs.Stale {
		h.violate("conservation-drain", "sum(Served)=%d != Responses=%d + Stale=%d",
			served, cs.Responses, cs.Stale)
	}
	// Packet ownership: with nothing left in flight, every pooled packet
	// has met its last owner, which must have released it.
	if n := h.cluster.Sim.LivePackets(); n != 0 {
		h.violate("packet-ownership", "%d pooled packets never released after drain", n)
	}

	// Estimator bounds: on clean stretches the in-band median per backend
	// must sit within a factor of the scenario's ground truth (one RTT +
	// service median + think time — the triggered-gap signal the LB sees).
	const factor = 8.0
	if h.sc.Workload.Pipeline == 1 {
		think := h.sc.Workload.ThinkTime + h.sc.Workload.ThinkJitter/2
		for b, samp := range h.samples {
			if len(samp) < 120 {
				continue // not enough clean traffic landed here to judge
			}
			truth := h.sc.ClientToLB + h.sc.LBToServer + h.sc.BaseDelay[b] +
				h.sc.ServerToClient + h.sc.ServiceMedian[b] + think
			med := median(samp)
			if float64(med) > factor*float64(truth) || float64(truth) > factor*float64(med) {
				h.violate("estimator-bounds",
					"backend %d in-band median %v vs ground truth %v exceeds factor %v (%d samples)",
					b, med, truth, factor, len(samp))
			}
		}
	}

	// Liveness: after the last fault plus the seed-derived margin, every
	// backend that received real post-recovery traffic must be Healthy,
	// and the pool as a whole must have made progress.
	snap := h.ctrl.Snapshot()
	var tailNew uint64
	tails := make([]uint64, h.sc.Backends)
	if h.baselined {
		for i := range tails {
			tails[i] = ls.NewPerBack[i] - h.baseNew[i]
			tailNew += tails[i]
		}
		if cs.Responses == h.baseResp {
			h.violate("liveness", "no responses at all after faults cleared at %v", h.sc.CleanFrom)
		}
	} else {
		h.violate("liveness", "run ended before the post-fault baseline at %v", h.sc.CleanFrom)
	}
	// A correctly wired state machine never dwells in one non-Healthy
	// state longer than its timer allows: Ejected ≤ jittered BackoffMax,
	// HalfOpen ≤ HalfOpenTicks, SlowStart ≤ SlowStartTicks. The stuck
	// threshold sits above the longest legitimate dwell, so it catches a
	// dead backoff timer, unbounded backoff growth, or a ramp that never
	// completes — while excusing a backend that is merely mid-cycle at the
	// deadline (an idle minority-share backend can be re-ejected for
	// sample starvation at any time; that is the detector working).
	const stuckThreshold = 800 * time.Millisecond
	var congEj uint64
	for i := 0; i < h.sc.Backends; i++ {
		bh := h.ctrl.Health(i)
		st := bh.State
		h.report.Stats.Ejections += bh.Ejections
		// Attribution: a congestion ejection must point at a backend the LB
		// actually attributed distress events to — the detector can never
		// claim congestion it was never fed.
		if ce := bh.CongestionEjections; ce > 0 {
			congEj += ce
			if len(ls.CongPerBack) <= i || ls.CongPerBack[i] == 0 {
				h.violate("congestion-attribution",
					"backend %d ejected %d times for congestion with zero attributed events", i, ce)
			}
		}
		if st != control.Healthy && h.baselined && tails[i] >= livenessEvidence {
			if dwell := h.sc.Duration - h.lastChange[i]; dwell >= stuckThreshold {
				h.violate("liveness",
					"backend %d stuck in %v for %v at the recovery deadline (%d post-fault flows)",
					i, st, dwell, tails[i])
			}
		}
		// Starvation: a backend the snapshot says should receive traffic
		// must actually receive it once enough post-fault flows arrived.
		if h.baselined {
			expected := float64(tailNew) * weightOf(snap, i) * snap.Admission(i)
			if expected >= 12 && tails[i] == 0 {
				h.violate("starvation",
					"backend %d (weight %.3f, admission %.2f) got 0 of %d post-fault flows",
					i, weightOf(snap, i), snap.Admission(i), tailNew)
			}
		}
	}

	h.report.Stats = RunStats{
		Sent:          cs.Sent,
		Responses:     cs.Responses,
		Timeouts:      cs.Timeouts,
		Aborts:        cs.Aborts,
		Stale:         cs.Stale,
		Abandoned:     cs.Abandoned,
		NewFlows:      ls.NewFlows,
		Fallbacks:     ls.Fallbacks,
		NoBackend:     ls.NoBackend,
		Ejections:     h.report.Stats.Ejections,
		Retransmits:   cs.Retransmits,
		DupAcks:       cs.DupAcks,
		ZeroWindows:   cs.ZeroWindows,
		CongObserved:  ls.Retrans + ls.DupAcks + ls.ZeroWins,
		CongEjections: congEj,
	}

	// Final digest fold: drained totals and per-server outcomes.
	h.fold(cs.Sent, cs.Responses, cs.Timeouts, cs.Aborts, cs.Stale,
		cs.Abandoned, ls.NewFlows, ls.Fallbacks, served, uint64(h.report.Total),
		cs.Retransmits, cs.DupAcks, cs.ZeroWindows,
		ls.Retrans, ls.DupAcks, ls.ZeroWins, congEj)
	for _, srv := range h.cluster.Servers {
		st := srv.Stats()
		h.fold(st.Served, st.Dropped, st.Refused, st.Blackholed)
	}
}

func weightOf(snap *control.Snapshot, i int) float64 {
	w := snap.Weights()
	if i < len(w) {
		return w[i]
	}
	return 0
}

// median returns the upper median of samples, which it reorders: a
// quickselect (Hoare partition around the middle element) in place.
func median(s []time.Duration) time.Duration {
	k := len(s) / 2
	lo, hi := 0, len(s)-1
	for lo < hi {
		pivot := s[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}
