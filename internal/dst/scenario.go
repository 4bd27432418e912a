// Package dst is a deterministic simulation-testing harness in the
// FoundationDB style: from a single integer seed it derives a random
// topology, a random closed-loop workload mix, and a random fault
// schedule; runs the whole stack (client → LB → control plane → servers)
// on the simulated clock; and checks invariant oracles every tick —
// conservation identities, routing-snapshot sanity, estimator bounds, and
// post-fault liveness. Every run is a pure function of its Scenario, so a
// violation found anywhere (a nightly seed sweep, a -race shard, a
// laptop) replays everywhere, and a bisecting shrinker reduces the fault
// schedule to a minimal counterexample with a copy-pasteable repro line.
package dst

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"inbandlb/internal/tcpsim"
)

// FaultKind enumerates the fault primitives the generator draws from.
// Latency steps land on the LB→server link (faults.Step); the connection
// kinds land on the server's ConnFaults schedule (faults.Outage /
// faults.Flaky / faults.Reset), exactly the knobs the chaos wrappers use
// against live listeners.
type FaultKind uint8

const (
	// FaultLatencyStep inflates one server's path delay during the window.
	FaultLatencyStep FaultKind = iota
	// FaultOutageRefuse RSTs every connection to the server (fail-fast).
	FaultOutageRefuse
	// FaultOutageBlackhole silently drops everything (fail-silent — the
	// hard case, visible only as the in-band sample stream going quiet).
	FaultOutageBlackhole
	// FaultFlaky fails a deterministic P-fraction of flows with an RST.
	FaultFlaky
	// FaultReset kills accepted flows mid-stream after AfterBytes.
	FaultReset
	// FaultBandwidthCollapse throttles one LB→server link to Rate
	// bytes/second with a bounded queue: requests serialize slowly, tail
	// drops begin, and the client's RTO fires — retransmissions the LB's
	// congestion tracker sees long before latency medians move.
	FaultBandwidthCollapse
	// FaultIncast batches one server's responses into back-to-back bursts
	// (coalesced for Extra per window), driving the client's receive
	// buffer into zero-window advertisements.
	FaultIncast
	// FaultQueueRamp inflates one server's service time along a linear ramp
	// (queue buildup rather than a step), aging older in-flight requests
	// into dup-ACK territory while throughput only sags gradually.
	FaultQueueRamp
	// FaultHotKey turns a Fraction of client connections hot (think time
	// divided by Factor) for the window — zipfian-style skew concentrating
	// load on whichever backends those flows are pinned to.
	FaultHotKey
	// FaultHerd aborts every client connection at Start: a thundering-herd
	// reconnect storm through the standard abort/reopen path.
	FaultHerd
	// FaultAutoscale removes the backend from the pool at Start and returns
	// it at End (SetEjected veto both ways) — autoscale churn exercising
	// mid-run Maglev disruption and slow-start re-admission.
	FaultAutoscale
)

// String names the kind for repro logs.
func (k FaultKind) String() string {
	switch k {
	case FaultLatencyStep:
		return "latency-step"
	case FaultOutageRefuse:
		return "outage-refuse"
	case FaultOutageBlackhole:
		return "outage-blackhole"
	case FaultFlaky:
		return "flaky"
	case FaultReset:
		return "reset"
	case FaultBandwidthCollapse:
		return "bandwidth-collapse"
	case FaultIncast:
		return "incast"
	case FaultQueueRamp:
		return "queue-ramp"
	case FaultHotKey:
		return "hot-key"
	case FaultHerd:
		return "herd"
	case FaultAutoscale:
		return "autoscale"
	}
	return "unknown"
}

// FaultSpec is one scheduled fault. It is plain data — independent of the
// seed that produced it — so the shrinker can delete entries and bisect
// windows while everything else about the scenario stays fixed.
type FaultSpec struct {
	Kind   FaultKind
	Server int
	Start  time.Duration
	End    time.Duration
	// Extra is the injected path delay (FaultLatencyStep only).
	Extra time.Duration
	// P is the failure probability (FaultFlaky only).
	P float64
	// AfterBytes is the mid-stream kill threshold (FaultReset only).
	AfterBytes int
	// Seed drives the flaky schedule's per-flow coin.
	Seed uint64
	// Rate is the collapsed line rate in bytes/s (FaultBandwidthCollapse).
	Rate float64
	// Rise is the ramp duration before the plateau (FaultQueueRamp).
	Rise time.Duration
	// Fraction is the share of connections turned hot (FaultHotKey).
	Fraction float64
	// Factor divides hot connections' think time (FaultHotKey).
	Factor int
}

// String renders the spec for violation reports and repro logs.
func (f FaultSpec) String() string {
	s := fmt.Sprintf("%v@server-%d[%v,%v)", f.Kind, f.Server, f.Start, f.End)
	switch f.Kind {
	case FaultLatencyStep:
		s += fmt.Sprintf("+%v", f.Extra)
	case FaultFlaky:
		s += fmt.Sprintf(" p=%.2f", f.P)
	case FaultReset:
		s += fmt.Sprintf(" after=%dB", f.AfterBytes)
	case FaultBandwidthCollapse:
		s += fmt.Sprintf(" rate=%.0fB/s", f.Rate)
	case FaultIncast:
		s += fmt.Sprintf(" hold=%v", f.Extra)
	case FaultQueueRamp:
		s += fmt.Sprintf("+%v rise=%v", f.Extra, f.Rise)
	case FaultHotKey:
		s += fmt.Sprintf(" frac=%.2f x%d", f.Fraction, f.Factor)
	}
	return s
}

// Scenario is a fully materialized test case: topology, workload, control
// settings, and fault schedule. Generate fills one deterministically from
// a seed; the shrinker edits Faults and calls finalize to recompute the
// derived timeline. Running a Scenario twice yields byte-identical trace
// digests.
type Scenario struct {
	Seed     int64
	Backends int

	// Per-server heterogeneity, indexed by backend.
	ServiceMedian []time.Duration // log-normal service-time median
	ServiceSigma  []float64       // log-normal spread
	Workers       []int           // service concurrency
	QueueLimit    []int           // 0 = unbounded
	BaseDelay     []time.Duration // static extra LB→server path delay

	// Path delays and client-link bandwidth (0 = infinite).
	ClientToLB     time.Duration
	LBToServer     time.Duration
	ServerToClient time.Duration
	LinkRate       float64

	// Workload is the closed-loop request mix (connection churn supplies
	// the quasi-open-loop arrival process; Pipeline > 1 supplies bursts;
	// Keys/KeyZipfS supply skew).
	Workload tcpsim.RequestConfig

	// Control-plane shape. Policy names a registered routing policy
	// (control.PolicyNames); empty selects the paper's latency-aware
	// α-shift controller. Generate never sets it — the field exists so the
	// same seed can replay under any policy (-dst.policy, the arena).
	Policy          string
	ControlInterval time.Duration
	Alpha           float64
	MinWeight       float64
	TableSize       int

	Faults []FaultSpec

	// Congestion enables the transport-distress channel end to end: the
	// workload emits retransmissions / dup-ACKs / zero-windows under
	// pressure, the LB tracks each connection's congestion state, and the
	// detector's congestion early-ejection is armed. GenerateCongestion
	// sets it.
	Congestion bool

	// CheckInterval is the oracle cadence.
	CheckInterval time.Duration

	// Derived timeline (finalize).
	FirstFault   time.Duration // earliest fault start; 0 when no faults
	LastFaultEnd time.Duration // latest fault end (warmupEnd when none)
	CleanFrom    time.Duration // all faults over, detector settled
	Duration     time.Duration // run length == the recovery deadline
}

// Generator timeline: faults are confined to a mid-run band so the
// estimator warms up on clean traffic and the tail is long enough for the
// liveness deadline to be meaningful.
const (
	warmupEnd  = 800 * time.Millisecond
	faultUntil = 2600 * time.Millisecond
	// cleanSettle pads the last fault's end before post-fault baselines
	// are taken: in-flight timeouts and backoff timers drain first.
	cleanSettle = 400 * time.Millisecond
)

// recoveryMargin is the seed-derived liveness budget after the last fault
// ends: re-probe backoffs are bounded (≤ 400 ms), but half-open trial
// traffic arrives only when a reopened connection hashes into the trial
// sliver, which thins with pool size — hence the per-backend term.
func recoveryMargin(backends int) time.Duration {
	return 1500*time.Millisecond + time.Duration(backends)*100*time.Millisecond
}

// Generate derives a full scenario from seed. Constraints the oracles
// rely on: every fault window sits inside [warmupEnd, faultUntil); at
// least one backend never receives a connection fault (the pool stays
// routable); the client's request timeout exceeds any honest latency the
// schedule can produce, so only genuine blackholes burn timeouts.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	us := usFn(rng)
	sc := generateBase(rng, seed)
	b := sc.Backends

	// Fault schedule. One backend is protected from connection faults so
	// the detector can never be asked to empty the pool.
	protected := rng.Intn(b)
	nf := 1 + rng.Intn(5)
	for i := 0; i < nf; i++ {
		start := warmupEnd + time.Duration(rng.Int63n(int64(1400*time.Millisecond)))
		length := 150*time.Millisecond + time.Duration(rng.Int63n(int64(850*time.Millisecond)))
		end := start + length
		if end > faultUntil {
			end = faultUntil
		}
		f := FaultSpec{Start: start, End: end, Server: rng.Intn(b)}
		switch r := rng.Intn(100); {
		case r < 30:
			f.Kind = FaultLatencyStep
			f.Extra = us(500, 3500)
		case r < 50:
			f.Kind = FaultOutageRefuse
		case r < 70:
			f.Kind = FaultOutageBlackhole
		case r < 90:
			f.Kind = FaultFlaky
			f.P = 0.05 + 0.30*rng.Float64()
			f.Seed = uint64(rng.Int63())
		default:
			f.Kind = FaultReset
			f.AfterBytes = 256 + rng.Intn(4096)
		}
		if f.Kind != FaultLatencyStep && f.Server == protected {
			f.Server = (f.Server + 1 + rng.Intn(b-1)) % b
		}
		sc.Faults = append(sc.Faults, f)
	}
	sc.finalize()
	return sc
}

// GenerateCongestion derives a congestion-flavored scenario from seed: the
// same base topology and workload distribution as Generate (byte-for-byte
// the same rng draw order, so the two generators agree on everything but
// the fault schedule), plus transport-distress emission knobs and a fault
// schedule drawn exclusively from the six congestion kinds. The scenario
// arms the whole distress channel: client emission, the LB's per-connection
// congestion state, and the detector's congestion early-ejection.
func GenerateCongestion(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	us := usFn(rng)
	sc := generateBase(rng, seed)
	sc.Congestion = true
	b := sc.Backends

	// Distress emission knobs. The RTO sits well above any honest RTT the
	// base topology can produce (sub-millisecond paths, sub-millisecond
	// service medians) and well below RequestTimeout (80–200 ms), so
	// retransmissions fire only under genuine queueing and always before
	// the client gives up on the request.
	sc.Workload.RetransmitTimeout = time.Duration(15+rng.Intn(16)) * time.Millisecond
	sc.Workload.DupAckAge = time.Duration(5+rng.Intn(6)) * time.Millisecond
	sc.Workload.ZeroWindowBurst = 6 + rng.Intn(5)

	protected := rng.Intn(b)
	nf := 1 + rng.Intn(4)
	var haveHot, haveAuto bool
	for i := 0; i < nf; i++ {
		start := warmupEnd + time.Duration(rng.Int63n(int64(1400*time.Millisecond)))
		length := 150*time.Millisecond + time.Duration(rng.Int63n(int64(850*time.Millisecond)))
		end := start + length
		if end > faultUntil {
			end = faultUntil
		}
		f := FaultSpec{Start: start, End: end, Server: rng.Intn(b)}
		kind := rng.Intn(6)
		// At most one hot-key and one autoscale window per run: stacked
		// skew windows multiply into starvation, and overlapping pool
		// shrinks could leave nothing routable. The fallback is
		// deterministic and burns no extra draws.
		if (kind == 3 && haveHot) || (kind == 5 && haveAuto) {
			kind = 2
		}
		switch kind {
		case 0:
			f.Kind = FaultBandwidthCollapse
			// 20–80 KB/s against 128 B requests + up-to-4 KB responses:
			// tight enough that a loaded window serializes into RTO range.
			f.Rate = 20e3 + 60e3*rng.Float64()
		case 1:
			f.Kind = FaultIncast
			f.Extra = time.Duration(2+rng.Intn(7)) * time.Millisecond
		case 2:
			f.Kind = FaultQueueRamp
			f.Extra = us(1500, 6000)
			f.Rise = (end - start) / 2
		case 3:
			f.Kind = FaultHotKey
			f.Fraction = 0.1 + 0.2*rng.Float64()
			f.Factor = 4 + rng.Intn(5)
			haveHot = true
		case 4:
			f.Kind = FaultHerd
		case 5:
			f.Kind = FaultAutoscale
			haveAuto = true
		}
		// Collapse starves its target's sample stream and autoscale removes
		// it outright; keeping both off the protected backend keeps the
		// pool routable, same contract as Generate.
		if (f.Kind == FaultBandwidthCollapse || f.Kind == FaultAutoscale) && f.Server == protected {
			f.Server = (f.Server + 1 + rng.Intn(b-1)) % b
		}
		sc.Faults = append(sc.Faults, f)
	}
	sc.finalize()
	return sc
}

// usFn returns a microsecond-range draw helper bound to rng.
func usFn(rng *rand.Rand) func(lo, hi int) time.Duration {
	return func(lo, hi int) time.Duration {
		return time.Duration(lo+rng.Intn(hi-lo+1)) * time.Microsecond
	}
}

// generateBase draws everything except the fault schedule: topology,
// per-server heterogeneity, and workload. Both generators share it, and
// the rng draw order here is load-bearing — shrunk-regression seeds and
// the generator-bounds tests replay against the exact sequence, so edits
// must not insert, remove, or reorder draws.
func generateBase(rng *rand.Rand, seed int64) Scenario {
	us := usFn(rng)

	b := 2 + rng.Intn(15) // 2..16
	sc := Scenario{
		Seed:            seed,
		Backends:        b,
		ServiceMedian:   make([]time.Duration, b),
		ServiceSigma:    make([]float64, b),
		Workers:         make([]int, b),
		QueueLimit:      make([]int, b),
		BaseDelay:       make([]time.Duration, b),
		ClientToLB:      us(20, 100),
		LBToServer:      us(20, 100),
		ControlInterval: 2 * time.Millisecond,
		CheckInterval:   10 * time.Millisecond,
		Alpha:           0.05 + 0.10*rng.Float64(),
		MinWeight:       0.02 + 0.03*rng.Float64(),
		TableSize:       1021,
	}
	sc.ServerToClient = sc.ClientToLB + sc.LBToServer
	if rng.Intn(5) < 2 {
		sc.LinkRate = 1e8 * (1 + 9*rng.Float64()) // 100 MB/s .. 1 GB/s
	}
	for i := 0; i < b; i++ {
		sc.ServiceMedian[i] = us(80, 400)
		sc.ServiceSigma[i] = 0.1 + 0.5*rng.Float64()
		sc.Workers[i] = 2 + rng.Intn(7)
		if rng.Intn(5) < 2 {
			// Bounded queue, but deeper than the client's total pipeline
			// capacity so overload shedding needs a fault to happen.
			sc.QueueLimit[i] = 64 + rng.Intn(448)
		}
		sc.BaseDelay[i] = us(0, 200)
	}

	pipeline := 1
	if rng.Intn(4) == 0 {
		pipeline = 2 // bursty mode: paired sends, sub-RTT gaps at the LB
	}
	wl := tcpsim.RequestConfig{
		// Scale concurrency with the pool so every backend sees flows at
		// a usable rate even at 16 backends; below ~1 connection per
		// backend the sample stream is mostly silence and the detector's
		// low-concurrency caveats dominate the run.
		Connections:     b + 2 + rng.Intn(9),
		Pipeline:        pipeline,
		RequestsPerConn: 10 + rng.Intn(21), // 10..30: churn feeds re-routing
		ReopenDelay:     us(100, 600),
		ThinkTime:       us(300, 1200),
		GetFraction:     0.3 + 0.4*rng.Float64(),
		RequestTimeout:  time.Duration(80+rng.Intn(120)) * time.Millisecond,
	}
	wl.ThinkJitter = time.Duration(rng.Int63n(int64(wl.ThinkTime)/2 + 1))
	if rng.Intn(2) == 0 {
		wl.Keys = 64 + rng.Intn(1000)
		if rng.Intn(2) == 0 {
			wl.KeyZipfS = 1.05 + 0.4*rng.Float64()
		}
	}
	sc.Workload = wl
	return sc
}

// finalize recomputes the derived timeline from the current fault list.
// The shrinker calls it after every edit, so shrunk scenarios also shrink
// their run length (faults that end earlier move the deadline up).
func (sc *Scenario) finalize() {
	sc.FirstFault, sc.LastFaultEnd = 0, warmupEnd
	for i, f := range sc.Faults {
		if i == 0 || f.Start < sc.FirstFault {
			sc.FirstFault = f.Start
		}
		if f.End > sc.LastFaultEnd {
			sc.LastFaultEnd = f.End
		}
	}
	sc.CleanFrom = sc.LastFaultEnd + cleanSettle
	sc.Duration = sc.LastFaultEnd + recoveryMargin(sc.Backends)
	// Round up so the last oracle check lands exactly at the end.
	if rem := sc.Duration % sc.CheckInterval; rem != 0 {
		sc.Duration += sc.CheckInterval - rem
	}
}

// PolicyName resolves the scenario's policy, defaulting to the paper's
// latency-aware controller when the field is unset.
func (sc *Scenario) PolicyName() string {
	if sc.Policy == "" {
		return "latency-aware"
	}
	return sc.Policy
}

// cleanAt reports whether t lies outside every fault window with enough
// margin that in-band samples taken at t reflect steady-state latency —
// the gate for the estimator-bounds oracle.
func (sc *Scenario) cleanAt(t time.Duration) bool {
	if t < 300*time.Millisecond {
		return false // estimator still warming up
	}
	if len(sc.Faults) == 0 {
		return true
	}
	if t+50*time.Millisecond < sc.FirstFault {
		return true
	}
	return t >= sc.CleanFrom
}

// blackholedOver reports whether a blackhole on backend b covers all of
// [from, to].
func (sc *Scenario) blackholedOver(b int, from, to time.Duration) bool {
	for _, f := range sc.Faults {
		if f.Kind == FaultOutageBlackhole && f.Server == b && from >= f.Start && to <= f.End {
			return true
		}
	}
	return false
}

// ReproLine renders the exact command that replays this scenario: the
// seed regenerates everything, policy selects the routing policy (empty =
// default), keep selects the (possibly shrunk) fault subset, mutate
// re-enables the deliberately broken controller.
func ReproLine(seed int64, policy string, kept []int, mutated, congestion bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "go test ./internal/dst -run 'TestDST$' -dst.seed=%d", seed)
	if congestion {
		sb.WriteString(" -dst.congestion")
	}
	if policy != "" && policy != "latency-aware" {
		fmt.Fprintf(&sb, " -dst.policy=%s", policy)
	}
	if kept != nil {
		parts := make([]string, len(kept))
		for i, k := range kept {
			parts[i] = fmt.Sprintf("%d", k)
		}
		fmt.Fprintf(&sb, " -dst.keep=%s", strings.Join(parts, ","))
	}
	if mutated {
		sb.WriteString(" -dst.mutate")
	}
	return sb.String()
}
