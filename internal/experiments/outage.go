package experiments

import (
	"fmt"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/faults"
	"inbandlb/internal/netsim"
	"inbandlb/internal/server"
	"inbandlb/internal/stats"
	"inbandlb/internal/tcpsim"
	"inbandlb/internal/testbed"
)

// OutageConfig parameterizes the failure-recovery experiment: a step outage
// (Fig. 3's shape, but a hard failure instead of a 1 ms inflation) on one
// server of a small pool, comparing passive in-band detection against a
// probe-only health checker.
type OutageConfig struct {
	Seed     int64
	Duration time.Duration
	// ProbeInterval is the probe-only leg's health-check period (default
	// Duration/15 — out-of-band detection is orders of magnitude slower
	// than the in-band signal at any realistic probe rate).
	ProbeInterval time.Duration
}

// The outage and congestion experiments share one cluster shape: a pool
// of three servers whose fault hits server 0, a 2 ms control tick, and a
// closed loop of 16 connections × 50 requests. The client's 250 ms
// per-request deadline is what makes a blackholed server survivable at
// all.
const (
	faultServers         = 3
	faultControlInterval = 2 * time.Millisecond
	faultRequestTimeout  = 250 * time.Millisecond
	faultConnections     = 16
	faultRequestsPerConn = 50
)

// windowSample is how often the outage, congestion and Fig. 3 experiments
// sample their sliding-window p95 into a series.
const windowSample = 100 * time.Millisecond

func (c *OutageConfig) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = c.Duration / 15
	}
}

// outageLeg is the outcome of one detection mode.
type outageLeg struct {
	p95 *stats.Series
	// ejectDelay is outage start → server 0 unroutable (-1: never ejected).
	ejectDelay time.Duration
	// readmitDelay is outage end → server 0 fully healthy again (-1:
	// never readmitted).
	readmitDelay time.Duration
	timeouts     uint64
	aborts       uint64
	fallbacks    uint64
	responses    uint64
	preP95       time.Duration
	postP95      time.Duration
}

// simDetector tunes the passive detector for simulator timescales: ticks
// are 2 ms and the workload is a handful of closed-loop connections, so
// starvation shows up within a few ticks and backoffs are sub-second.
func simDetector(seed int64) control.DetectorConfig {
	return control.DetectorConfig{
		Enabled:          true,
		FailureThreshold: 3,
		StarvationTicks:  8,
		MinPoolSamples:   4,
		BackoffInitial:   200 * time.Millisecond,
		BackoffMax:       time.Second,
		// Keep trial traffic cheap: each half-open probe window admits a
		// 1/16 sliver of the backend's hash share for at most 100 ticks,
		// so an unhealed backend costs a handful of client timeouts per
		// trial instead of a steady stream.
		HalfOpenFraction: 1.0 / 16,
		HalfOpenTicks:    100,
		SlowStartTicks:   25,
		Seed:             seed,
	}
}

// outageCluster builds the OUTAGE scenario around pol: server 0 of the
// fault pool blackholes every connection during the middle third of the
// run, mirroring the mid-run step of Fig. 3. A blackhole (silent drop)
// rather than a refusal is the harder case, visible only through missing
// in-band samples and client timeouts. pol is wrapped in a controller
// ticking every faultControlInterval, with simDetector armed when
// detector is set. The outage experiment races static Maglev through it
// and the arena every contender.
func outageCluster(seed int64, duration time.Duration, pol control.Policy, detector bool) (*testbed.Cluster, *control.Controller, faults.Outage, error) {
	// Shards: 1 — single-goroutine sim: results must not follow GOMAXPROCS.
	ctrlCfg := control.ControllerConfig{Shards: 1, Interval: faultControlInterval}
	if detector {
		ctrlCfg.Detector = simDetector(seed)
	}
	ctrl := control.NewController(pol, ctrlCfg)

	sched := faults.Outage{Start: duration / 3, End: 2 * duration / 3, Blackhole: true}
	servers := make([]server.Config, faultServers)
	for i := range servers {
		servers[i] = server.Config{
			Name:    fmt.Sprintf("server-%d", i),
			Workers: 8,
			Service: server.LogNormal{Median: 150 * time.Microsecond, Sigma: 0.25},
		}
	}
	servers[0].ConnFaults = sched

	cluster, err := testbed.NewCluster(testbed.ClusterConfig{
		Seed:    seed,
		Policy:  ctrl,
		Servers: servers,
		Workload: tcpsim.RequestConfig{
			Connections:     faultConnections,
			RequestsPerConn: faultRequestsPerConn,
			RequestTimeout:  faultRequestTimeout,
			ReopenDelay:     500 * time.Microsecond,
			ThinkTime:       50 * time.Microsecond,
			ThinkJitter:     50 * time.Microsecond,
			GetFraction:     0.5,
		},
	})
	return cluster, ctrl, sched, err
}

func runOutageLeg(cfg OutageConfig, passive bool) (*outageLeg, error) {
	name := "probe-only"
	if passive {
		name = "passive"
	}
	maglev, err := control.NewMaglevStatic(serverNames(faultServers), 4093)
	if err != nil {
		return nil, err
	}
	cluster, ctrl, sched, err := outageCluster(cfg.Seed, cfg.Duration, maglev, passive)
	if err != nil {
		return nil, err
	}
	outageAt, outageEnd := sched.Start, sched.End

	leg := &outageLeg{
		p95:          stats.NewSeries("p95 " + name),
		ejectDelay:   -1,
		readmitDelay: -1,
	}

	// The probe-only leg models an out-of-band health checker: every
	// ProbeInterval it "connects" to server 0 (consults the fault schedule
	// the way a real TCP probe would experience it) and reports the result
	// to the controller's prober (ReportProbe), the same de-flapped active
	// checker the live proxy runs, with zero in-band signal.
	if !passive {
		const probeID = ^uint64(0)
		cluster.Sim.Every(cfg.ProbeInterval, cfg.ProbeInterval, func() bool {
			now := cluster.Sim.Now()
			ctrl.ReportProbe(0, sched.ConnFaultAt(now, probeID).Kind == faults.ConnNone)
			return now < cfg.Duration
		})
	}

	// Recovery-time observer: sampled at the control interval, so the
	// delays below are accurate to one tick.
	cluster.Sim.Every(faultControlInterval, faultControlInterval, func() bool {
		now, h := cluster.Sim.Now(), ctrl.Health(0)
		if leg.ejectDelay < 0 && now >= outageAt && h.Ejected() {
			leg.ejectDelay = now - outageAt
		}
		if leg.ejectDelay >= 0 && leg.readmitDelay < 0 && now >= outageEnd && h.State == control.Healthy {
			leg.readmitDelay = now - outageEnd
		}
		return now < cfg.Duration
	})

	window := stats.NewWindowedHistogram(10, windowSample)
	preHist := stats.NewDefaultHistogram()
	postHist := stats.NewDefaultHistogram()
	postFrom := cfg.Duration - (cfg.Duration-outageEnd)/2
	cluster.Client.OnResponse = func(now time.Duration, op netsim.Op, lat time.Duration) {
		window.Record(now, lat)
		if now >= outageAt/2 && now < outageAt {
			preHist.Record(lat)
		}
		if now >= postFrom {
			postHist.Record(lat)
		}
	}
	cluster.Sim.Every(windowSample, windowSample, func() bool {
		now := cluster.Sim.Now()
		if window.Count(now) > 0 {
			leg.p95.AddDuration(now, window.Quantile(now, 0.95))
		}
		return now < cfg.Duration
	})

	cluster.Run(cfg.Duration)

	cs := cluster.Client.Stats()
	leg.timeouts = cs.Timeouts
	leg.aborts = cs.Aborts
	leg.responses = cs.Responses
	leg.fallbacks = cluster.LB.Stats().Fallbacks
	leg.preP95 = preHist.Quantile(0.95)
	leg.postP95 = postHist.Quantile(0.95)
	return leg, nil
}

// Outage compares failure detection modes on a step outage: server 0 of the
// pool blackholes every connection during the middle third of
// the run. The passive leg ejects on the in-band signal alone — the sample
// stream going silent — within a few control ticks, re-admits through
// half-open trials and a slow-start ramp, and sheds only the connections
// caught in flight. The probe-only leg waits for an out-of-band health
// checker to accumulate consecutive failures, during which every new flow
// hashed to the dead server burns a full client timeout.
func Outage(cfg OutageConfig) *Result {
	cfg.applyDefaults()
	res := newResult("outage")

	passive, err := runOutageLeg(cfg, true)
	if err != nil {
		res.addNote("passive leg failed: %v", err)
		return res
	}
	probe, err := runOutageLeg(cfg, false)
	if err != nil {
		res.addNote("probe-only leg failed: %v", err)
		return res
	}

	res.Series = append(res.Series, passive.p95, probe.p95)
	res.Header = []string{"detection", "eject_ms", "readmit_ms", "timeouts", "aborts", "fallbacks", "p95_pre_ms", "p95_post_ms", "responses"}
	rowFor := func(name string, l *outageLeg) {
		eject, readmit := "never", "never"
		if l.ejectDelay >= 0 {
			eject = msStr(l.ejectDelay)
		}
		if l.readmitDelay >= 0 {
			readmit = msStr(l.readmitDelay)
		}
		res.addRow(name, eject, readmit,
			fmt.Sprintf("%d", l.timeouts), fmt.Sprintf("%d", l.aborts),
			fmt.Sprintf("%d", l.fallbacks),
			msStr(l.preP95), msStr(l.postP95), fmt.Sprintf("%d", l.responses))
	}
	rowFor("passive", passive)
	rowFor("probe-only", probe)

	for name, l := range map[string]*outageLeg{"passive": passive, "probe": probe} {
		res.Metrics[name+"_eject_ms"] = float64(l.ejectDelay) / 1e6
		res.Metrics[name+"_readmit_ms"] = float64(l.readmitDelay) / 1e6
		res.Metrics[name+"_timeouts"] = float64(l.timeouts)
		res.Metrics[name+"_pre_p95_ms"] = float64(l.preP95) / 1e6
		res.Metrics[name+"_post_p95_ms"] = float64(l.postP95) / 1e6
	}
	if passive.ejectDelay >= 0 && probe.ejectDelay >= 0 {
		res.addNote("passive detection ejected the dead server %v after the outage began; the %v-interval prober took %v",
			passive.ejectDelay, cfg.ProbeInterval, probe.ejectDelay)
	}
	res.addNote("client timeouts: %d passive vs %d probe-only — the in-band signal turns an outage from a timeout storm into a blip",
		passive.timeouts, probe.timeouts)
	return res
}
