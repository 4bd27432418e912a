package experiments

import (
	"fmt"
	"sort"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/faults"
	"inbandlb/internal/netsim"
	"inbandlb/internal/server"
	"inbandlb/internal/stats"
	"inbandlb/internal/tcpsim"
	"inbandlb/internal/testbed"
)

// CongestionConfig parameterizes the transport-distress experiment: a
// bandwidth collapse on one server's uplink, comparing a detector that acts
// on in-band congestion signals (retransmissions, dup-ACK runs, zero-window
// stalls mined from the client→server stream) against one that waits for
// the latency-outlier evidence the same collapse eventually produces.
type CongestionConfig struct {
	Seed     int64
	Duration time.Duration
}

// The collapsed link's shape. The rate in bytes/second is tight enough
// that a loaded request window serializes into RTO range within tens of
// milliseconds. The queue bound makes sustained overload tail-drop
// instead of buffering forever, which is what turns a collapse into
// client-visible timeouts.
const (
	collapseRate       = 40e3
	collapseQueueLimit = 64
)

func (c *CongestionConfig) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
}

// congestionLeg is the outcome of one detection mode.
type congestionLeg struct {
	p95 *stats.Series
	// reactDelay is collapse start → server 0 no longer fully admitted
	// (weight-down latch or ejection; -1: never reacted).
	reactDelay time.Duration
	// medianMoveDelay is collapse start → the LB's in-band sample median
	// for server 0 exceeding 3× its pre-collapse value (-1: never moved).
	// It bounds how soon any latency-median detector could possibly act.
	medianMoveDelay time.Duration
	timeouts        uint64
	responses       uint64
	fallbacks       uint64
	congObserved    uint64
	congEjections   uint64
}

// congestionDetector arms the latency-outlier path for both legs; only the
// signal leg additionally arms the transport-distress channel.
func congestionDetector(signals bool) control.DetectorConfig {
	d := control.DetectorConfig{
		Enabled:          true,
		FailureThreshold: 3,
		OutlierFactor:    3,
		OutlierTicks:     50,
		MinPoolSamples:   4,
		// A collapse throttles but does not silence: samples keep
		// trickling, so starvation stays out of the comparison.
		StarvationTicks:  200,
		BackoffInitial:   200 * time.Millisecond,
		BackoffMax:       time.Second,
		HalfOpenFraction: 1.0 / 16,
		HalfOpenTicks:    100,
		SlowStartTicks:   25,
	}
	if signals {
		d.CongestionPerTick = 1
		d.CongestionTicks = 3
	}
	return d
}

func runCongestionLeg(cfg CongestionConfig, signals bool) (*congestionLeg, error) {
	name := "latency-only"
	if signals {
		name = "congestion-signal"
	}
	// The collapse hits server 0's link for the middle third of the run.
	collapseAt, collapseEnd := cfg.Duration/3, 2*cfg.Duration/3
	maglev, err := control.NewMaglevStatic(serverNames(faultServers), 4093)
	if err != nil {
		return nil, err
	}
	ctrl := control.NewController(maglev, control.ControllerConfig{
		Shards:   1, // single-goroutine sim: results must not follow GOMAXPROCS
		Interval: faultControlInterval,
		Detector: congestionDetector(signals),
	})

	servers := make([]server.Config, faultServers)
	for i := range servers {
		servers[i] = server.Config{
			Name:    fmt.Sprintf("server-%d", i),
			Workers: 8,
			Service: server.LogNormal{Median: 150 * time.Microsecond, Sigma: 0.25},
		}
	}

	cluster, err := testbed.NewCluster(testbed.ClusterConfig{
		Seed:    cfg.Seed,
		Policy:  ctrl,
		Servers: servers,
		// Both legs run the tracker so the dataplane is identical; the legs
		// differ only in whether the detector acts on what it reports.
		Congestion: true,
		Workload: tcpsim.RequestConfig{
			Connections:     faultConnections,
			RequestsPerConn: faultRequestsPerConn,
			RequestTimeout:  faultRequestTimeout,
			ReopenDelay:     500 * time.Microsecond,
			ThinkTime:       50 * time.Microsecond,
			ThinkJitter:     50 * time.Microsecond,
			GetFraction:     0.5,
			Pipeline:        2,
			// Transport knobs: the RTO sits far above the healthy
			// sub-millisecond round trip and far below RequestTimeout, so
			// retransmissions mark genuine queueing, always before the
			// client gives up.
			RetransmitTimeout: 20 * time.Millisecond,
			DupAckAge:         5 * time.Millisecond,
			ZeroWindowBurst:   8,
		},
	})
	if err != nil {
		return nil, err
	}
	collapse := faults.Collapse{Start: collapseAt, End: collapseEnd, Rate: collapseRate}
	cluster.ServerLinks[0].SetRateAt(collapse.RateAt)
	cluster.ServerLinks[0].QueueLimit = collapseQueueLimit

	leg := &congestionLeg{
		p95:             stats.NewSeries("p95 " + name),
		reactDelay:      -1,
		medianMoveDelay: -1,
	}

	// Reaction observer, sampled at the control interval: the first tick
	// after the collapse where server 0 is no longer fully admitted is when
	// the detector acted (congestion weight-down/eject on the signal leg,
	// latency-outlier ejection on the baseline).
	cluster.Sim.Every(faultControlInterval, faultControlInterval, func() bool {
		now := cluster.Sim.Now()
		if leg.reactDelay < 0 && now >= collapseAt && ctrl.Health(0).Admission < 1 {
			leg.reactDelay = now - collapseAt
		}
		return now < cfg.Duration
	})

	// Median-movement observer: a sliding window over server 0's in-band
	// samples, judged against the median of the last pre-collapse window.
	// Until it has tripled, no latency-median detector has evidence to act
	// on — which is exactly the head start the transport signals buy.
	const medianWindow = 31
	var ring []time.Duration
	var baseline time.Duration
	winMed := func() time.Duration {
		s := append([]time.Duration(nil), ring...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[len(s)/2]
	}
	cluster.LB.OnSample = func(now time.Duration, backend int, sample time.Duration) {
		if backend != 0 || leg.medianMoveDelay >= 0 {
			return
		}
		ring = append(ring, sample)
		if len(ring) > medianWindow {
			ring = ring[1:]
		}
		if len(ring) < medianWindow {
			return
		}
		if now < collapseAt {
			baseline = winMed()
			return
		}
		if baseline > 0 && winMed() > 3*baseline {
			leg.medianMoveDelay = now - collapseAt
		}
	}

	window := stats.NewWindowedHistogram(10, windowSample)
	cluster.Client.OnResponse = func(now time.Duration, op netsim.Op, lat time.Duration) {
		window.Record(now, lat)
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
	ls := cluster.LB.Stats()
	leg.timeouts = cs.Timeouts
	leg.responses = cs.Responses
	leg.fallbacks = ls.Fallbacks
	leg.congObserved = ls.Retrans + ls.DupAcks + ls.ZeroWins
	leg.congEjections = ctrl.Health(0).CongestionEjections
	return leg, nil
}

// Congestion compares detection channels on a mid-run bandwidth collapse:
// server 0's uplink drops to a trickle, so its queue builds, tail drops
// begin, and clients start retransmitting — all while responses that do get
// through still complete and the latency median climbs only as fast as the
// queue does. The congestion-signal leg reads the distress off the
// client→server stream and weighs the backend down within a few control
// ticks; the latency-only leg waits for the outlier detector's sustained
// median evidence, and every flow routed to the collapsed server in the
// meantime risks a full client timeout.
func Congestion(cfg CongestionConfig) *Result {
	cfg.applyDefaults()
	res := newResult("congestion")

	signal, err := runCongestionLeg(cfg, true)
	if err != nil {
		res.addNote("congestion-signal leg failed: %v", err)
		return res
	}
	latency, err := runCongestionLeg(cfg, false)
	if err != nil {
		res.addNote("latency-only leg failed: %v", err)
		return res
	}

	res.Series = append(res.Series, signal.p95, latency.p95)
	res.Header = []string{"detection", "react_ms", "median_move_ms", "timeouts", "fallbacks", "cong_events", "cong_ejections", "responses"}
	rowFor := func(name string, l *congestionLeg) {
		react, move := "never", "never"
		if l.reactDelay >= 0 {
			react = msStr(l.reactDelay)
		}
		if l.medianMoveDelay >= 0 {
			move = msStr(l.medianMoveDelay)
		}
		res.addRow(name, react, move,
			fmt.Sprintf("%d", l.timeouts), fmt.Sprintf("%d", l.fallbacks),
			fmt.Sprintf("%d", l.congObserved), fmt.Sprintf("%d", l.congEjections),
			fmt.Sprintf("%d", l.responses))
	}
	rowFor("congestion-signal", signal)
	rowFor("latency-only", latency)

	for name, l := range map[string]*congestionLeg{"signal": signal, "latency": latency} {
		res.Metrics[name+"_react_ms"] = float64(l.reactDelay) / 1e6
		res.Metrics[name+"_median_move_ms"] = float64(l.medianMoveDelay) / 1e6
		res.Metrics[name+"_timeouts"] = float64(l.timeouts)
		res.Metrics[name+"_responses"] = float64(l.responses)
		res.Metrics[name+"_cong_events"] = float64(l.congObserved)
		res.Metrics[name+"_cong_ejections"] = float64(l.congEjections)
	}
	if signal.reactDelay >= 0 && latency.reactDelay >= 0 {
		res.addNote("congestion signals reacted %v after the collapse began; the latency path took %v",
			signal.reactDelay, latency.reactDelay)
	} else if signal.reactDelay >= 0 {
		res.addNote("congestion signals reacted %v after the collapse began; the latency path never did — "+
			"a collapsed uplink also starves the completion stream the outlier detector feeds on, "+
			"while retransmissions arrive on the request path regardless",
			signal.reactDelay)
	}
	res.addNote("client timeouts: %d with congestion signals vs %d latency-only — transport distress reaches the detector before the latency median moves",
		signal.timeouts, latency.timeouts)
	return res
}
