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

// Fig3Config parameterizes the Fig. 3 reproduction: a two-server
// memcached-like cluster behind the LB, with 1 ms of delay injected on one
// LB→server path mid-run, comparing static Maglev to the latency-aware
// feedback controller.
type Fig3Config struct {
	Seed     int64
	Duration time.Duration
	// InjectAt is when the extra delay starts (paper: t = 100 s at 200 s
	// total; the default scales to the simulated duration's midpoint).
	InjectAt time.Duration
	// Alpha is the controller's shift fraction (paper: 0.10).
	Alpha float64
}

// The Fig. 3 cluster: two servers (paper: 2), with the paper's 1 ms of
// one-way delay injected on server 0. The controller is tempered by a
// 1 ms cooldown and a 1.15 hysteresis ratio, and floors the degraded
// server's share at 0.02 so it keeps probing it. The memtier-like load is
// 8 connections × 100 requests at pipeline depth 1, memtier's default: a
// closed loop per connection, whose inter-request gap is exactly the
// response latency the estimator measures. A request unanswered after
// 250 ms counts as a timeout rather than stalling its connection.
const (
	fig3Servers         = 2
	fig3InjectExtra     = time.Millisecond
	fig3Cooldown        = time.Millisecond
	fig3Hysteresis      = 1.15
	fig3MinWeight       = 0.02
	fig3Connections     = 8
	fig3Pipeline        = 1
	fig3RequestsPerConn = 100
	fig3RequestTimeout  = 250 * time.Millisecond
)

func (c *Fig3Config) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 20 * time.Second
	}
	if c.InjectAt <= 0 {
		c.InjectAt = c.Duration / 2
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.10
	}
}

// fig3Run is the single-policy leg of the experiment.
type fig3Run struct {
	p95     *stats.Series
	preP95  time.Duration
	postP95 time.Duration
	// reaction is the delay from injection to the first hash-table update
	// shifting weight off the degraded server (-1 when not applicable).
	reaction time.Duration
	shifts   uint64
	// shiftsSteady counts table updates during the final quarter of the
	// run — after recovery the controller should be quiet, so this is the
	// oscillation signature.
	shiftsSteady uint64
	getCount     uint64
	newPerBack   []uint64
}

func serverNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("server-%d", i)
	}
	return names
}

// fig3Cluster builds the Fig. 3 scenario around pol: fig3InjectExtra of
// one-way delay lands on the LB→server-0 path at injectAt, and every
// request gives up after fig3RequestTimeout. The Fig. 3 experiment and its
// ablations race their controllers through it, and the arena every
// contender.
func fig3Cluster(seed int64, injectAt time.Duration, pol control.Policy) (*testbed.Cluster, error) {
	schedules := make([]faults.Schedule, fig3Servers)
	schedules[0] = faults.Step{Start: injectAt, Extra: fig3InjectExtra}
	for i := 1; i < fig3Servers; i++ {
		schedules[i] = faults.None
	}

	servers := make([]server.Config, fig3Servers)
	for i := range servers {
		servers[i] = server.Config{
			Name:    fmt.Sprintf("server-%d", i),
			Workers: 8,
			// Lognormal with mild hiccups: the µs-scale variability the
			// paper motivates, without drowning the injected 1 ms.
			Service: server.Bimodal{
				Fast:  server.LogNormal{Median: 150 * time.Microsecond, Sigma: 0.25},
				Slow:  server.Uniform{Low: 400 * time.Microsecond, High: 900 * time.Microsecond},
				PSlow: 0.02,
			},
		}
	}

	return testbed.NewCluster(testbed.ClusterConfig{
		Seed:                seed,
		Policy:              pol,
		Servers:             servers,
		ServerPathSchedules: schedules,
		Workload: tcpsim.RequestConfig{
			Connections:     fig3Connections,
			Pipeline:        fig3Pipeline,
			RequestsPerConn: fig3RequestsPerConn,
			RequestTimeout:  fig3RequestTimeout,
			ReopenDelay:     500 * time.Microsecond,
			ThinkTime:       50 * time.Microsecond,
			ThinkJitter:     50 * time.Microsecond,
			GetFraction:     0.5,
		},
	})
}

func runFig3Leg(cfg Fig3Config, policyName string) (*fig3Run, error) {
	pol, err := control.BuildPolicy(policyName, control.PolicySpec{
		Backends:        serverNames(fig3Servers),
		TableSize:       4093,
		Alpha:           cfg.Alpha,
		MinWeight:       fig3MinWeight,
		Interval:        fig3Cooldown,
		HysteresisRatio: fig3Hysteresis,
	})
	if err != nil {
		return nil, err
	}
	cluster, err := fig3Cluster(cfg.Seed, cfg.InjectAt, pol)
	if err != nil {
		return nil, err
	}

	run := &fig3Run{
		p95:      stats.NewSeries("p95 GET " + policyName),
		reaction: -1,
	}
	steadyFrom := cfg.Duration - (cfg.Duration-cfg.InjectAt)/4
	// A reaction is the first update after injection that takes weight off
	// the degraded server 0.
	prevW0 := 1.0 / fig3Servers
	onUpdate := func(now time.Duration, weights []float64) {
		run.shifts++
		if now >= steadyFrom {
			run.shiftsSteady++
		}
		if run.reaction < 0 && now >= cfg.InjectAt && weights[0] < prevW0 {
			run.reaction = now - cfg.InjectAt
		}
		prevW0 = weights[0]
	}
	switch p := pol.(type) {
	case *control.LatencyAware:
		p.OnUpdate = onUpdate
	case *control.Proportional:
		p.OnUpdate = onUpdate
	case *control.KnapsackGreedy:
		p.OnUpdate = onUpdate
	}

	// Sliding-window p95 of GET latency, sampled periodically like the
	// paper's client-side statistics — but from the client's ground truth.
	window := stats.NewWindowedHistogram(10, windowSample)
	var preHist, postHist *stats.Histogram
	preHist = stats.NewDefaultHistogram()
	postHist = stats.NewDefaultHistogram()
	cluster.Client.OnResponse = func(now time.Duration, op netsim.Op, lat time.Duration) {
		if op != netsim.OpGet {
			return
		}
		run.getCount++
		window.Record(now, lat)
		// Steady-state phases only: skip warmup and the transition window.
		if now >= cfg.InjectAt/2 && now < cfg.InjectAt {
			preHist.Record(lat)
		}
		if now >= cfg.InjectAt+(cfg.Duration-cfg.InjectAt)/4 {
			postHist.Record(lat)
		}
	}

	cluster.Sim.Every(windowSample, windowSample, func() bool {
		now := cluster.Sim.Now()
		if window.Count(now) > 0 {
			run.p95.AddDuration(now, window.Quantile(now, 0.95))
		}
		return now < cfg.Duration
	})

	cluster.Run(cfg.Duration)

	run.preP95 = preHist.Quantile(0.95)
	run.postP95 = postHist.Quantile(0.95)
	run.newPerBack = cluster.LB.Stats().NewPerBack
	return run, nil
}

// Fig3 reproduces Fig. 3: evolution of the p95 GET latency for the static
// Maglev baseline and the latency-aware controller, with +1 ms injected on
// one server path mid-run. Expected shape: both p95s jump at injection;
// Maglev's stays inflated (~half the requests keep hitting the slow
// server), while the latency-aware controller shifts traffic within
// milliseconds and its p95 recovers toward baseline.
func Fig3(cfg Fig3Config) *Result {
	cfg.applyDefaults()
	res := newResult("fig3")

	maglev, err := runFig3Leg(cfg, "maglev")
	if err != nil {
		res.addNote("maglev leg failed: %v", err)
		return res
	}
	aware, err := runFig3Leg(cfg, "latency-aware")
	if err != nil {
		res.addNote("latency-aware leg failed: %v", err)
		return res
	}

	res.Series = append(res.Series, maglev.p95, aware.p95)
	res.Header = []string{"policy", "p95_pre_ms", "p95_post_ms", "post/pre", "reaction_ms", "table_updates", "gets"}
	rowFor := func(name string, r *fig3Run) {
		ratio := float64(r.postP95) / float64(r.preP95)
		reaction := "n/a"
		if r.reaction >= 0 {
			reaction = msStr(r.reaction)
		}
		res.addRow(name, msStr(r.preP95), msStr(r.postP95),
			fmt.Sprintf("%.2f", ratio), reaction, fmt.Sprintf("%d", r.shifts), fmt.Sprintf("%d", r.getCount))
	}
	rowFor("maglev", maglev)
	rowFor("latency-aware", aware)

	res.Metrics["maglev_pre_p95_ms"] = float64(maglev.preP95) / 1e6
	res.Metrics["maglev_post_p95_ms"] = float64(maglev.postP95) / 1e6
	res.Metrics["aware_pre_p95_ms"] = float64(aware.preP95) / 1e6
	res.Metrics["aware_post_p95_ms"] = float64(aware.postP95) / 1e6
	if aware.reaction >= 0 {
		res.Metrics["reaction_ms"] = float64(aware.reaction) / 1e6
		res.addNote("controller shifted traffic off the degraded server %v after injection", aware.reaction)
	}
	res.addNote("maglev p95 inflation: %.2fx; latency-aware: %.2fx",
		float64(maglev.postP95)/float64(maglev.preP95),
		float64(aware.postP95)/float64(aware.preP95))
	res.addNote("post-injection new flows per backend: maglev %v, latency-aware %v",
		maglev.newPerBack, aware.newPerBack)
	return res
}
