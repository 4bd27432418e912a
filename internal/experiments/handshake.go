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

// AblationHandshake (ABL-SYN) compares the paper's general
// causally-triggered-transmission estimator against its "simple
// instantiation": measuring only the SYN→first-data gap of each
// connection. The handshake signal needs no timeout tuning but yields one
// sample per connection — sparse, and blind to mid-connection degradation
// until connections churn.
func AblationHandshake(seed int64, duration time.Duration) *Result {
	res := newResult("abl-handshake")
	res.Header = []string{"measurement", "samples", "post_p95_ms", "reaction_ms"}
	if duration <= 0 {
		duration = 4 * time.Second
	}
	injectAt := duration / 2
	for _, mode := range []string{"ensemble", "handshake"} {
		samples, postP95, reaction, preDrained, err := runHandshakeLeg(seed, duration, injectAt, mode)
		if err != nil {
			res.addNote("%s failed: %v", mode, err)
			continue
		}
		reactionStr := "n/a"
		if reaction >= 0 {
			reactionStr = msStr(reaction)
		} else if preDrained {
			// The sparse signal's noise had already drained the (then
			// healthy) server before the injection — an instability worth
			// reporting, not a reaction.
			reactionStr = "pre-drained"
			res.Metrics["pre_drained_"+mode] = 1
		}
		res.addRow(mode, fmt.Sprintf("%d", samples), msStr(postP95), reactionStr)
		res.Metrics["samples_"+mode] = float64(samples)
		res.Metrics["post_p95_ms_"+mode] = float64(postP95) / 1e6
		if reaction >= 0 {
			res.Metrics["reaction_ms_"+mode] = float64(reaction) / 1e6
		}
	}
	res.addNote("the SYN-based signal also recovers the tail but with orders of magnitude fewer samples and reaction bounded by connection churn, not by packet arrivals (the paper's motivation for the general technique)")
	return res
}

func runHandshakeLeg(seed int64, duration, injectAt time.Duration, mode string) (uint64, time.Duration, time.Duration, bool, error) {
	names := serverNames(2)
	la, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends: names, Alpha: 0.10, TableSize: 4093,
		MinWeight: 0.02, Cooldown: time.Millisecond, HysteresisRatio: 1.15,
	})
	if err != nil {
		return 0, 0, 0, false, err
	}
	reaction := time.Duration(-1)
	prevW0 := la.Weights()[0]
	la.OnUpdate = func(now time.Duration, weights []float64) {
		if reaction < 0 && now >= injectAt && weights[0] < prevW0 {
			reaction = now - injectAt
		}
		prevW0 = weights[0]
	}
	preDrained := false
	cluster, err := testbed.NewCluster(testbed.ClusterConfig{
		Seed:      seed,
		Policy:    la,
		Handshake: mode == "handshake",
		Servers: []server.Config{
			{Name: names[0], Workers: 8, Service: server.LogNormal{Median: 150 * time.Microsecond, Sigma: 0.25}},
			{Name: names[1], Workers: 8, Service: server.LogNormal{Median: 150 * time.Microsecond, Sigma: 0.25}},
		},
		ServerPathSchedules: []faults.Schedule{
			faults.Step{Start: injectAt, Extra: time.Millisecond}, faults.None,
		},
		Workload: tcpsim.RequestConfig{
			Connections: 8, Pipeline: 1, RequestsPerConn: 100,
			ReopenDelay: 500 * time.Microsecond,
			ThinkTime:   50 * time.Microsecond, ThinkJitter: 50 * time.Microsecond,
			GetFraction: 0.5,
			// The handshake estimator measures the SYN→first-request gap,
			// which spans the real (possibly degraded) LB→server path;
			// both modes see identical traffic.
			EmitOpen: true,
		},
	})
	if err != nil {
		return 0, 0, 0, false, err
	}
	cluster.Sim.Schedule(injectAt, func() {
		w := la.Weights()
		preDrained = w[0] < 0.25 // already mostly away from server 0
	})
	postHist := stats.NewDefaultHistogram()
	cluster.Client.OnResponse = func(now time.Duration, op netsim.Op, lat time.Duration) {
		if now >= injectAt+(duration-injectAt)/4 {
			postHist.Record(lat)
		}
	}
	cluster.Run(duration)
	return cluster.LB.Stats().Samples, postHist.Quantile(0.95), reaction, preDrained, nil
}
