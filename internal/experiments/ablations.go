package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/faults"
	"inbandlb/internal/netsim"
	"inbandlb/internal/server"
	"inbandlb/internal/stats"
	"inbandlb/internal/tcpsim"
	"inbandlb/internal/testbed"
)

// AblationEpoch sweeps the cliff-detection epoch E (ABL-EPOCH): shorter
// epochs adapt faster but count fewer samples per decision.
func AblationEpoch(seed int64, duration time.Duration) *Result {
	res := newResult("abl-epoch")
	res.Header = []string{"epoch_ms", "pre_err_pct", "post_err_pct", "adaptation_lag_ms"}
	if duration <= 0 {
		duration = 2 * time.Second
	}
	for _, epoch := range []time.Duration{8, 16, 32, 64, 128, 256} {
		e := epoch * time.Millisecond
		r := Fig2b(Fig2Config{
			Seed:     seed,
			Duration: duration,
			StepAt:   duration / 2,
			Ensemble: core.EnsembleConfig{Epoch: e},
		})
		preErr := 100 * relErrF(r.Metrics["pre_median_us"], r.Metrics["truth_pre_median_us"])
		postErr := 100 * relErrF(r.Metrics["post_median_us"], r.Metrics["truth_post_median_us"])
		lag, ok := r.Metrics["adaptation_lag_ms"]
		lagStr := "n/a"
		if ok {
			lagStr = fmt.Sprintf("%.1f", lag)
		}
		res.addRow(fmt.Sprintf("%d", epoch), fmt.Sprintf("%.1f", preErr), fmt.Sprintf("%.1f", postErr), lagStr)
		res.Metrics[fmt.Sprintf("post_err_pct_E%d", epoch)] = postErr
		if ok {
			res.Metrics[fmt.Sprintf("lag_ms_E%d", epoch)] = lag
		}
	}
	res.addNote("shorter epochs adapt faster; overly short epochs base cliffs on few samples")
	return res
}

// AblationLadder sweeps the timeout-ladder size k (ABL-K): fewer rungs span
// a narrower δ range and may miss the ideal timeout entirely.
func AblationLadder(seed int64, duration time.Duration) *Result {
	res := newResult("abl-ladder")
	res.Header = []string{"k", "delta_range", "pre_err_pct", "post_err_pct"}
	if duration <= 0 {
		duration = 2 * time.Second
	}
	for _, k := range []int{3, 5, 7, 9} {
		ladder := make([]time.Duration, k)
		d := 64 * time.Microsecond
		for i := range ladder {
			ladder[i] = d
			d *= 2
		}
		r := Fig2b(Fig2Config{
			Seed:     seed,
			Duration: duration,
			StepAt:   duration / 2,
			Ensemble: core.EnsembleConfig{Timeouts: ladder},
		})
		preErr := 100 * relErrF(r.Metrics["pre_median_us"], r.Metrics["truth_pre_median_us"])
		postErr := 100 * relErrF(r.Metrics["post_median_us"], r.Metrics["truth_post_median_us"])
		res.addRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%v..%v", ladder[0], ladder[k-1]),
			fmt.Sprintf("%.1f", preErr), fmt.Sprintf("%.1f", postErr))
		res.Metrics[fmt.Sprintf("post_err_pct_k%d", k)] = postErr
	}
	res.addNote("k must be large enough that some δ separates intra-batch gaps from the RTT on both sides of the step")
	return res
}

// AblationAlpha sweeps the controller's shift fraction α (ABL-ALPHA):
// larger α recovers faster but overshoots; smaller α converges slowly.
func AblationAlpha(seed int64, duration time.Duration) *Result {
	res := newResult("abl-alpha")
	res.Header = []string{"alpha", "post_p95_ms", "reaction_ms", "table_updates"}
	if duration <= 0 {
		duration = 4 * time.Second
	}
	for _, alpha := range []float64{0.02, 0.05, 0.10, 0.20, 0.40} {
		run, err := runFig3Leg(Fig3Config{
			Seed:     seed,
			Duration: duration,
			InjectAt: duration / 2,
			Alpha:    alpha,
		}, "latency-aware")
		if err != nil {
			res.addNote("alpha %.2f failed: %v", alpha, err)
			continue
		}
		reaction := "n/a"
		if run.reaction >= 0 {
			reaction = msStr(run.reaction)
		}
		res.addRow(fmt.Sprintf("%.2f", alpha), msStr(run.postP95), reaction, fmt.Sprintf("%d", run.shifts))
		res.Metrics[fmt.Sprintf("post_p95_ms_a%d", int(alpha*100))] = float64(run.postP95) / 1e6
	}
	res.addNote("the paper's α=0.10 balances recovery speed against oscillation")
	return res
}

// AblationViolations (ABL-VIOL, open question 2) measures estimator error
// under the timing behaviours that break the triggered-transmission
// assumption: delayed ACKs, pacing, and application-limited sending.
func AblationViolations(seed int64, duration time.Duration) *Result {
	res := newResult("abl-violations")
	res.Header = []string{"scenario", "samples", "median_us", "truth_median_us", "err_vs_clean_pct"}
	if duration <= 0 {
		duration = 2 * time.Second
	}
	type scenario struct {
		name string
		bulk tcpsim.BulkConfig
		sink tcpsim.AckSinkConfig
	}
	base := tcpsim.BulkConfig{Window: 4, SegSize: 1500}
	scenarios := []scenario{
		{name: "baseline", bulk: base},
		{name: "delayed-ack(2)", bulk: base, sink: tcpsim.AckSinkConfig{DelayedAckCount: 2, DelayedAckTimeout: 5 * time.Millisecond}},
		// Pacing at 400µs makes window × pacing exceed the RTT: the idle
		// pause disappears and the batch structure the estimator relies
		// on is gone.
		{name: "pacing(400us)", bulk: func() tcpsim.BulkConfig { b := base; b.Pacing = 400 * time.Microsecond; return b }()},
		{name: "app-limited", bulk: func() tcpsim.BulkConfig {
			b := base
			b.AppLimitedOn = 2 * time.Millisecond
			b.AppLimitedOff = 5 * time.Millisecond
			return b
		}()},
	}
	// The yardstick is the violation-free response latency: what the LB
	// wants to know. Each violation scenario shares the same network, so
	// the baseline's client-measured median is the common reference (a
	// violation can corrupt that scenario's own ground truth too — e.g.
	// delayed ACKs hold the client's RTT samples hostage as well).
	var reference time.Duration
	for _, sc := range scenarios {
		path := testbed.NewPath(testbed.PathConfig{
			Seed:           seed,
			ClientToTap:    250 * time.Microsecond,
			TapToServer:    250 * time.Microsecond,
			ServerToClient: 500 * time.Microsecond,
			LinkRate:       12.5e6,
			Bulk:           sc.bulk,
			Sink:           sc.sink,
		})
		est := core.MustEnsemble(core.EnsembleConfig{})
		var samples, truths []time.Duration
		path.Sender.GroundTruth = func(now, rtt time.Duration) { truths = append(truths, rtt) }
		path.OnTapPacket = func(now time.Duration, p *netsim.Packet) {
			if s, ok := est.Observe(now); ok {
				samples = append(samples, s)
			}
		}
		path.Run(duration)
		med := stats.ExactQuantile(samples, 0.5)
		tmed := stats.ExactQuantile(truths, 0.5)
		if sc.name == "baseline" {
			reference = tmed
		}
		errPct := 100 * relErr(med, reference)
		res.addRow(sc.name, fmt.Sprintf("%d", len(samples)), usStr(med), usStr(tmed), fmt.Sprintf("%.1f", errPct))
		res.Metrics["err_pct_"+sc.name] = errPct
	}
	res.addNote("violations inflate T_LB error: delayed ACKs add hold time, pacing blurs batch boundaries, app limits add idle gaps")
	return res
}

// AblationFarClients (ABL-FAR, open question 1) sweeps the client→LB
// distance: the farther the client, the larger the uncontrollable share of
// the end-to-end RTT the estimator reports.
func AblationFarClients(seed int64, duration time.Duration) *Result {
	res := newResult("abl-far-clients")
	res.Header = []string{"client_lb_delay", "est_median_us", "controllable_us", "uncontrollable_share_pct"}
	if duration <= 0 {
		duration = 2 * time.Second
	}
	for _, d := range []time.Duration{10 * time.Microsecond, 100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond} {
		controllable := 250*time.Microsecond + 250*time.Microsecond // tap->server + half the return (modelled as LB-side)
		path := testbed.NewPath(testbed.PathConfig{
			Seed:           seed,
			ClientToTap:    d,
			TapToServer:    250 * time.Microsecond,
			ServerToClient: 250*time.Microsecond + d, // server->LB-side + LB->client distance
			LinkRate:       12.5e6,
			Bulk:           tcpsim.BulkConfig{Window: 4, SegSize: 1500},
		})
		est := core.MustEnsemble(core.EnsembleConfig{
			// Far clients need larger timeouts in the ladder.
			Timeouts: []time.Duration{
				64 * time.Microsecond, 128 * time.Microsecond, 256 * time.Microsecond,
				512 * time.Microsecond, 1024 * time.Microsecond, 2048 * time.Microsecond,
				4096 * time.Microsecond, 8192 * time.Microsecond, 16384 * time.Microsecond,
			},
		})
		var samples []time.Duration
		path.OnTapPacket = func(now time.Duration, p *netsim.Packet) {
			if s, ok := est.Observe(now); ok {
				samples = append(samples, s)
			}
		}
		path.Run(duration)
		med := stats.ExactQuantile(samples, 0.5)
		uncontrollable := float64(med-controllable) / float64(med) * 100
		if med == 0 {
			uncontrollable = 0
		}
		res.addRow(d.String(), usStr(med), usStr(controllable), fmt.Sprintf("%.1f", uncontrollable))
		res.Metrics[fmt.Sprintf("uncontrollable_pct_%v", d)] = uncontrollable
	}
	res.addNote("with far clients most of T_LB is client-side delay the LB cannot control (§5 Q1)")
	return res
}

// PolicyComparison (ABL-POL) runs the cluster under each routing policy
// with one degraded server and reports client latency quantiles.
func PolicyComparison(seed int64, duration time.Duration) *Result {
	res := newResult("abl-policies")
	res.Header = []string{"policy", "p50_us", "p95_us", "p99_us", "responses"}
	if duration <= 0 {
		duration = 4 * time.Second
	}
	names := serverNames(2)
	mk := func(kind string) (control.Policy, error) {
		switch kind {
		case "roundrobin":
			return control.NewRoundRobin(2), nil
		case "random":
			return control.NewRandom(2, rand.New(rand.NewSource(seed))), nil
		case "leastconn":
			return control.NewLeastConn(2), nil
		case "p2c":
			return control.NewP2C(2, rand.New(rand.NewSource(seed)), core.ServerLatencyConfig{}), nil
		case "maglev":
			return control.NewMaglevStatic(names, 4093)
		case "latency-aware":
			return control.NewLatencyAware(control.LatencyAwareConfig{
				Backends: names, Alpha: 0.10, TableSize: 4093,
				MinWeight: 0.02, Cooldown: time.Millisecond, HysteresisRatio: 1.15,
			})
		}
		return nil, fmt.Errorf("unknown policy %s", kind)
	}
	for _, kind := range []string{"roundrobin", "random", "leastconn", "p2c", "maglev", "latency-aware"} {
		pol, err := mk(kind)
		if err != nil {
			res.addNote("%s failed: %v", kind, err)
			continue
		}
		cluster, err := testbed.NewCluster(testbed.ClusterConfig{
			Seed:   seed,
			Policy: pol,
			Servers: []server.Config{
				{Name: names[0], Workers: 8, Service: server.LogNormal{Median: 150 * time.Microsecond, Sigma: 0.25}},
				{Name: names[1], Workers: 8, Service: server.LogNormal{Median: 150 * time.Microsecond, Sigma: 0.25}},
			},
			ServerPathSchedules: []faults.Schedule{
				faults.Step{Start: 0, Extra: time.Millisecond}, // degraded from the start
				faults.None,
			},
			Workload: tcpsim.RequestConfig{
				Connections: 8, Pipeline: 1, RequestsPerConn: 100,
				ReopenDelay: 500 * time.Microsecond,
				ThinkTime:   50 * time.Microsecond, ThinkJitter: 50 * time.Microsecond,
				GetFraction: 0.5,
			},
		})
		if err != nil {
			res.addNote("%s failed: %v", kind, err)
			continue
		}
		all := stats.NewDefaultHistogram()
		cluster.Client.OnResponse = func(now time.Duration, op netsim.Op, lat time.Duration) {
			if now > duration/4 { // skip warmup
				all.Record(lat)
			}
		}
		cluster.Run(duration)
		res.addRow(kind,
			usStr(all.Quantile(0.50)), usStr(all.Quantile(0.95)), usStr(all.Quantile(0.99)),
			fmt.Sprintf("%d", all.Count()))
		res.Metrics["p95_us_"+kind] = float64(all.Quantile(0.95)) / 1e3
	}
	res.addNote("latency-blind policies keep ~half the flows on the degraded server; feedback policies avoid it")
	return res
}

// AblationPoolScale (ABL-SCALE) grows the pool with one slow server: the
// controller must find and drain the one bad server among many.
func AblationPoolScale(seed int64, duration time.Duration) *Result {
	res := newResult("abl-pool-scale")
	res.Header = []string{"servers", "p95_us", "slow_server_new_flow_share_pct"}
	if duration <= 0 {
		duration = 4 * time.Second
	}
	for _, n := range []int{2, 4, 8, 16} {
		names := serverNames(n)
		pol, err := control.NewLatencyAware(control.LatencyAwareConfig{
			Backends: names, Alpha: 0.10, TableSize: 4093,
			MinWeight: 0.1 / float64(n), Cooldown: time.Millisecond, HysteresisRatio: 1.15,
		})
		if err != nil {
			res.addNote("n=%d failed: %v", n, err)
			continue
		}
		servers := make([]server.Config, n)
		schedules := make([]faults.Schedule, n)
		for i := range servers {
			servers[i] = server.Config{Name: names[i], Workers: 8,
				Service: server.LogNormal{Median: 150 * time.Microsecond, Sigma: 0.25}}
			schedules[i] = faults.None
		}
		schedules[0] = faults.Step{Start: 0, Extra: time.Millisecond}
		cluster, err := testbed.NewCluster(testbed.ClusterConfig{
			Seed: seed, Policy: pol, Servers: servers, ServerPathSchedules: schedules,
			Workload: tcpsim.RequestConfig{
				Connections: 4 * n, Pipeline: 1, RequestsPerConn: 100,
				ReopenDelay: 500 * time.Microsecond,
				ThinkTime:   50 * time.Microsecond, ThinkJitter: 50 * time.Microsecond,
				GetFraction: 0.5,
			},
		})
		if err != nil {
			res.addNote("n=%d failed: %v", n, err)
			continue
		}
		all := stats.NewDefaultHistogram()
		cluster.Client.OnResponse = func(now time.Duration, op netsim.Op, lat time.Duration) {
			if now > duration/4 {
				all.Record(lat)
			}
		}
		cluster.Run(duration)
		st := cluster.LB.Stats()
		var totalNew uint64
		for _, c := range st.NewPerBack {
			totalNew += c
		}
		share := 0.0
		if totalNew > 0 {
			share = 100 * float64(st.NewPerBack[0]) / float64(totalNew)
		}
		res.addRow(fmt.Sprintf("%d", n), usStr(all.Quantile(0.95)), fmt.Sprintf("%.1f", share))
		res.Metrics[fmt.Sprintf("slow_share_pct_n%d", n)] = share
	}
	res.addNote("the slow server's new-flow share should sit near the weight floor regardless of pool size")
	return res
}

func relErrF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	e := (a - b) / b
	if e < 0 {
		e = -e
	}
	return e
}
