// Benchmarks that regenerate the paper's empirical artifacts (one per
// figure) and the ablations, plus microbenchmarks of the mechanism's
// per-packet costs. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches report their headline shape metrics via
// b.ReportMetric, so the benchmark output doubles as the reproduction record.
package inbandlb_test

import (
	"io"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/experiments"
	"inbandlb/internal/lb"
	"inbandlb/internal/lbproxy"
	"inbandlb/internal/maglev"
	"inbandlb/internal/memcache"
	"inbandlb/internal/netsim"
	"inbandlb/internal/packet"
	"inbandlb/internal/server"
	"inbandlb/internal/tcpsim"
	"inbandlb/internal/testbed"
)

// ---- Figure regenerations -------------------------------------------------

// BenchmarkFig2aFixedTimeout regenerates Fig. 2(a): FIXEDTIMEOUT over a
// backlogged flow with fixed δ = 64µs and 1024µs against client ground
// truth, across an RTT step.
func BenchmarkFig2aFixedTimeout(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig2a(experiments.Fig2Config{
			Seed: int64(i + 1), Duration: 2 * time.Second, StepAt: time.Second,
		})
	}
	b.ReportMetric(res.Metrics["low_delta_pre_count"], "lowδ-samples")
	b.ReportMetric(res.Metrics["ref_pre_count"], "true-batches")
	b.ReportMetric(res.Metrics["high_delta_pre_count"], "highδ-samples")
	b.ReportMetric(res.Metrics["low_delta_pre_median_us"]*1000, "lowδ-median-ns")
	b.ReportMetric(res.Metrics["truth_pre_median_us"]*1000, "truth-median-ns")
}

// BenchmarkFig2bEnsembleTimeout regenerates Fig. 2(b): ENSEMBLETIMEOUT
// tracking the true RTT across the step via sample-cliff detection.
func BenchmarkFig2bEnsembleTimeout(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig2b(experiments.Fig2Config{
			Seed: int64(i + 1), Duration: 2 * time.Second, StepAt: time.Second,
		})
	}
	b.ReportMetric(res.Metrics["pre_median_us"]*1000, "est-pre-ns")
	b.ReportMetric(res.Metrics["truth_pre_median_us"]*1000, "truth-pre-ns")
	b.ReportMetric(res.Metrics["post_median_us"]*1000, "est-post-ns")
	b.ReportMetric(res.Metrics["truth_post_median_us"]*1000, "truth-post-ns")
	b.ReportMetric(res.Metrics["adaptation_lag_ms"], "adapt-lag-ms")
}

// BenchmarkFig3Feedback regenerates Fig. 3: p95 GET latency with +1ms
// injected on one of two servers mid-run, static Maglev vs latency-aware.
func BenchmarkFig3Feedback(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig3(experiments.Fig3Config{
			Seed: int64(i + 1), Duration: 4 * time.Second, InjectAt: 2 * time.Second,
		})
	}
	b.ReportMetric(res.Metrics["maglev_pre_p95_ms"], "maglev-pre-p95-ms")
	b.ReportMetric(res.Metrics["maglev_post_p95_ms"], "maglev-post-p95-ms")
	b.ReportMetric(res.Metrics["aware_pre_p95_ms"], "aware-pre-p95-ms")
	b.ReportMetric(res.Metrics["aware_post_p95_ms"], "aware-post-p95-ms")
	b.ReportMetric(res.Metrics["reaction_ms"], "reaction-ms")
}

// ---- Ablations -------------------------------------------------------------

func BenchmarkAblationEpoch(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationEpoch(int64(i+1), time.Second)
	}
	b.ReportMetric(res.Metrics["post_err_pct_E8"], "E8ms-err-pct")
	b.ReportMetric(res.Metrics["post_err_pct_E64"], "E64ms-err-pct")
	b.ReportMetric(res.Metrics["post_err_pct_E256"], "E256ms-err-pct")
}

func BenchmarkAblationLadder(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationLadder(int64(i+1), time.Second)
	}
	b.ReportMetric(res.Metrics["post_err_pct_k3"], "k3-err-pct")
	b.ReportMetric(res.Metrics["post_err_pct_k7"], "k7-err-pct")
}

func BenchmarkAblationAlpha(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationAlpha(int64(i+1), 2*time.Second)
	}
	b.ReportMetric(res.Metrics["post_p95_ms_a2"], "alpha2pct-p95-ms")
	b.ReportMetric(res.Metrics["post_p95_ms_a10"], "alpha10pct-p95-ms")
	b.ReportMetric(res.Metrics["post_p95_ms_a40"], "alpha40pct-p95-ms")
}

func BenchmarkTimingViolations(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationViolations(int64(i+1), time.Second)
	}
	b.ReportMetric(res.Metrics["err_pct_baseline"], "baseline-err-pct")
	b.ReportMetric(res.Metrics["err_pct_delayed-ack(2)"], "delayedack-err-pct")
	b.ReportMetric(res.Metrics["err_pct_pacing(400us)"], "pacing-err-pct")
	b.ReportMetric(res.Metrics["err_pct_app-limited"], "applimited-err-pct")
}

func BenchmarkFarClients(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationFarClients(int64(i+1), time.Second)
	}
	b.ReportMetric(res.Metrics["uncontrollable_pct_10µs"], "near-uncontrollable-pct")
	b.ReportMetric(res.Metrics["uncontrollable_pct_2ms"], "far-uncontrollable-pct")
}

func BenchmarkPolicyComparison(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.PolicyComparison(int64(i+1), 2*time.Second)
	}
	b.ReportMetric(res.Metrics["p95_us_maglev"], "maglev-p95-us")
	b.ReportMetric(res.Metrics["p95_us_p2c"], "p2c-p95-us")
	b.ReportMetric(res.Metrics["p95_us_latency-aware"], "aware-p95-us")
}

func BenchmarkPoolScale(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationPoolScale(int64(i+1), 2*time.Second)
	}
	b.ReportMetric(res.Metrics["slow_share_pct_n2"], "n2-slow-share-pct")
	b.ReportMetric(res.Metrics["slow_share_pct_n16"], "n16-slow-share-pct")
}

func BenchmarkMultiLB(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationMultiLB(int64(i+1), 2*time.Second)
	}
	b.ReportMetric(res.Metrics["p95_us_k1"], "k1-p95-us")
	b.ReportMetric(res.Metrics["p95_us_k8"], "k8-p95-us")
	b.ReportMetric(res.Metrics["shifts_k8"], "k8-shifts")
}

// ---- Mechanism microbenchmarks ----------------------------------------------

// BenchmarkEstimatorPerPacket measures Algorithm 2's per-packet cost — the
// price of running the measurement on a software dataplane.
func BenchmarkEstimatorPerPacket(b *testing.B) {
	est := core.MustEnsemble(core.EnsembleConfig{})
	b.ReportAllocs()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		now += 30 * time.Microsecond
		if i%4 == 0 {
			now += 500 * time.Microsecond
		}
		est.Observe(now)
	}
}

// BenchmarkMaglevLookupHot measures the per-new-flow routing cost.
func BenchmarkMaglevLookupHot(b *testing.B) {
	backends := make([]maglev.Backend, 16)
	for i := range backends {
		backends[i] = maglev.Backend{Name: string(rune('a' + i)), Weight: 1}
	}
	tbl, err := maglev.New(maglev.DefaultTableSize, backends)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tbl.Lookup(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

// BenchmarkMaglevRebuild measures the controller's table-patch cost — what
// each α-shift pays.
func BenchmarkMaglevRebuild(b *testing.B) {
	la, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends: []string{"s0", "s1", "s2", "s3"},
		Alpha:    0.10, TableSize: 4093,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		now += time.Millisecond
		// Alternate the worst server so weight keeps moving.
		la.ObserveLatency(i%4, now, time.Duration(1+i%4)*time.Millisecond)
	}
}

// BenchmarkLBPacketPath measures the simulated dataplane's full per-packet
// path: estimator, conntrack, and forward.
func BenchmarkLBPacketPath(b *testing.B) {
	sim := netsim.NewSim(1)
	pol := control.NewRoundRobin(4)
	links := make([]*netsim.Link, 4)
	for i := range links {
		links[i] = netsim.NewLink(sim, "up", 0, 0, netsim.HandlerFunc(func(*netsim.Packet) {}))
	}
	balancer, err := lb.New(sim, lb.Config{Policy: pol}, links)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]packet.FlowKey, 64)
	for i := range keys {
		keys[i] = packet.NewFlowKey(
			netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.1.0.1"),
			uint16(20000+i), 11211, packet.ProtoTCP)
	}
	pkts := make([]*netsim.Packet, len(keys))
	for i := range pkts {
		pkts[i] = &netsim.Packet{Flow: keys[i], Kind: netsim.KindRequest, Size: 128}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		balancer.HandlePacket(pkts[i%len(pkts)])
		if i%1024 == 0 {
			sim.RunUntil(sim.Now() + time.Microsecond) // drain forwarded events
		}
	}
}

// BenchmarkSimRequest measures one simulated request end to end — client,
// link, LB, server, DSR return — on the cluster TestSimRequestAllocCeiling
// (internal/perf) pins: every per-request client timer armed, a service
// time at the server. It reports wall time, heap objects and dispatched
// events per request.
func BenchmarkSimRequest(b *testing.B) {
	const backends = 4
	servers := make([]server.Config, backends)
	for i := range servers {
		servers[i] = server.Config{Workers: 4, Service: server.Deterministic(150 * time.Microsecond)}
	}
	cluster, err := testbed.NewCluster(testbed.ClusterConfig{
		Seed:    1,
		Policy:  control.NewRoundRobin(backends),
		Servers: servers,
		Workload: tcpsim.RequestConfig{
			Connections:       16,
			Pipeline:          2,
			ThinkTime:         20 * time.Microsecond,
			GetFraction:       0.5,
			RequestTimeout:    100 * time.Millisecond,
			RetransmitTimeout: 20 * time.Millisecond,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	cluster.Run(300 * time.Millisecond) // warm-up: free lists and pool at standing size
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	first := cluster.Client.Stats().Sent
	events := 0
	b.ResetTimer()
	for cluster.Client.Stats().Sent-first < uint64(b.N) {
		events += cluster.Sim.RunUntil(cluster.Sim.Now() + 100*time.Microsecond)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	reqs := float64(cluster.Client.Stats().Sent - first)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/request")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/reqs, "allocs/request")
	b.ReportMetric(float64(events)/reqs, "events/request")
}

// ---- Syscall-diet dataplane benchmarks --------------------------------------

// reportRelaySyscalls attaches the proxy's own relay syscall counters as
// per-op metrics (the container has no strace; the proxy counts its
// read/write/splice calls itself).
func reportRelaySyscalls(b *testing.B, p *lbproxy.Proxy, ops int) {
	st := p.Stats()
	total := st.RelayReads + st.RelayWrites + st.RelaySplices
	b.ReportMetric(float64(total)/float64(ops), "relay-syscalls/op")
	b.ReportMetric(float64(st.RelaySplices)/float64(ops), "splices/op")
}

// BenchmarkProxySpliceRelay measures bulk relay throughput: one client
// streams 64 KiB writes through the proxy to a discard sink. Each write
// overflows the 32 KiB read buffer, so the rest of every burst is spliced;
// relay-syscalls/op is the diet itself.
func BenchmarkProxySpliceRelay(b *testing.B) {
	const chunk = 64 << 10
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	go func() {
		for {
			c, err := sink.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, c); _ = c.Close() }()
		}
	}()
	proxy, err := lbproxy.New(lbproxy.Config{
		Backends: []string{sink.Addr().String()},
		Policy:   control.NewRoundRobin(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := proxy.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go func() { _ = proxy.Serve() }()
	defer proxy.Close()

	conn, err := net.DialTimeout("tcp", proxy.Addr().String(), 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Drain the relay before reading its counters: half-close and wait for
	// the proxied connection to finish.
	_ = conn.(*net.TCPConn).CloseWrite()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().Active > 0 {
		time.Sleep(time.Millisecond)
	}
	reportRelaySyscalls(b, proxy, b.N)
}

// BenchmarkProxyPooledDial measures the connection-per-operation shape —
// dial, one SET, close — which is where backend pooling pays: with the
// pool on, the backend leg's connect/handshake is amortized across client
// sessions instead of being paid per operation.
func BenchmarkProxyPooledDial(b *testing.B) {
	for _, mode := range []struct {
		name string
		idle int
	}{{"fresh-dial", 0}, {"pooled", 64}} {
		b.Run(mode.name, func(b *testing.B) {
			srv := memcache.NewServer()
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			go func() { _ = srv.Serve() }()
			defer srv.Close()
			proxy, err := lbproxy.New(lbproxy.Config{
				Backends:    []string{srv.Addr().String()},
				Policy:      control.NewRoundRobin(1),
				PoolIdle:    mode.idle,
				PoolQuiesce: 50 * time.Microsecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := proxy.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			go func() { _ = proxy.Serve() }()
			defer proxy.Close()
			addr := proxy.Addr().String()

			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					cli, err := memcache.Dial(addr, 2*time.Second)
					if err != nil {
						b.Error(err)
						return
					}
					if err := cli.Set("bench", []byte("v")); err != nil {
						b.Error(err)
						_ = cli.Close()
						return
					}
					_ = cli.Close()
				}
			})
			b.StopTimer()
			st := proxy.Stats()
			if st.Accepted > 0 {
				b.ReportMetric(float64(st.PoolHits)/float64(st.Accepted), "pool-hits/conn")
			}
		})
	}
}

func BenchmarkAblationDependency(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationDependency(int64(i+1), 2*time.Second)
	}
	b.ReportMetric(res.Metrics["post_p95_ms_server-slow_latency-aware"], "serverslow-aware-p95-ms")
	b.ReportMetric(res.Metrics["post_p95_ms_dependency-slow_latency-aware"], "depslow-aware-p95-ms")
	b.ReportMetric(res.Metrics["post_p95_ms_dependency-slow_maglev"], "depslow-maglev-p95-ms")
}

func BenchmarkAblationControllers(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationControllers(int64(i+1), 2*time.Second)
	}
	b.ReportMetric(res.Metrics["post_p95_ms_latency-aware"], "alphashift-p95-ms")
	b.ReportMetric(res.Metrics["post_p95_ms_proportional"], "proportional-p95-ms")
	b.ReportMetric(res.Metrics["updates_steady_latency-aware"], "alphashift-steady-updates")
	b.ReportMetric(res.Metrics["updates_steady_proportional"], "proportional-steady-updates")
}

func BenchmarkAblationUtilization(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationUtilization(int64(i+1), time.Second)
	}
	b.ReportMetric(res.Metrics["p95_err_pct_u0"], "u0-p95-err-pct")
	b.ReportMetric(res.Metrics["p95_err_pct_u80"], "u80-p95-err-pct")
}

func BenchmarkAblationAffinity(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationAffinity(int64(i+1), 2*time.Second)
	}
	b.ReportMetric(res.Metrics["peak_counterfactual_remap_pct"], "peak-counterfactual-remap-pct")
	b.ReportMetric(res.Metrics["table_updates"], "table-updates")
}

func BenchmarkAblationSharedLadder(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationSharedLadder(int64(i+1), time.Second)
	}
	b.ReportMetric(res.Metrics["err_pct_per-flow"], "perflow-err-pct")
	b.ReportMetric(res.Metrics["err_pct_shared"], "shared-err-pct")
}

// BenchmarkSharedLadderPerPacket measures the per-server variant's
// per-packet cost for comparison with BenchmarkEstimatorPerPacket.
func BenchmarkSharedLadderPerPacket(b *testing.B) {
	s := core.MustSharedLadder(core.EnsembleConfig{})
	f := s.NewFlow()
	b.ReportAllocs()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		now += 30 * time.Microsecond
		if i%4 == 0 {
			now += 500 * time.Microsecond
		}
		s.Observe(f, now)
	}
}

func BenchmarkAblationChurn(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationChurn(int64(i+1), time.Second)
	}
	b.ReportMetric(res.Metrics["samples_per_resp_pct_m8"], "m8-samples-per-resp-pct")
	b.ReportMetric(res.Metrics["samples_per_resp_pct_m256"], "m256-samples-per-resp-pct")
}

func BenchmarkAblationL7(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationL7(int64(i+1), 2*time.Second)
	}
	b.ReportMetric(res.Metrics["hit_rate_pct_l4"], "l4-hit-pct")
	b.ReportMetric(res.Metrics["hit_rate_pct_l7"], "l7-hit-pct")
	b.ReportMetric(res.Metrics["p95_us_l4"], "l4-p95-us")
	b.ReportMetric(res.Metrics["p95_us_l7"], "l7-p95-us")
}

func BenchmarkAblationHandshake(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationHandshake(int64(i+1), 2*time.Second)
	}
	b.ReportMetric(res.Metrics["samples_ensemble"], "ensemble-samples")
	b.ReportMetric(res.Metrics["samples_handshake"], "handshake-samples")
	b.ReportMetric(res.Metrics["post_p95_ms_ensemble"], "ensemble-p95-ms")
	b.ReportMetric(res.Metrics["post_p95_ms_handshake"], "handshake-p95-ms")
}

func BenchmarkAblationSignal(b *testing.B) {
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.AblationSignal(int64(i+1), 2*time.Second)
	}
	b.ReportMetric(res.Metrics["client_p95_us_ewma"], "ewma-signal-client-p95-us")
	b.ReportMetric(res.Metrics["client_p95_us_p95"], "p95-signal-client-p95-us")
	b.ReportMetric(res.Metrics["steady_share_pct_ewma"], "ewma-steady-share-pct")
	b.ReportMetric(res.Metrics["steady_share_pct_p95"], "p95-steady-share-pct")
}
