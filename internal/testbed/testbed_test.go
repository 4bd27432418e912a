package testbed

import (
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/faults"
	"inbandlb/internal/netsim"
	"inbandlb/internal/server"
	"inbandlb/internal/tcpsim"
)

func TestPathGroundTruthMatchesTopology(t *testing.T) {
	p := NewPath(PathConfig{
		Seed:           1,
		ClientToTap:    100 * time.Microsecond,
		TapToServer:    150 * time.Microsecond,
		ServerToClient: 250 * time.Microsecond,
		Bulk:           tcpsim.BulkConfig{Window: 4, SegSize: 1000},
	})
	var tapCount int
	p.OnTapPacket = func(now time.Duration, pk *netsim.Packet) { tapCount++ }
	p.Run(20 * time.Millisecond)

	st := p.Sender.Stats()
	if st.SegmentsSent == 0 || tapCount == 0 {
		t.Fatalf("no traffic: sent=%d tap=%d", st.SegmentsSent, tapCount)
	}
	wantRTT := 500 * time.Microsecond
	if st.RTT.Min() != wantRTT || st.RTT.Max() != wantRTT {
		t.Errorf("RTT range [%v, %v], want exactly %v", st.RTT.Min(), st.RTT.Max(), wantRTT)
	}
}

func TestPathRTTScheduleMovesRTT(t *testing.T) {
	p := NewPath(PathConfig{
		Seed:        1,
		RTTSchedule: faults.Step{Start: 5 * time.Millisecond, Extra: time.Millisecond},
		Bulk:        tcpsim.BulkConfig{Window: 2, SegSize: 500},
	})
	var preMax, postMin time.Duration
	postMin = time.Hour
	p.Sender.GroundTruth = func(now, rtt time.Duration) {
		if now < 5*time.Millisecond {
			if rtt > preMax {
				preMax = rtt
			}
		} else if now > 8*time.Millisecond {
			if rtt < postMin {
				postMin = rtt
			}
		}
	}
	p.Run(20 * time.Millisecond)
	if preMax == 0 || postMin == time.Hour {
		t.Fatal("missing ground truth on one side of the step")
	}
	if postMin < preMax+900*time.Microsecond {
		t.Errorf("RTT step not visible: pre max %v, post min %v", preMax, postMin)
	}
}

func TestPathDefaults(t *testing.T) {
	p := NewPath(PathConfig{Seed: 1})
	p.Run(5 * time.Millisecond)
	if p.Sender.Stats().SegmentsSent == 0 {
		t.Error("defaults produced no traffic")
	}
	if p.Sink.Received() == 0 {
		t.Error("sink saw nothing")
	}
}

func defaultClusterConfig(pol control.Policy, n int) ClusterConfig {
	servers := make([]server.Config, n)
	for i := range servers {
		servers[i] = server.Config{Service: server.Deterministic(200 * time.Microsecond), Workers: 8}
	}
	return ClusterConfig{
		Seed:    7,
		Policy:  pol,
		Servers: servers,
		Workload: tcpsim.RequestConfig{
			Connections: 4, Pipeline: 2, RequestsPerConn: 20,
			ReopenDelay: 100 * time.Microsecond, GetFraction: 0.5,
		},
	}
}

func TestClusterEndToEnd(t *testing.T) {
	c, err := NewCluster(defaultClusterConfig(control.NewRoundRobin(2), 2))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(200 * time.Millisecond)

	cst := c.Client.Stats()
	if cst.Responses == 0 {
		t.Fatal("no responses")
	}
	// Latency floor: client→LB 50µs + LB→server 50µs + service 200µs +
	// server→client 100µs = 400µs.
	minLat := cst.GetLatency.Min()
	if cst.SetLatency.Count() > 0 && cst.SetLatency.Min() < minLat {
		minLat = cst.SetLatency.Min()
	}
	if minLat != 400*time.Microsecond {
		t.Errorf("min latency = %v, want 400µs", minLat)
	}
	// Both servers served traffic under round robin.
	for i, srv := range c.Servers {
		if srv.Stats().Served == 0 {
			t.Errorf("server %d served nothing", i)
		}
	}
	// Conservation: every response corresponds to a served request.
	total := c.Servers[0].Stats().Served + c.Servers[1].Stats().Served
	if total != cst.Responses {
		t.Errorf("servers served %d, client saw %d", total, cst.Responses)
	}
	if c.LB.Stats().Packets == 0 {
		t.Error("LB saw no packets")
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() uint64 {
		c, err := NewCluster(defaultClusterConfig(control.NewRoundRobin(2), 2))
		if err != nil {
			t.Fatal(err)
		}
		c.Run(100 * time.Millisecond)
		return c.Client.Stats().Responses*1000003 + c.LB.Stats().Packets
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different outcomes: %d vs %d", a, b)
	}
}

func TestClusterInjectedDelayRaisesLatency(t *testing.T) {
	cfg := defaultClusterConfig(control.NewRoundRobin(2), 2)
	cfg.ServerPathSchedules = []faults.Schedule{
		faults.Step{Start: 0, Extra: time.Millisecond},
		faults.None,
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)
	// Half the requests (server 0) carry +1ms.
	st := c.Client.Stats()
	max := st.GetLatency.Max()
	if st.SetLatency.Max() > max {
		max = st.SetLatency.Max()
	}
	if max < 1400*time.Microsecond {
		t.Errorf("max latency = %v, want >= 1.4ms with injected delay", max)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewCluster(ClusterConfig{
		Policy:  control.NewRoundRobin(2),
		Servers: []server.Config{{}},
	}); err == nil {
		t.Error("server/backend mismatch accepted")
	}
	cfg := defaultClusterConfig(control.NewRoundRobin(2), 2)
	cfg.ServerPathSchedules = []faults.Schedule{faults.None}
	if _, err := NewCluster(cfg); err == nil {
		t.Error("schedule/server mismatch accepted")
	}
}

func TestClusterLatencyAwareShiftsTraffic(t *testing.T) {
	// End-to-end smoke of the paper's mechanism: with one slow server, the
	// latency-aware policy must route more new flows to the fast one.
	la, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends:  []string{"s0", "s1"},
		Alpha:     0.10,
		TableSize: 1021,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultClusterConfig(la, 2)
	cfg.ServerPathSchedules = []faults.Schedule{
		faults.Step{Start: 0, Extra: 2 * time.Millisecond},
		faults.None,
	}
	cfg.Workload.RequestsPerConn = 50
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Second)

	st := c.LB.Stats()
	if st.NewPerBack[1] <= st.NewPerBack[0] {
		t.Errorf("new flows per backend = %v; fast server should receive more", st.NewPerBack)
	}
	w := la.Weights()
	if w[0] >= w[1] {
		t.Errorf("weights = %v; slow server should hold less", w)
	}
	if st.Samples == 0 {
		t.Error("estimator produced no samples end to end")
	}
}
