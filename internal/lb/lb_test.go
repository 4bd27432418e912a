package lb

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/netsim"
	"inbandlb/internal/packet"
)

func flowK(n int) packet.FlowKey {
	return packet.NewFlowKey(
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.1.0.1"),
		uint16(30000+n), 11211, packet.ProtoTCP)
}

type sink struct {
	got []*netsim.Packet
}

func (s *sink) HandlePacket(p *netsim.Packet) { s.got = append(s.got, p) }

func newTestLB(t *testing.T, sim *netsim.Sim, pol control.Policy) (*LB, []*sink) {
	t.Helper()
	sinks := make([]*sink, pol.NumBackends())
	links := make([]*netsim.Link, pol.NumBackends())
	for i := range links {
		sinks[i] = &sink{}
		links[i] = netsim.NewLink(sim, "up", 10*time.Microsecond, 0, sinks[i])
	}
	l, err := New(sim, Config{Policy: pol}, links)
	if err != nil {
		t.Fatal(err)
	}
	return l, sinks
}

func req(n int, seq uint64) *netsim.Packet {
	return &netsim.Packet{Flow: flowK(n), Kind: netsim.KindRequest, Seq: seq, Size: 100}
}

func TestLBAffinity(t *testing.T) {
	sim := netsim.NewSim(1)
	l, sinks := newTestLB(t, sim, control.NewRoundRobin(3))
	sim.Schedule(0, func() {
		// Interleave packets of two flows; each flow must stay pinned.
		for i := 0; i < 10; i++ {
			l.HandlePacket(req(1, uint64(i)))
			l.HandlePacket(req(2, uint64(i)))
		}
	})
	sim.Run()
	if got := len(sinks[0].got); got != 10 {
		t.Errorf("backend 0 got %d packets, want 10", got)
	}
	if got := len(sinks[1].got); got != 10 {
		t.Errorf("backend 1 got %d packets, want 10", got)
	}
	for _, p := range sinks[0].got {
		if p.Flow != flowK(1) {
			t.Fatal("flow 1 packets leaked to wrong backend")
		}
	}
	st := l.Stats()
	if st.NewFlows != 2 || st.Packets != 20 {
		t.Errorf("stats = %+v", st)
	}
	if l.Backend(flowK(1)) != 0 || l.Backend(flowK(2)) != 1 {
		t.Error("Backend() lookup wrong")
	}
	if l.Backend(flowK(99)) != -1 {
		t.Error("unknown flow should return -1")
	}
}

func TestLBCloseRemovesFlow(t *testing.T) {
	sim := netsim.NewSim(1)
	l, _ := newTestLB(t, sim, control.NewLeastConn(2))
	sim.Schedule(0, func() {
		l.HandlePacket(req(1, 0))
		l.HandlePacket(&netsim.Packet{Flow: flowK(1), Kind: netsim.KindClose, Size: 64})
	})
	sim.Run()
	if l.ConnCount() != 0 {
		t.Errorf("conn count = %d after close", l.ConnCount())
	}
	if l.Stats().Closed != 1 {
		t.Errorf("closed = %d", l.Stats().Closed)
	}
	// LeastConn must have been told: its active count returns to zero.
	pol := control.NewLeastConn(2)
	_ = pol
}

func TestLBIdleSweep(t *testing.T) {
	sim := netsim.NewSim(1)
	pol := control.NewRoundRobin(2)
	sinks := make([]*sink, 2)
	links := make([]*netsim.Link, 2)
	for i := range links {
		sinks[i] = &sink{}
		links[i] = netsim.NewLink(sim, "up", 0, 0, sinks[i])
	}
	l, err := New(sim, Config{Policy: pol}, links)
	if err != nil {
		t.Fatal(err)
	}
	sim.Schedule(0, func() { l.HandlePacket(req(1, 0)) })
	// Sweeping is piggy-backed on the packet path; later traffic from a
	// different flow triggers it.
	late := connIdleTimeout + sweepInterval
	sim.Schedule(late, func() { l.HandlePacket(req(2, 0)) })
	sim.RunUntil(late + time.Second)
	if l.ConnCount() != 1 {
		t.Errorf("conn count = %d, want 1 (idle flow swept, fresh flow kept)", l.ConnCount())
	}
	if l.Stats().Swept != 1 {
		t.Errorf("swept = %d", l.Stats().Swept)
	}
	if l.Backend(flowK(1)) != -1 {
		t.Error("idle flow still pinned")
	}
}

func TestLBFeedsEstimatorToPolicy(t *testing.T) {
	sim := netsim.NewSim(1)
	la, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends:  []string{"s0", "s1"},
		Alpha:     0.1,
		TableSize: 1021,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := newTestLB(t, sim, la)
	var samples []time.Duration
	l.OnSample = func(now time.Duration, b int, s time.Duration) { samples = append(samples, s) }

	// Drive one flow with clean 500µs batch structure long enough to cross
	// several estimator epochs.
	sim.Schedule(0, func() {
		now := time.Duration(0)
		for b := 0; b < 1000; b++ {
			at := now
			for p := 0; p < 4; p++ {
				pk := req(1, uint64(b*4+p))
				at2 := at + time.Duration(p)*5*time.Microsecond
				sim.Schedule(at2, func() { l.HandlePacket(pk) })
			}
			now += 500 * time.Microsecond
		}
	})
	sim.Run()
	if len(samples) == 0 {
		t.Fatal("no estimator samples reached the policy")
	}
	st := l.Stats()
	if st.Samples != uint64(len(samples)) {
		t.Errorf("sample counters disagree: %d vs %d", st.Samples, len(samples))
	}
	if st.SampPerBack[0]+st.SampPerBack[1] != st.Samples {
		t.Error("per-backend sample counts do not sum")
	}
	// The policy received them: it must have built tables beyond the first.
	if la.Updates() <= 1 {
		t.Error("latency-aware policy never updated its table")
	}
}

func TestLBValidation(t *testing.T) {
	sim := netsim.NewSim(1)
	if _, err := New(sim, Config{}, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := New(sim, Config{Policy: control.NewRoundRobin(2)}, nil); err == nil {
		t.Error("uplink/backend mismatch accepted")
	}
}

func TestLBStatsCopy(t *testing.T) {
	sim := netsim.NewSim(1)
	l, _ := newTestLB(t, sim, control.NewRoundRobin(2))
	sim.Schedule(0, func() { l.HandlePacket(req(1, 0)) })
	sim.Run()
	st := l.Stats()
	st.PerBackend[0] = 999
	if l.Stats().PerBackend[0] == 999 {
		t.Error("Stats() shares backing arrays")
	}
}

func TestLBAffinityAudit(t *testing.T) {
	sim := netsim.NewSim(1)
	l, _ := newTestLB(t, sim, control.NewRoundRobin(2))
	sim.Schedule(0, func() {
		l.HandlePacket(req(1, 0)) // pinned to backend 0
		l.HandlePacket(req(2, 0)) // pinned to backend 1
	})
	sim.Run()
	// An audit that always answers 0 flags flow 2 as would-move.
	total, moved := l.AffinityAudit(func(packet.FlowKey) int { return 0 })
	if total != 2 || moved != 1 {
		t.Errorf("audit = (%d,%d), want (2,1)", total, moved)
	}
	// An audit matching the pinned state flags nothing.
	total, moved = l.AffinityAudit(l.Backend)
	if total != 2 || moved != 0 {
		t.Errorf("self-consistent audit = (%d,%d), want (2,0)", total, moved)
	}
}

func TestLBL7KeyAffinity(t *testing.T) {
	sim := netsim.NewSim(1)
	pol, err := control.NewMaglevStatic([]string{"s0", "s1"}, 1021)
	if err != nil {
		t.Fatal(err)
	}
	sinks := make([]*sink, 2)
	links := make([]*netsim.Link, 2)
	for i := range links {
		sinks[i] = &sink{}
		links[i] = netsim.NewLink(sim, "up", 0, 0, sinks[i])
	}
	l, err := New(sim, Config{Policy: pol, L7: true}, links)
	if err != nil {
		t.Fatal(err)
	}
	// Two flows sending the same keys: key k must land on the same
	// backend regardless of flow.
	sim.Schedule(0, func() {
		for k := uint64(1); k <= 40; k++ {
			l.HandlePacket(&netsim.Packet{Flow: flowK(1), Kind: netsim.KindRequest, Key: k, Size: 64})
			l.HandlePacket(&netsim.Packet{Flow: flowK(2), Kind: netsim.KindRequest, Key: k, Size: 64})
		}
	})
	sim.Run()
	byKey := map[uint64]int{}
	for b, s := range sinks {
		for _, p := range s.got {
			if prev, ok := byKey[p.Key]; ok && prev != b {
				t.Fatalf("key %d reached both backends", p.Key)
			}
			byKey[p.Key] = b
		}
	}
	if len(byKey) != 40 {
		t.Fatalf("keys seen = %d", len(byKey))
	}
	// Both backends must own some keys (consistent hash spreads them).
	if len(sinks[0].got) == 0 || len(sinks[1].got) == 0 {
		t.Error("all keys on one backend")
	}
}

func TestLBL7KeylessFollowsFlow(t *testing.T) {
	sim := netsim.NewSim(1)
	pol, err := control.NewMaglevStatic([]string{"s0", "s1"}, 1021)
	if err != nil {
		t.Fatal(err)
	}
	sinks := make([]*sink, 2)
	links := make([]*netsim.Link, 2)
	for i := range links {
		sinks[i] = &sink{}
		links[i] = netsim.NewLink(sim, "up", 0, 0, sinks[i])
	}
	l, err := New(sim, Config{Policy: pol, L7: true}, links)
	if err != nil {
		t.Fatal(err)
	}
	sim.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			l.HandlePacket(&netsim.Packet{Flow: flowK(1), Kind: netsim.KindRequest, Size: 64})
		}
	})
	sim.Run()
	// All keyless packets stay on the flow's pinned backend.
	if got := len(sinks[0].got) + len(sinks[1].got); got != 10 {
		t.Fatalf("delivered = %d", got)
	}
	if len(sinks[0].got) != 0 && len(sinks[1].got) != 0 {
		t.Error("keyless packets split across backends")
	}
}

// TestLBControllerMatchesDirectPolicy runs two identical simulations — one
// with the policy driven directly, one wrapped in a control.Controller
// (sample batching + snapshot routing, ticked from the packet path) — and
// requires identical per-backend routing for the static-table policy. With
// MaglevStatic the table never changes, so batching cannot alter picks:
// any divergence is a controller bug.
func TestLBControllerMatchesDirectPolicy(t *testing.T) {
	run := func(wrap bool) []int {
		sim := netsim.NewSim(1)
		pol, err := control.NewMaglevStatic([]string{"s0", "s1", "s2"}, 1021)
		if err != nil {
			t.Fatal(err)
		}
		var p control.Policy = pol
		var ctrl *control.Controller
		if wrap {
			ctrl = control.NewController(pol, control.ControllerConfig{Shards: 2, Interval: time.Millisecond})
			defer ctrl.Close()
			p = ctrl
		}
		sinks := make([]*sink, 3)
		links := make([]*netsim.Link, 3)
		for i := range links {
			sinks[i] = &sink{}
			links[i] = netsim.NewLink(sim, "up", 10*time.Microsecond, 0, sinks[i])
		}
		l, err := New(sim, Config{Policy: p}, links)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 50; f++ {
			f := f
			for s := 0; s < 4; s++ {
				s := s
				sim.Schedule(time.Duration(f)*100*time.Microsecond+time.Duration(s)*5*time.Millisecond,
					func() { l.HandlePacket(req(f, uint64(s))) })
			}
		}
		sim.Run()
		got := make([]int, 3)
		for i, s := range sinks {
			got[i] = len(s.got)
		}
		if wrap && ctrl.Generation() == 0 {
			t.Fatal("controller never published a snapshot")
		}
		return got
	}
	direct, wrapped := run(false), run(true)
	for i := range direct {
		if direct[i] != wrapped[i] {
			t.Fatalf("per-backend delivery diverged: direct %v, controller %v", direct, wrapped)
		}
	}
}

// TestLBTicksController verifies the packet-path housekeeping actually
// drives a wrapped Controller: samples batched in its aggregator reach the
// underlying adaptive policy, advancing its update counter on the sim clock.
func TestLBTicksController(t *testing.T) {
	sim := netsim.NewSim(1)
	la, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends: []string{"s0", "s1"}, TableSize: 211, Alpha: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := control.NewController(la, control.ControllerConfig{Shards: 1, Interval: time.Millisecond})
	defer ctrl.Close()
	sinks := make([]*sink, 2)
	links := make([]*netsim.Link, 2)
	for i := range links {
		sinks[i] = &sink{}
		links[i] = netsim.NewLink(sim, "up", 0, 0, sinks[i])
	}
	l, err := New(sim, Config{Policy: ctrl}, links)
	if err != nil {
		t.Fatal(err)
	}
	// Two flows, enough spaced packets for the ensemble estimator to emit
	// samples and for several control intervals to elapse.
	for f := 0; f < 2; f++ {
		f := f
		for s := 0; s < 40; s++ {
			s := s
			sim.Schedule(time.Duration(s)*2*time.Millisecond, func() { l.HandlePacket(req(f, uint64(s))) })
		}
	}
	sim.Run()
	ctrl.Tick(sim.Now() + time.Second) // final flush on the sim clock
	if l.Stats().Samples == 0 {
		t.Fatal("estimator produced no samples; test is vacuous")
	}
	if ctrl.Delivered() == 0 {
		t.Fatal("packet-path ticks never merged samples into the policy")
	}
	if la.Updates() == 0 {
		t.Fatal("latency-aware policy never rebuilt despite merged samples")
	}
}

// newModeLB builds an LB over round-robin with the given mode settings and
// records every latency sample it produces.
func newModeLB(t *testing.T, sim *netsim.Sim, cfg Config) (*LB, *[]time.Duration) {
	t.Helper()
	if cfg.Policy == nil {
		cfg.Policy = control.NewRoundRobin(2)
	}
	links := make([]*netsim.Link, cfg.Policy.NumBackends())
	for i := range links {
		links[i] = netsim.NewLink(sim, "up", 0, 0, &sink{})
	}
	l, err := New(sim, cfg, links)
	if err != nil {
		t.Fatal(err)
	}
	samples := new([]time.Duration)
	l.OnSample = func(_ time.Duration, _ int, s time.Duration) { *samples = append(*samples, s) }
	return l, samples
}

// send schedules one packet of flow n at the given instant.
func send(sim *netsim.Sim, l *LB, at time.Duration, n int, kind netsim.Kind) {
	sim.Schedule(at, func() { l.HandlePacket(&netsim.Packet{Flow: flowK(n), Kind: kind, Size: 64}) })
}

func TestLBHandshakeOneSamplePerFlow(t *testing.T) {
	sim := netsim.NewSim(1)
	l, samples := newModeLB(t, sim, Config{Handshake: true})
	send(sim, l, time.Millisecond, 1, netsim.KindOpen)
	send(sim, l, 1500*time.Microsecond, 1, netsim.KindRequest)
	for i := 0; i < 10; i++ {
		send(sim, l, 2*time.Millisecond+time.Duration(i)*time.Millisecond, 1, netsim.KindRequest)
	}
	sim.Run()
	if len(*samples) != 1 || (*samples)[0] != 500*time.Microsecond {
		t.Errorf("samples = %v, want the one SYN-to-request gap 500µs", *samples)
	}
	if l.ConnCount() != 1 {
		t.Errorf("conn count = %d", l.ConnCount())
	}
}

func TestLBHandshakeIndependentFlows(t *testing.T) {
	sim := netsim.NewSim(1)
	l, samples := newModeLB(t, sim, Config{Handshake: true})
	send(sim, l, 0, 1, netsim.KindOpen)
	send(sim, l, time.Millisecond, 2, netsim.KindOpen)
	send(sim, l, 2*time.Millisecond, 1, netsim.KindRequest)
	send(sim, l, 4*time.Millisecond, 2, netsim.KindRequest)
	sim.Run()
	want := []time.Duration{2 * time.Millisecond, 3 * time.Millisecond}
	if !slices.Equal(*samples, want) {
		t.Errorf("samples = %v, want %v", *samples, want)
	}
}

// TestLBHandshakeCloseAndResample: a closed connection's entry goes with its
// stamp, so a reopened connection on the same 5-tuple measures again.
func TestLBHandshakeCloseAndResample(t *testing.T) {
	sim := netsim.NewSim(1)
	l, samples := newModeLB(t, sim, Config{Handshake: true})
	send(sim, l, 0, 3, netsim.KindOpen)
	send(sim, l, time.Millisecond, 3, netsim.KindRequest)
	send(sim, l, 2*time.Millisecond, 3, netsim.KindClose)
	send(sim, l, 10*time.Millisecond, 3, netsim.KindOpen)
	send(sim, l, 11*time.Millisecond, 3, netsim.KindRequest)
	sim.Run()
	want := []time.Duration{time.Millisecond, time.Millisecond}
	if !slices.Equal(*samples, want) {
		t.Errorf("samples = %v, want %v", *samples, want)
	}
}

// TestLBHandshakeIdleAndEviction: a full table evicts the longest-idle
// flow, an idle sweep takes the rest, and a flow silent longer than
// core.EstimatorIdleReset stamps afresh rather than sampling the silence.
func TestLBHandshakeIdleAndEviction(t *testing.T) {
	sim := netsim.NewSim(1)
	l, _ := newModeLB(t, sim, Config{Handshake: true, MaxConns: 2})
	send(sim, l, 0, 1, netsim.KindOpen)
	send(sim, l, time.Millisecond, 2, netsim.KindOpen)
	send(sim, l, 2*time.Millisecond, 3, netsim.KindOpen) // evicts flow 1 (oldest)
	sim.Run()
	if l.ConnCount() != 2 || l.Stats().Evicted != 1 || l.Backend(flowK(1)) != -1 {
		t.Fatalf("conns = %d, evicted = %d, flow 1 pinned to %d; want 2, 1, -1",
			l.ConnCount(), l.Stats().Evicted, l.Backend(flowK(1)))
	}
	send(sim, l, connIdleTimeout+sweepInterval, 4, netsim.KindOpen) // sweeps flows 2 and 3
	sim.Run()
	if st := l.Stats(); st.Swept != 2 || l.ConnCount() != 1 {
		t.Errorf("swept = %d, conns = %d; want 2, 1", st.Swept, l.ConnCount())
	}
	if st := l.Stats(); st.NewFlows != st.Closed+st.Swept+st.Evicted+uint64(l.ConnCount()) {
		t.Errorf("flow conservation: %+v with %d open", st, l.ConnCount())
	}

	sim = netsim.NewSim(1)
	l, samples := newModeLB(t, sim, Config{Handshake: true})
	send(sim, l, 0, 1, netsim.KindOpen)
	quiet := core.EstimatorIdleReset + time.Second
	send(sim, l, quiet, 1, netsim.KindOpen)
	send(sim, l, quiet+time.Millisecond, 1, netsim.KindRequest)
	sim.Run()
	if !slices.Equal(*samples, []time.Duration{time.Millisecond}) {
		t.Errorf("samples = %v, want only the fresh stamp's 1ms", *samples)
	}
}

// TestLBEvictionTieBreak: among flows idle equally long the smallest key
// goes, whatever order the map iterates in.
func TestLBEvictionTieBreak(t *testing.T) {
	for run := 0; run < 20; run++ {
		sim := netsim.NewSim(1)
		l, _ := newModeLB(t, sim, Config{MaxConns: 4})
		for _, n := range []int{3, 1, 2, 0} {
			send(sim, l, time.Millisecond, n, netsim.KindRequest)
		}
		send(sim, l, 2*time.Millisecond, 9, netsim.KindRequest)
		sim.Run()
		for n := 0; n < 4; n++ {
			if pinned := l.Backend(flowK(n)) >= 0; pinned != (n != 0) {
				t.Fatalf("run %d: flow %d pinned=%v, want only flow 0 evicted", run, n, pinned)
			}
		}
	}
}

// TestLBUnroutableLeavesNoState: a packet no backend takes leaves nothing
// behind — no connection entry, no estimator — so it can neither occupy the
// table nor evict a live flow, and once a backend is admitted again the
// flow's next packet is its first.
func TestLBUnroutableLeavesNoState(t *testing.T) {
	sim := netsim.NewSim(1)
	ctrl := control.NewController(control.NewRoundRobin(2), control.ControllerConfig{})
	defer ctrl.Close()
	ctrl.SetEjected(0, true)
	ctrl.SetEjected(1, true)
	l, samples := newModeLB(t, sim, Config{Policy: ctrl, MaxConns: 4})
	const n = 20
	for f := 0; f < n; f++ {
		// A batch of three packets per flow: an estimator fed these would
		// sample the gap to the flow's next packet.
		for i := 0; i < 3; i++ {
			send(sim, l, time.Duration(f*10+i)*time.Microsecond, f, netsim.KindRequest)
		}
	}
	sim.Run()
	if st := l.Stats(); st.NoBackend != 3*n || l.ConnCount() != 0 || st.NewFlows != 0 || st.Evicted != 0 {
		t.Fatalf("NoBackend = %d, conns = %d, new = %d, evicted = %d; want %d, 0, 0, 0",
			st.NoBackend, l.ConnCount(), st.NewFlows, st.Evicted, 3*n)
	}

	ctrl.SetEjected(0, false)
	send(sim, l, time.Millisecond, 0, netsim.KindRequest)
	sim.Run()
	if l.ConnCount() != 1 || l.Backend(flowK(0)) != 0 {
		t.Fatalf("after recovery: conns = %d, flow 0 on %d; want 1, 0", l.ConnCount(), l.Backend(flowK(0)))
	}
	if len(*samples) != 0 {
		t.Errorf("the first routed packet sampled %v: its estimator saw the unroutable ones", *samples)
	}
}

// TestLBReusedEntryStartsFresh: a closed flow's entry is recycled for the
// next new flow, whose first packet must not sample the gap since the old
// flow's last one.
func TestLBReusedEntryStartsFresh(t *testing.T) {
	sim := netsim.NewSim(1)
	l, samples := newModeLB(t, sim, Config{})
	send(sim, l, 0, 1, netsim.KindRequest)
	send(sim, l, 10*time.Microsecond, 1, netsim.KindClose)
	send(sim, l, time.Millisecond, 2, netsim.KindRequest)
	sim.Run()
	if len(*samples) != 0 {
		t.Errorf("samples = %v; flow 2's first packet sampled flow 1's estimator", *samples)
	}
	if l.Stats().Closed != 1 || l.ConnCount() != 1 {
		t.Errorf("closed = %d, conns = %d; want 1, 1", l.Stats().Closed, l.ConnCount())
	}
}
