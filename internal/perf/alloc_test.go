// Package perf is the allocation-regression gate: testing.AllocsPerRun
// assertions that pin the three hot paths — event schedule+dispatch in the
// simulator, EnsembleTimeout.Observe, and the proxy's per-read measurement
// path — at zero allocations per operation. These are tests, not
// benchmarks, so CI fails loudly the day someone reintroduces a per-packet
// allocation; benchmark/ prices the end-to-end cost separately.
package perf

import (
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/lb"
	"inbandlb/internal/lbproxy/dialpool"
	"inbandlb/internal/netsim"
	"inbandlb/internal/packet"
	"inbandlb/internal/server"
	"inbandlb/internal/tcpsim"
	"inbandlb/internal/testbed"
)

// assertZeroAllocs runs fn through testing.AllocsPerRun and fails on any
// allocation. warmup runs first, outside the measurement, so free lists,
// map buckets, and queue capacity reach steady state.
func assertZeroAllocs(t *testing.T, name string, warmup, fn func()) {
	t.Helper()
	if warmup != nil {
		warmup()
	}
	if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
		t.Errorf("%s: %.3f allocs/op, want 0", name, allocs)
	}
}

// TestScheduleDispatchZeroAlloc covers the simulator's event loop: pushing
// a preallocated callback and dispatching it must not allocate. This is
// what the container/heap replacement bought — the old queue boxed every
// event into an interface on Push.
func TestScheduleDispatchZeroAlloc(t *testing.T) {
	sim := netsim.NewSim(1)
	fired := 0
	fn := func() { fired++ }
	body := func() {
		sim.Schedule(sim.Now()+time.Microsecond, fn)
		sim.Run()
	}
	assertZeroAllocs(t, "Schedule+dispatch", body, body)
	if fired == 0 {
		t.Fatal("callback never ran")
	}
	// Every tier of the queue, and the hand-over between them: the same
	// instant, the current epoch, later epochs of the ring, and beyond the
	// ring, drained through each epoch boundary on the way.
	tiers := func() {
		now := sim.Now()
		for _, d := range []time.Duration{0, time.Microsecond, time.Millisecond, 40 * time.Millisecond, time.Second} {
			sim.Schedule(now+d, fn)
			sim.Schedule(now+d, fn)
		}
		sim.Run()
	}
	assertZeroAllocs(t, "Schedule+dispatch across epochs", tiers, tiers)
}

// TestTimerReArmZeroAlloc covers the reusable-event API periodic drivers
// use: re-arming a Timer is free.
func TestTimerReArmZeroAlloc(t *testing.T) {
	sim := netsim.NewSim(1)
	fired := 0
	timer := sim.NewTimer(func() { fired++ })
	body := func() {
		timer.After(time.Microsecond)
		sim.Run()
	}
	assertZeroAllocs(t, "Timer re-arm", body, body)
	if fired == 0 {
		t.Fatal("timer never fired")
	}
}

// TestDeepQueueScheduleZeroAlloc schedules against a standing backlog so
// sift-up/down actually move through heap levels, not just slot 0.
func TestDeepQueueScheduleZeroAlloc(t *testing.T) {
	sim := netsim.NewSim(1)
	fn := func() {}
	horizon := 10 * time.Second
	for i := 0; i < 4096; i++ {
		sim.Schedule(horizon+time.Duration(i)*time.Millisecond, fn)
	}
	i := 0
	assertZeroAllocs(t, "deep-queue Schedule", nil, func() {
		// Land in the middle of the backlog; never dispatched within the
		// measured region (RunUntil stays before the backlog).
		sim.Schedule(horizon+time.Duration(i%4096)*time.Millisecond, fn)
		i++
	})
}

// TestLinkSendZeroAlloc covers one packet riding a link: Send plus the
// delivery event it schedules, dispatched to a handler — and on a bounded
// link the dequeue event as well.
func TestLinkSendZeroAlloc(t *testing.T) {
	sim := netsim.NewSim(1)
	delivered := 0
	link := netsim.NewLink(sim, "l", time.Microsecond, 1e9,
		netsim.HandlerFunc(func(*netsim.Packet) { delivered++ }))
	p := &netsim.Packet{Size: 128}
	body := func() {
		link.Send(p)
		sim.Run()
	}
	assertZeroAllocs(t, "Link.Send+deliver", body, body)
	link.QueueLimit = 4
	assertZeroAllocs(t, "bounded Link.Send+deliver", body, body)
	if delivered == 0 {
		t.Fatal("packet never delivered")
	}
}

// TestSimRequestAllocCeiling pins the heap objects one simulated request
// costs end to end — client, link, LB, server, DSR return — at zero. The
// client runs with every per-request timer armed (deadline, RTO, think
// time), and the server with a service time: each of those was a closure
// per request, 6 objects in all, before the client and server kept their
// timers in a queue and in recycled records; the request and response
// packets were 2 more before they came from the simulator's packet pool.
//
// It also pins the events dispatched per request at 5: two link
// deliveries to the server, its service completion, the delivery back and
// the think timer. The client queues a deadline check and a first-RTO
// check only for its oldest outstanding request, so the checks responses
// beat dispatch nothing.
func TestSimRequestAllocCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
		t.Fatal(err)
	}
	// Warm-up: past the first deadlines, so every free list, the packet
	// pool and the queue's slab have reached their standing size.
	cluster.Run(300 * time.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sent := cluster.Client.Stats().Sent
	events := cluster.Sim.RunUntil(1300 * time.Millisecond)
	runtime.ReadMemStats(&after)
	sent = cluster.Client.Stats().Sent - sent
	if sent < 50_000 {
		t.Fatalf("only %d requests in the measured second", sent)
	}
	if perReq := float64(events) / float64(sent); perReq > 5.01 {
		t.Errorf("%d events for %d requests = %.3f per request, want 5", events, sent, perReq)
	}
	// A free list may still grow by a few entries when the window sees a
	// new peak of requests in flight; two per connection slot bounds that.
	objs := after.Mallocs - before.Mallocs
	if slack := uint64(2 * 16 * 2); objs > slack {
		t.Errorf("%d heap objects for %d requests = %.3f per request, want 0", objs, sent, float64(objs)/float64(sent))
	}
}

// TestEnsembleObserveZeroAlloc covers Algorithm 2's per-packet cost,
// including batch boundaries (sample production) and epoch rotations with
// no OnEpoch hook installed.
func TestEnsembleObserveZeroAlloc(t *testing.T) {
	est := core.MustEnsemble(core.EnsembleConfig{})
	now := time.Duration(0)
	i := 0
	assertZeroAllocs(t, "EnsembleTimeout.Observe", nil, func() {
		now += 30 * time.Microsecond
		if i%4 == 0 {
			now += 500 * time.Microsecond // batch boundary → sample
		}
		i++
		est.Observe(now)
	})
}

// TestFlowTableObserveZeroAlloc covers the steady-state per-packet path
// through the flow table: known flow, estimator update, no admission.
func TestFlowTableObserveZeroAlloc(t *testing.T) {
	ft, err := core.NewFlowTable(core.FlowTableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	keys := benchKeys()
	now := time.Duration(0)
	i := 0
	body := func() {
		now += 30 * time.Microsecond
		ft.Observe(keys[i%len(keys)], now)
		i++
	}
	assertZeroAllocs(t, "FlowTable.Observe", func() {
		for j := 0; j < len(keys); j++ {
			body()
		}
	}, body)
}

// TestLBPacketPathZeroAlloc covers the simulated dataplane end to end:
// connection-table lookup, the entry's estimator, policy pick, and forward
// onto a link, with the event loop drained every iteration. This is
// BenchmarkLBPacketPath's loop body as a hard zero-alloc invariant. The
// second leg runs the same loop with congestion tracking on behind a
// Controller: every revisit of a packet re-sends its sequence edge, so the
// entry's congestion state reports a retransmission into the controller's
// aggregator each time, and control ticks fire on the packet path.
func TestLBPacketPathZeroAlloc(t *testing.T) {
	for _, leg := range []struct {
		name       string
		congestion bool
	}{{"LB packet path", false}, {"LB packet path, congestion behind a Controller", true}} {
		sim := netsim.NewSim(1)
		var pol control.Policy = control.NewRoundRobin(4)
		if leg.congestion {
			ctrl := control.NewController(pol, control.ControllerConfig{Interval: 100 * time.Microsecond})
			defer ctrl.Close()
			pol = ctrl
		}
		links := make([]*netsim.Link, 4)
		for i := range links {
			links[i] = netsim.NewLink(sim, "up", 0, 0, netsim.HandlerFunc(func(*netsim.Packet) {}))
		}
		balancer, err := lb.New(sim, lb.Config{Policy: pol, Congestion: leg.congestion}, links)
		if err != nil {
			t.Fatal(err)
		}
		keys := benchKeys()
		pkts := make([]*netsim.Packet, len(keys))
		for i := range pkts {
			pkts[i] = &netsim.Packet{Flow: keys[i], Kind: netsim.KindRequest, Seq: uint64(i), Size: 128}
		}
		i := 0
		body := func() {
			balancer.HandlePacket(pkts[i%len(pkts)])
			i++
			sim.RunUntil(sim.Now() + time.Microsecond)
		}
		assertZeroAllocs(t, leg.name, func() {
			for j := 0; j < 4*len(keys); j++ {
				body()
			}
		}, body)
		// Congestion events reach the controller's totals only through a
		// tick's merge, so a nonzero count shows both ran.
		if ctrl, ok := pol.(*control.Controller); ok && ctrl.Health(0).CongestionEvents == 0 {
			t.Errorf("%s: no congestion event merged; the congestion path or the tick went unexercised", leg.name)
		}
	}
}

// TestProxyMeasurementPathZeroAlloc covers the estimator half of what the
// live proxy runs on every request-direction read in steady state: the
// connection's own estimator observes the chunk, interleaved across many
// connections as one loop serves them. (The socket syscalls around it are
// the kernel's business; the sample fold that follows it is gated by
// TestControllerMeasurementPathZeroAlloc.)
func TestProxyMeasurementPathZeroAlloc(t *testing.T) {
	conns := connEstimators()
	now := time.Duration(0)
	i := 0
	body := func() {
		now += 5 * time.Microsecond
		if i%4 == 0 {
			now += 500 * time.Microsecond
		}
		conns[i%len(conns)].Observe(now)
		i++
	}
	assertZeroAllocs(t, "proxy measurement path", func() {
		for j := 0; j < 4*len(conns); j++ {
			body()
		}
	}, body)
}

// TestSnapshotPickZeroAlloc covers the data-plane routing guarantee: a
// Controller wrapping a table-based policy serves Pick and Route as pure
// snapshot reads — zero allocations, no mutex (a mutex would not show up
// here, but the lock-free claim is exercised under -race by the lbproxy
// stress tests; this gate pins the allocation half). A stateful policy's
// Route and FailoverTarget pass through the same snapshot admission rule,
// allocation-free too.
func TestSnapshotPickZeroAlloc(t *testing.T) {
	la, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends: []string{"b0", "b1", "b2", "b3"}, Alpha: 0.1, TableSize: 1021,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := control.NewController(la, control.ControllerConfig{})
	defer ctrl.Close()
	ctrl.SetEjected(1, true) // exercise the fallback scan, not just the fast path
	keys := benchKeys()
	i := 0
	assertZeroAllocs(t, "Controller.Pick (snapshot)", nil, func() {
		ctrl.Pick(keys[i%len(keys)], 0)
		i++
	})
	assertZeroAllocs(t, "Controller.Route (snapshot)", nil, func() {
		ctrl.Route(keys[i%len(keys)], 0)
		i++
	})
	snap := ctrl.Snapshot()
	assertZeroAllocs(t, "Snapshot.RouteHash", nil, func() {
		snap.RouteHash(uint64(i))
		i++
	})

	// A stateful policy takes the same admission rule: its pick (under the
	// mutex) lands on the ejected backend and falls back.
	lc := control.NewController(control.NewLeastConn(4), control.ControllerConfig{})
	defer lc.Close()
	open := []int{3, 0, 2, 5}
	lc.BindOccupancy(func(b int) int { return open[b] })
	lc.SetEjected(1, true)
	if b, fellBack := lc.Route(keys[0], 0); b != 2 || !fellBack {
		t.Fatalf("leastconn Route = (%d, %v), want (2, true)", b, fellBack)
	}
	assertZeroAllocs(t, "Controller.Route (leastconn)", nil, func() {
		lc.Route(keys[i%len(keys)], 0)
		i++
	})
	assertZeroAllocs(t, "Controller.FailoverTarget (leastconn)", nil, func() {
		lc.FailoverTarget(i % 4)
		i++
	})
}

// TestSnapshotRoutePartialAdmissionZeroAlloc pins the recovery path's
// data-plane guarantee: with the passive detector holding a backend in a
// partial-admission state (half-open trial / slow-start ramp), Route and
// RouteHash remain pure snapshot reads — the admission check and the
// prefer-fully-admitted fallback scan allocate nothing and take no locks.
func TestSnapshotRoutePartialAdmissionZeroAlloc(t *testing.T) {
	la, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends: []string{"b0", "b1", "b2", "b3"}, Alpha: 0.1, TableSize: 1021,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := control.NewController(la, control.ControllerConfig{
		Detector: control.DetectorConfig{
			Enabled:          true,
			FailureThreshold: 1,
			BackoffInitial:   time.Millisecond,
			SlowStartTicks:   1 << 30, // park backend 1 mid-ramp for the test
		},
	})
	defer ctrl.Close()
	// Drive backend 1 through eject → half-open → slow-start so its
	// admission fraction is partial while the others are full.
	ctrl.ObserveConn(0, 1, false)
	ctrl.Tick(0)                     // a failure → ejected
	ctrl.Tick(10 * time.Millisecond) // backoff expired → half-open
	ctrl.ObserveConn(0, 1, true)
	ctrl.Tick(11 * time.Millisecond) // trial success → slow-start
	if st := ctrl.Health(1).State; st != control.SlowStart {
		t.Fatalf("setup: state = %v, want slow-start", st)
	}
	keys := benchKeys()
	i := 0
	assertZeroAllocs(t, "Controller.Route (partial admission)", nil, func() {
		ctrl.Route(keys[i%len(keys)], 0)
		i++
	})
	snap := ctrl.Snapshot()
	assertZeroAllocs(t, "Snapshot.RouteHash (partial admission)", nil, func() {
		snap.RouteHash(uint64(i) * 0x9e3779b97f4a7c15)
		i++
	})
}

// TestControllerObserveShardedZeroAlloc pins the per-sample half of the
// controller's data plane: folding a latency observation or a connection
// outcome into its shard cell allocates nothing.
func TestControllerObserveShardedZeroAlloc(t *testing.T) {
	ctrl := control.NewController(control.NewRoundRobin(4), control.ControllerConfig{Shards: 4})
	defer ctrl.Close()
	i := 0
	assertZeroAllocs(t, "Controller.ObserveSharded", nil, func() {
		ctrl.ObserveSharded(uint64(i), i%4, time.Duration(i), time.Millisecond)
		i++
	})
	assertZeroAllocs(t, "Controller.ObserveConn", nil, func() {
		ctrl.ObserveConn(uint64(i), i%4, i%3 != 0)
		i++
	})
}

// TestControllerTickZeroAllocWhenIdle pins the control-plane steady state:
// a tick with no queued samples and an unchanged table drains the shards,
// merges nothing, republishes nothing — and allocates nothing. Ticks run
// every few milliseconds forever; they must not feed the garbage collector.
func TestControllerTickZeroAllocWhenIdle(t *testing.T) {
	ctrl := control.NewController(control.NewRoundRobin(4), control.ControllerConfig{Shards: 4})
	defer ctrl.Close()
	now := time.Duration(0)
	assertZeroAllocs(t, "Controller.Tick (idle)", nil, func() {
		now += time.Millisecond
		ctrl.Tick(now)
	})

	// The passive detector's per-tick pass (outlier median, starvation,
	// state advances) must not change this: an idle, all-healthy tick
	// stays allocation-free with detection enabled.
	det := control.NewController(control.NewRoundRobin(4), control.ControllerConfig{
		Shards:   4,
		Detector: control.DetectorConfig{Enabled: true},
	})
	defer det.Close()
	assertZeroAllocs(t, "Controller.Tick (idle, detector on)", nil, func() {
		now += time.Millisecond
		det.Tick(now)
	})
}

// TestControllerMeasurementPathZeroAlloc is the proxy's per-read pipeline
// as a hard invariant: the connection's estimator observes the chunk, and a
// sample it yields is folded into the aggregator stripe of the connection's
// event-loop shard — one stripe, as one loop writes it.
func TestControllerMeasurementPathZeroAlloc(t *testing.T) {
	conns := connEstimators()
	ctrl := control.NewController(control.NewRoundRobin(4), control.ControllerConfig{Shards: 4})
	defer ctrl.Close()
	const stripe = 2
	now := time.Duration(0)
	i := 0
	body := func() {
		now += 5 * time.Microsecond
		if i%4 == 0 {
			now += 500 * time.Microsecond
		}
		if sample, ok := conns[i%len(conns)].Observe(now); ok {
			ctrl.ObserveSharded(stripe, i%4, now, sample)
		}
		i++
	}
	assertZeroAllocs(t, "controller measurement path", func() {
		for j := 0; j < 4*len(conns); j++ {
			body()
		}
	}, body)
}

// TestEnsembleConstructionSharesDefaultLadder pins the per-connection
// construction cost: an estimator built with the default config performs
// exactly three allocations (struct, batch heads, counts) — in particular
// it must NOT materialize a private copy of the default timeout ladder.
func TestEnsembleConstructionSharesDefaultLadder(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		core.MustEnsemble(core.EnsembleConfig{})
	})
	if allocs > 3 {
		t.Errorf("NewEnsembleTimeout(default): %.1f allocs, want <= 3 (shared default ladder)", allocs)
	}
}

// TestDialPoolCycleAllocCeiling pins the backend-connection pool's
// checkout/checkin hot path. The free-list push/pop and the probe's
// scratch state are allocation-free; the one remaining allocation per
// cycle is the rawConn that (*net.TCPConn).SyscallConn returns — the
// standard library constructs it on every call and there is no way to
// cache it across a Put/Get handoff without holding the conn's identity.
// One small allocation against a saved TCP connect is the whole bargain;
// this gate keeps it from quietly becoming five again.
func TestDialPoolCycleAllocCeiling(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	pool := dialpool.New(dialpool.Config{Backends: 1, Stripes: 1, MaxIdlePerBackend: 2})
	defer pool.Close()
	conn, err := net.DialTimeout("tcp", lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !pool.Put(0, 0, conn, time.Time{}) {
		t.Fatal("checkin rejected")
	}
	cycle := func() {
		c, born, ok := pool.Get(0, 0)
		if !ok {
			t.Fatal("pool miss mid-cycle")
		}
		pool.Put(0, 0, c, born)
	}
	cycle() // warm the prober pool
	if allocs := testing.AllocsPerRun(1000, cycle); allocs > 1 {
		t.Errorf("dialpool Get/Put cycle: %.3f allocs/op, want <= 1 (SyscallConn's rawConn)", allocs)
	}
}

// benchKeys builds a stable set of distinct flow keys.
func benchKeys() []packet.FlowKey {
	keys := make([]packet.FlowKey, 64)
	for i := range keys {
		keys[i] = packet.NewFlowKey(
			netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.1.0.1"),
			uint16(20000+i), 11211, packet.ProtoTCP)
	}
	return keys
}

// connEstimators builds one estimator per connection, as the proxy's relays
// hold them, for as many connections as benchKeys has flows.
func connEstimators() []*core.EnsembleTimeout {
	ests := make([]*core.EnsembleTimeout, len(benchKeys()))
	for i := range ests {
		ests[i] = core.MustEnsemble(core.EnsembleConfig{})
	}
	return ests
}
