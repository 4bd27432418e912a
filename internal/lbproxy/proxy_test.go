package lbproxy

import (
	"fmt"
	"net"
	"slices"
	"syscall"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/memcache"
)

// startBackend runs a memcached server on an ephemeral port.
func startBackend(t *testing.T) (*memcache.Server, string) {
	t.Helper()
	s := memcache.NewServer()
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })
	return s, s.Addr().String()
}

// startProxy runs a proxy over the given backends.
func startProxy(t *testing.T, pol control.Policy, backends ...string) (*Proxy, string) {
	t.Helper()
	return startProxyCfg(t, Config{Backends: backends, Policy: pol})
}

// startProxyCfg runs a proxy with a full config (backends already set).
func startProxyCfg(t *testing.T, cfg Config) (*Proxy, string) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve() }()
	t.Cleanup(func() { _ = p.Close() })
	return p, p.Addr().String()
}

// assertIdentity checks the Accepted accounting identity on a settled proxy.
func assertIdentity(t *testing.T, st Stats) {
	t.Helper()
	var routed uint64
	for _, n := range st.PerBackend {
		routed += n
	}
	if st.Accepted != routed+st.DialErrors+st.Dropped {
		t.Errorf("identity violated: accepted %d != routed %d + dialErrors %d + dropped %d",
			st.Accepted, routed, st.DialErrors, st.Dropped)
	}
}

// deadAddr reserves a loopback port that refuses connections for the rest
// of the test: a socket is bound to it but never listens, so a SYN meets a
// reset, and no outgoing connection is handed the port meanwhile. A server
// can still Listen on it (both sockets set SO_REUSEADDR) when the test
// wants the backend to come up.
func deadAddr(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Close(fd) })
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
}

func TestProxyValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := New(Config{Policy: control.NewRoundRobin(2), Backends: []string{"x"}}); err == nil {
		t.Error("backend mismatch accepted")
	}
}

// TestEstimatorIdleReset drives a connection's observe step on synthetic
// timestamps, reading each sample back from the controller's next tick. The
// first request chunk creates the estimator and teardown ends it, each
// moving the tracked-flows gauge. A chunk after a silence shorter than
// core.EstimatorIdleReset yields the gap since the previous batch head. A
// chunk after a longer silence yields no sample and starts the ladder over,
// so the estimator then tracks a fresh one chunk for chunk. (The ladder's
// own state across the reset is pinned next to the type, by core's
// TestFlowEstimatorIdleReset.)
func TestEstimatorIdleReset(t *testing.T) {
	p, err := New(Config{Backends: []string{"127.0.0.1:1"}, Policy: control.NewRoundRobin(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var f core.FlowEstimator
	observe := func(now time.Duration) (time.Duration, bool) {
		p.observe(&f, 0, 0, now)
		p.ctrl.Tick(now)
		st := p.ctrl.LastTick()[0]
		return st.Mean, st.Count == 1
	}

	// batches feeds 4-chunk batches (100 µs apart, 2 ms between batches) for
	// 200 ms from start: enough epochs for the cliff to leave rung 0.
	batches := func(observe func(time.Duration) (time.Duration, bool), start time.Duration) (out []time.Duration) {
		for now := start; now < start+200*time.Millisecond; now += 2 * time.Millisecond {
			for i := time.Duration(0); i < 4; i++ {
				if sample, ok := observe(now + i*100*time.Microsecond); ok {
					out = append(out, sample)
				}
			}
		}
		return out
	}

	t0 := time.Hour
	if sample, ok := observe(t0); ok || !f.Live() || p.estimators.Load() != 1 {
		t.Fatalf("first chunk: sample %v ok=%v live=%v estimators=%d, want an estimator and no sample",
			sample, ok, f.Live(), p.estimators.Load())
	}
	quiet := core.EstimatorIdleReset - time.Second
	if sample, ok := observe(t0 + quiet); !ok || sample != quiet {
		t.Errorf("chunk after %v of silence: sample %v ok=%v, want the batch-head gap %v", quiet, sample, ok, quiet)
	}
	t1 := t0 + quiet
	batches(observe, t1+time.Millisecond)

	t2 := t1 + 2*core.EstimatorIdleReset
	if sample, ok := observe(t2); ok {
		t.Errorf("chunk after %v of silence yielded sample %v, want none", 2*core.EstimatorIdleReset, sample)
	}
	fresh := core.MustEnsemble(core.EnsembleConfig{})
	fresh.Observe(t2)
	if got, want := batches(observe, t2+time.Millisecond), batches(fresh.Observe, t2+time.Millisecond); !slices.Equal(got, want) {
		t.Errorf("reset estimator's samples %v, a fresh one's %v", got, want)
	}
	if p.estimators.Load() != 1 {
		t.Errorf("estimators = %d across the idle reset, want the one connection", p.estimators.Load())
	}

	p.forget(&f)
	if f.Live() || p.estimators.Load() != 0 {
		t.Errorf("after forget: live=%v estimators=%d", f.Live(), p.estimators.Load())
	}
}

func TestProxyRelaysMemcacheTraffic(t *testing.T) {
	_, baddr := startBackend(t)
	proxy, paddr := startProxy(t, control.NewRoundRobin(1), baddr)

	c, err := memcache.Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", []byte("through-proxy")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "through-proxy" {
		t.Fatalf("get through proxy: %q ok=%v err=%v", v, ok, err)
	}
	st := proxy.Stats()
	if st.Accepted != 1 || st.PerBackend[0] != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProxySpreadsConnections(t *testing.T) {
	_, b0 := startBackend(t)
	_, b1 := startBackend(t)
	proxy, paddr := startProxy(t, control.NewRoundRobin(2), b0, b1)

	for i := 0; i < 6; i++ {
		c, err := memcache.Dial(paddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Set("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		_ = c.Close()
	}
	// Wait for relays to wind down.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().Active > 0 {
		time.Sleep(10 * time.Millisecond)
	}
	st := proxy.Stats()
	if st.PerBackend[0] != 3 || st.PerBackend[1] != 3 {
		t.Errorf("per-backend conns = %v, want [3 3]", st.PerBackend)
	}
}

func TestProxyDialErrorCounted(t *testing.T) {
	// Point at a dead backend: connections drop but the proxy survives.
	proxy, paddr := startProxy(t, control.NewRoundRobin(1), "127.0.0.1:1")
	c, err := memcache.Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(500 * time.Millisecond))
	if err := c.Set("k", []byte("v")); err == nil {
		t.Error("set succeeded against dead backend")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().DialErrors == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if proxy.Stats().DialErrors == 0 {
		t.Error("dial error not counted")
	}
}

// TestProxyEndToEndFeedback is the live-socket version of Fig. 3 at test
// scale: two real memcached servers, one degraded via the admin delay
// command, a closed-loop client workload, and the latency-aware policy.
// The proxy must route new connections away from the slow server.
func TestProxyEndToEndFeedback(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket timing test")
	}
	slow, slowAddr := startBackend(t)
	fast, fastAddr := startBackend(t)
	slow.SetDelay(8 * time.Millisecond)
	// The estimator's smallest rung is δ₁ = 64µs: response latencies below
	// it merge whole connections into one batch and over-estimate wildly
	// (see EXPERIMENTS.md, "ladder floor"). Raw loopback (~50µs) sits
	// under that floor, so give the fast server a realistic sub-millisecond
	// service time inside the ladder's operating range.
	fast.SetDelay(400 * time.Microsecond)

	la, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends:  []string{"slow", "fast"},
		Alpha:     0.10,
		TableSize: 1021,
		// Keep the drained server measurable (a 2% trickle starves it of
		// samples and staleness then flip-flops the decision), tolerate
		// scheduler-induced sample droughts, and require a clear gap —
		// loopback under parallel-test CPU contention is noisy.
		MinWeight:       0.10,
		Cooldown:        5 * time.Millisecond,
		HysteresisRatio: 1.5,
		Latency: core.ServerLatencyConfig{
			HalfLife:  25 * time.Millisecond,
			Staleness: 3 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy, paddr := startProxy(t, la, slowAddr, fastAddr)

	// Closed-loop workload: sequential connections, several requests each.
	// Drive traffic until the controller settles on the fast server (or a
	// generous deadline passes) — wall-clock timing under parallel-test
	// CPU contention is too noisy for a fixed-duration assertion.
	// Weights are read via Snapshot, which serializes with the sample
	// consumer; touching la directly here would race it.
	settled := func() bool {
		w := proxy.Snapshot().Weights
		return w[0] < w[1]
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := memcache.Dial(paddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(2 * time.Second))
		for i := 0; i < 20; i++ {
			if err := c.Set("key", []byte("value")); err != nil {
				t.Fatalf("set: %v", err)
			}
		}
		_ = c.Close()
		// Require the settled state to persist across a few connections,
		// not just a momentary flip.
		if settled() {
			stable := true
			for i := 0; i < 5 && stable; i++ {
				c, err := memcache.Dial(paddr, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				_ = c.SetDeadline(time.Now().Add(2 * time.Second))
				for j := 0; j < 20; j++ {
					if err := c.Set("key", []byte("value")); err != nil {
						t.Fatalf("set: %v", err)
					}
				}
				_ = c.Close()
				stable = settled()
			}
			if stable {
				break
			}
		}
	}

	if w := proxy.Snapshot().Weights; w[0] >= w[1] {
		t.Errorf("weights = %v; slow server should hold less", w)
	}
	if proxy.Stats().Samples == 0 {
		t.Error("estimator produced no samples from live traffic")
	}
}

func TestProxyHealthEjection(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket timing test")
	}
	// Backend A on a fixed address we can kill and resurrect.
	a := memcache.NewServer()
	if err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addrA := a.Addr().String()
	go func() { _ = a.Serve() }()
	_, addrB := startBackend(t)

	proxy, err := New(Config{
		Backends:       []string{addrA, addrB},
		Policy:         control.NewRoundRobin(2),
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = proxy.Serve() }()
	t.Cleanup(func() { _ = proxy.Close() })
	paddr := proxy.Addr().String()

	doSet := func() error {
		c, err := memcache.Dial(paddr, time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(time.Second))
		return c.Set("k", []byte("v"))
	}
	if err := doSet(); err != nil {
		t.Fatalf("healthy pool: %v", err)
	}

	// Kill A and wait for the prober to eject it.
	_ = a.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && !proxy.Stats().Down[0] {
		time.Sleep(20 * time.Millisecond)
	}
	if !proxy.Stats().Down[0] {
		t.Fatal("dead backend never ejected")
	}
	// Every connection must now succeed via B, including the ones round
	// robin would have sent to A.
	for i := 0; i < 4; i++ {
		if err := doSet(); err != nil {
			t.Fatalf("request during ejection failed: %v", err)
		}
	}
	if proxy.Stats().Fallbacks == 0 {
		t.Error("no fallbacks counted while A was down")
	}

	// Resurrect A on the same address; the prober must readmit it.
	a2 := memcache.NewServer()
	if err := a2.Listen(addrA); err != nil {
		t.Fatalf("rebind %s: %v", addrA, err)
	}
	go func() { _ = a2.Serve() }()
	t.Cleanup(func() { _ = a2.Close() })
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().Down[0] {
		time.Sleep(20 * time.Millisecond)
	}
	if proxy.Stats().Down[0] {
		t.Fatal("recovered backend never readmitted")
	}
	if err := doSet(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

// waitOpenFlowsZero waits until every backend's open-flow count, the
// occupancy the proxy binds into its policy, is back to 0.
func waitOpenFlowsZero(t *testing.T, p *Proxy) {
	t.Helper()
	counts := func() []int64 {
		out := make([]int64, len(p.openFlows))
		for b := range p.openFlows {
			out[b] = p.openFlows[b].Load()
		}
		return out
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		c := counts()
		if !slices.ContainsFunc(c, func(n int64) bool { return n != 0 }) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("open flows per backend = %v after every connection ended, want all 0", c)
		}
	}
}

// TestWholePoolEjectedUndoesPick ejects every backend through the
// controller (the layer routing actually consults) and verifies that
// dropped connections are counted in Stats.Dropped, satisfy the accounting
// identity, and leave no open flow counted against any backend: a dropped
// connection that did would skew every occupancy policy's picks forever.
func TestWholePoolEjectedUndoesPick(t *testing.T) {
	_, addrA := startBackend(t)
	_, addrB := startBackend(t)
	proxy, paddr := startProxy(t, control.NewLeastConn(2), addrA, addrB)

	// Eject the whole pool (the prober is off in this config).
	proxy.ctrl.SetEjected(0, true)
	proxy.ctrl.SetEjected(1, true)

	for i := 0; i < 4; i++ {
		c, err := net.DialTimeout("tcp", paddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// The proxy drops the connection without relaying; wait for EOF.
		_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 1)
		if _, err := c.Read(buf); err == nil {
			t.Error("expected connection to be dropped with the pool ejected")
		}
		_ = c.Close()
	}

	// Wait for the accounting to settle.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().Dropped < 4 {
		time.Sleep(10 * time.Millisecond)
	}
	st := proxy.Stats()
	if st.Dropped != 4 {
		t.Errorf("Dropped = %d, want 4", st.Dropped)
	}
	var routed uint64
	for _, n := range st.PerBackend {
		routed += n
	}
	if st.Accepted != routed+st.DialErrors+st.Dropped {
		t.Errorf("identity violated: accepted=%d routed=%d dialErrors=%d dropped=%d",
			st.Accepted, routed, st.DialErrors, st.Dropped)
	}
	waitOpenFlowsZero(t, proxy)
}

// TestProxyBindsOpenFlows: New binds the proxy's per-backend open-flow
// count into the policy, so least-connections spreads held connections
// evenly and sends the next one to the backend where a connection closed.
// Unbound, leastconn would read every backend as empty and send every
// connection to backend 0.
func TestProxyBindsOpenFlows(t *testing.T) {
	_, addrA := startBackend(t)
	_, addrB := startBackend(t)
	proxy, paddr := startProxy(t, control.NewLeastConn(2), addrA, addrB)

	// open relays one exchange on a new connection and reports the backend
	// it was counted on.
	open := func(i int) (*memcache.Client, int) {
		t.Helper()
		before := proxy.Stats().PerBackend
		c, err := memcache.Dial(paddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(2 * time.Second))
		if err := c.Set("k", []byte("v")); err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		after := proxy.Stats().PerBackend
		for b := range after {
			if after[b] > before[b] {
				return c, b
			}
		}
		t.Fatalf("conn %d: counted on no backend (PerBackend %v)", i, after)
		return nil, -1
	}
	var held [4]*memcache.Client
	var on [4]int
	for i := range held {
		held[i], on[i] = open(i)
	}
	if got := proxy.Stats().PerBackend; !slices.Equal(got, []uint64{2, 2}) {
		t.Fatalf("PerBackend = %v with 4 connections held under leastconn, want [2 2]", got)
	}
	first0 := slices.Index(on[:], 0)
	_ = held[first0].Close()
	for deadline := time.Now().Add(2 * time.Second); proxy.openFlows[0].Load() != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("backend 0 open flows = %d after one of its 2 closed, want 1", proxy.openFlows[0].Load())
		}
	}
	next, b := open(4)
	if b != 0 {
		t.Errorf("next connection went to backend %d, want 0 where a connection closed", b)
	}
	_ = next.Close()
	for i, c := range held {
		if i != first0 {
			_ = c.Close()
		}
	}
	waitOpenFlowsZero(t, proxy)
}

// TestProxyDialFailover kills one of two backends without ejecting it: the
// routed dial fails, the one-shot failover rescues the connection onto the
// live backend, and the accounting records a Failover — not a DialError.
func TestProxyDialFailover(t *testing.T) {
	a := memcache.NewServer()
	if err := a.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addrA := a.Addr().String()
	go func() { _ = a.Serve() }()
	_, addrB := startBackend(t)
	proxy, paddr := startProxy(t, control.NewRoundRobin(2), addrA, addrB)

	_ = a.Close() // A is dead but NOT ejected: every dial to it fails

	for i := 0; i < 6; i++ {
		c, err := memcache.Dial(paddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(2 * time.Second))
		if err := c.Set("k", []byte("v")); err != nil {
			t.Fatalf("conn %d through failover: %v", i, err)
		}
		_ = c.Close()
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().Active > 0 {
		time.Sleep(10 * time.Millisecond)
	}
	st := proxy.Stats()
	if st.Failovers == 0 {
		t.Error("no failovers recorded with a dead un-ejected backend")
	}
	if st.DialErrors != 0 {
		t.Errorf("DialErrors = %d, want 0 (failover should absorb)", st.DialErrors)
	}
	if st.PerBackend[0] != 0 {
		t.Errorf("dead backend relayed %d connections", st.PerBackend[0])
	}
	var routed uint64
	for _, n := range st.PerBackend {
		routed += n
	}
	if st.Accepted != routed+st.DialErrors+st.Dropped {
		t.Errorf("identity violated: %+v", st)
	}
	// Each failover moved its connection's open count to the live backend,
	// and teardown released it there.
	waitOpenFlowsZero(t, proxy)
}

// TestProxyPassiveOutageEjection is the acceptance scenario: active probes
// OFF, one backend refusing connections, and only passive in-band signals
// available. The proxy must eject the backend from dial errors alone,
// absorb subsequent picks via failover with zero terminal dial errors, and
// re-admit through slow-start once the backend comes up.
func TestProxyPassiveOutageEjection(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket timing test")
	}
	addrA := deadAddr(t) // refuses until a server listens on it below
	_, addrB := startBackend(t)

	proxy, paddr := startProxyCfg(t, Config{
		Backends:        []string{addrA, addrB},
		Policy:          control.NewRoundRobin(2),
		ControlInterval: 2 * time.Millisecond,
		// HealthInterval zero: NO active probes. Detection is passive only.
		Detector: control.DetectorConfig{
			Enabled:          true,
			FailureThreshold: 3,
			BackoffInitial:   150 * time.Millisecond,
			SlowStartTicks:   20,
		},
	})

	doSet := func() error {
		c, err := memcache.Dial(paddr, time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(2 * time.Second))
		return c.Set("k", []byte("v"))
	}

	// Drive connections until passive detection ejects A. Every one must
	// succeed — failover absorbs the refused dials meanwhile.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !proxy.Stats().Down[0] {
		if err := doSet(); err != nil {
			t.Fatalf("request during outage failed: %v", err)
		}
	}
	st := proxy.Stats()
	if !st.Down[0] {
		t.Fatal("passive signals never ejected the dead backend")
	}
	if st.Failovers == 0 {
		t.Error("no failovers while outage was undetected")
	}
	if st.DialErrors != 0 {
		t.Errorf("terminal DialErrors = %d, want 0", st.DialErrors)
	}

	// After ejection routing avoids A entirely.
	for i := 0; i < 6; i++ {
		if err := doSet(); err != nil {
			t.Fatalf("request after ejection failed: %v", err)
		}
	}
	if st := proxy.Stats(); st.DialErrors != 0 {
		t.Errorf("post-ejection terminal DialErrors = %d, want 0", st.DialErrors)
	}

	// End the outage: the backoff expires, a half-open trial succeeds, and
	// slow-start ramps A back to full admission.
	a := memcache.NewServer()
	if err := a.Listen(addrA); err != nil {
		t.Fatalf("bring up %s: %v", addrA, err)
	}
	go func() { _ = a.Serve() }()
	t.Cleanup(func() { _ = a.Close() })
	deadline = time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		if !proxy.Stats().Down[0] && proxy.ctrl.Health(0).State == control.Healthy {
			break
		}
		_ = doSet() // keep trial traffic flowing
		time.Sleep(5 * time.Millisecond)
	}
	if proxy.Stats().Down[0] {
		t.Fatal("backend never re-admitted after outage end")
	}
	if hs := proxy.ctrl.Health(0).State; hs != control.Healthy {
		t.Fatalf("health state after recovery = %v, want healthy", hs)
	}
	// And it takes traffic again.
	if err := doSet(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

// TestProxyGracefulDrain verifies Close with a DrainTimeout lets an
// in-flight connection finish instead of chopping it.
func TestProxyGracefulDrain(t *testing.T) {
	_, baddr := startBackend(t)
	p, err := New(Config{
		Backends:     []string{baddr},
		Policy:       control.NewRoundRobin(1),
		DrainTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve() }()

	c, err := memcache.Dial(p.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(3 * time.Second))
	if err := c.Set("warm", []byte("up")); err != nil {
		t.Fatal(err)
	}

	// Close concurrently with one more request on the established conn:
	// drain must let it complete.
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	// Give Close a moment to stop the accept loop.
	time.Sleep(50 * time.Millisecond)
	if err := c.Set("mid-drain", []byte("v")); err != nil {
		t.Errorf("in-flight request chopped during drain: %v", err)
	}
	_ = c.Close()
	if err := <-closed; err != nil {
		t.Errorf("close: %v", err)
	}
	st := p.Stats()
	var routed uint64
	for _, n := range st.PerBackend {
		routed += n
	}
	if st.Accepted != routed+st.DialErrors+st.Dropped {
		t.Errorf("identity violated after drain: %+v", st)
	}
}
