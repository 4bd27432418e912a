package lbproxy

import (
	"bufio"
	"errors"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/memcache"
	"inbandlb/internal/testbed"
)

// The netpoll suite exercises the event-driven dataplane end to end: every
// test here sets Config.Netpoll and skips where the platform has no epoll
// (the proxy then silently stays on the goroutine path, so there would be
// nothing to test).

// requireNetpoll skips the test unless the proxy actually brought up its
// poller shards.
func requireNetpoll(t *testing.T, p *Proxy) {
	t.Helper()
	if len(p.np) == 0 {
		t.Skip("netpoll dataplane unavailable on this platform")
	}
}

// TestProxyNetpollRelayMemcache proves the readiness-driven state machine
// relays real protocol traffic correctly in both transfer modes (splice and
// userspace copy), with the estimator observing every exchange.
func TestProxyNetpollRelayMemcache(t *testing.T) {
	for _, mode := range []struct {
		name   string
		splice bool
	}{{"splice", true}, {"copy", false}} {
		t.Run(mode.name, func(t *testing.T) {
			backend, baddr := startBackend(t)
			// Service time must clear the δ₁ = 64 µs ladder floor or
			// raw-loopback gaps merge into one batch and sampling depends
			// on scheduling jitter (EXPERIMENTS.md "ladder floor").
			backend.SetDelay(400 * time.Microsecond)
			proxy, paddr := startProxyCfg(t, Config{
				Backends: []string{baddr},
				Policy:   control.NewRoundRobin(1),
				Splice:   mode.splice,
				Netpoll:  true,
				// Smaller than the 4 KiB values below: only a read that
				// fills the buffer sends the rest of a burst down the splice
				// path (or, in copy mode, back for another read).
				BufferSize: 1 << 10,
			})
			requireNetpoll(t, proxy)

			cli, err := memcache.Dial(paddr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			_ = cli.SetDeadline(time.Now().Add(5 * time.Second))
			big := strings.Repeat("v", 4096)
			for i := 0; i < 10; i++ {
				if err := cli.Set("k", []byte(big)); err != nil {
					t.Fatal(err)
				}
				v, ok, err := cli.Get("k")
				if err != nil || !ok || string(v) != big {
					t.Fatalf("get %d: ok=%v err=%v len=%d", i, ok, err, len(v))
				}
			}
			// Sample delivery is asynchronous to the relay; give it a
			// moment to land.
			var st Stats
			deadline := time.Now().Add(2 * time.Second)
			for {
				st = proxy.Stats()
				if st.Samples > 0 || time.Now().After(deadline) {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if st.Samples == 0 {
				t.Error("no estimator samples on the netpoll path")
			}
			if mode.splice && spliceAvailable() && st.RelaySplices == 0 {
				t.Error("splice enabled and available, but no splice syscalls recorded")
			}
			if !mode.splice && st.RelaySplices != 0 {
				t.Errorf("copy mode recorded %d splice syscalls", st.RelaySplices)
			}
			if len(st.Netpoll) == 0 {
				t.Fatal("no netpoll shard stats while the event dataplane is on")
			}
			var wakeups uint64
			for _, sh := range st.Netpoll {
				wakeups += sh.Wakeups
			}
			if wakeups == 0 {
				t.Error("poller shards report zero wakeups after relaying traffic")
			}
			assertIdentity(t, st)
		})
	}
}

// TestProxyNetpollHalfClose pins CloseWrite propagation through the
// readiness state machine: a client that half-closes after its request must
// still receive the full response, then EOF.
func TestProxyNetpollHalfClose(t *testing.T) {
	_, baddr := startBackend(t)
	proxy, paddr := startProxyCfg(t, Config{
		Backends: []string{baddr},
		Policy:   control.NewRoundRobin(1),
		Netpoll:  true,
	})
	requireNetpoll(t, proxy)
	conn, err := net.DialTimeout("tcp", paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("set hk 0 0 2\r\nhi\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || strings.TrimSpace(resp) != "STORED" {
		t.Fatalf("response %q err=%v", resp, err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) && err == nil {
		t.Error("expected EOF after half-closed exchange")
	}
}

// TestProxyNetpollGoroutineBudget is the scheduler-diet acceptance check at
// unit scale: N idle proxied connections must cost O(shards) goroutines, not
// O(2N), and closing the proxy must drain the poller shards along with
// everything else (the leak check extends to poller shutdown).
func TestProxyNetpollGoroutineBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket scale test")
	}
	const nConns = 400
	baseGoroutines := runtime.NumGoroutine()

	// Accept-only sinks: no per-connection backend goroutines, so the
	// process count isolates the proxy's share.
	backends, stopBackends, err := testbed.StartAcceptBackends(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stopBackends()

	proxy, err := New(Config{
		Backends:  backends,
		Policy:    control.NewRoundRobin(len(backends)),
		Acceptors: 4,
		Splice:    true,
		Netpoll:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireNetpoll(t, proxy)
	if err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = proxy.Serve() }()
	defer proxy.Close()

	conns := make([]net.Conn, 0, nConns)
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for i := 0; i < nConns; i++ {
		c, err := net.DialTimeout("tcp", proxy.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conns = append(conns, c)
		if _, err := c.Write([]byte("ping\r\n")); err != nil {
			t.Fatalf("greeting %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().Active < nConns {
		time.Sleep(10 * time.Millisecond)
	}
	if a := proxy.Stats().Active; a != nConns {
		t.Fatalf("active = %d, want %d", a, nConns)
	}

	// Transient handle() goroutines exit right after handoff; give them a
	// moment, then the budget must hold: the goroutine path would sit at
	// base + 2N (two relay goroutines per connection).
	const budget = 64
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseGoroutines+budget {
		time.Sleep(20 * time.Millisecond)
	}
	goroutines := runtime.NumGoroutine()
	t.Logf("%d idle conns held by %d goroutines (base %d; goroutine path would be ~%d)",
		nConns, goroutines, baseGoroutines, baseGoroutines+2*nConns)
	if goroutines > baseGoroutines+budget {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine budget blown: %d for %d conns (base %d)\n%s",
			goroutines, nConns, baseGoroutines, buf[:runtime.Stack(buf, true)])
	}
	var reg int64
	st := proxy.Stats()
	for _, sh := range st.Netpoll {
		reg += sh.RegisteredFDs
	}
	if reg < 2*nConns {
		t.Errorf("registered fds = %d, want >= %d (both ends of every relay)", reg, 2*nConns)
	}

	// Poller-shutdown leak check: Close force-closes the fleet, finalizes
	// every parked relay, and must return the process to its baseline.
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseGoroutines+4 {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseGoroutines+4 {
		buf := make([]byte, 1<<16)
		t.Errorf("poller shutdown leaked goroutines: %d now vs %d at start\n%s",
			g, baseGoroutines, buf[:runtime.Stack(buf, true)])
	}
	st = proxy.Stats()
	if st.Active != 0 {
		t.Errorf("active = %d after Close", st.Active)
	}
	if st.Accepted != nConns {
		t.Errorf("accepted = %d, want %d", st.Accepted, nConns)
	}
	assertIdentity(t, st)
	if st.Samples != st.SamplesDelivered+st.SamplesDropped || st.SamplesDropped != 0 {
		t.Errorf("estimator sample loss through poller shutdown: samples %d, delivered %d, dropped %d",
			st.Samples, st.SamplesDelivered, st.SamplesDropped)
	}
}

// TestProxyNetpollEstimatorEquivalence is the measurement-preservation
// check the whole refactor hangs on, mirroring the splice-vs-copy test:
// one identical paced workload through the netpoll dataplane and through
// the goroutine dataplane must yield the same observed in-band latency
// relative to each run's own client-side ground truth — timestamping
// readiness events is the same measurement as timestamping blocking reads.
func TestProxyNetpollEstimatorEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("paced live-socket test")
	}
	const (
		serviceDelay = 8 * time.Millisecond
		exchanges    = 40
	)
	run := func(useNetpoll bool) (latMs, clientMs float64, st Stats) {
		addrs := make([]string, 2)
		for i := range addrs {
			echo := testbed.NewLiveEcho(serviceDelay)
			if err := echo.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			go func() { _ = echo.Serve() }()
			defer echo.Close()
			addrs[i] = echo.Addr().String()
		}
		la, err := control.NewLatencyAware(control.LatencyAwareConfig{
			Backends: addrs, Alpha: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		proxy, paddr := startProxyCfg(t, Config{
			Backends: addrs,
			Policy:   la,
			Splice:   true,
			Netpoll:  useNetpoll,
		})
		if useNetpoll {
			requireNetpoll(t, proxy)
		}
		rtts, err := testbed.LiveExchange(paddr, exchanges, 64)
		if err != nil {
			t.Fatal(err)
		}
		sorted := append([]time.Duration(nil), rtts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		clientMs = sorted[len(sorted)/2].Seconds() * 1e3
		time.Sleep(20 * time.Millisecond) // a couple of control ticks: merge samples
		snap := proxy.Snapshot()
		st = proxy.Stats()
		serving := -1
		for i, n := range st.PerBackend {
			if n > 0 {
				serving = i
			}
		}
		if serving < 0 || serving >= len(snap.LatenciesMs) {
			t.Fatalf("no serving backend: perBackend=%v latencies=%v", st.PerBackend, snap.LatenciesMs)
		}
		return snap.LatenciesMs[serving], clientMs, st
	}

	npMs, npClientMs, npStats := run(true)
	goMs, goClientMs, _ := run(false)
	t.Logf("in-band latency vs client ground truth: netpoll=%.2fms (client %.2fms), goroutine=%.2fms (client %.2fms), service delay %v",
		npMs, npClientMs, goMs, goClientMs, serviceDelay)
	if npStats.Samples == 0 {
		t.Fatal("netpoll run produced no estimator samples")
	}

	norm := func(name string, est, client float64) float64 {
		if client < serviceDelay.Seconds()*1e3*0.8 {
			t.Fatalf("%s: client median %.2fms below service delay — broken workload", name, client)
		}
		r := est / client
		if r < 0.5 || r > 2.0 {
			t.Errorf("%s: estimator %.2fms does not track client ground truth %.2fms (ratio %.2f)",
				name, est, client, r)
		}
		return r
	}
	nr := norm("netpoll", npMs, npClientMs)
	gr := norm("goroutine", goMs, goClientMs)
	if d := nr - gr; d < -0.5 || d > 0.5 {
		t.Errorf("dataplanes disagree about latency relative to ground truth: netpoll ratio %.2f, goroutine ratio %.2f", nr, gr)
	}
}

// TestProxyNetpollPooledConnReuse drives two sequential client sessions
// through the event dataplane and asserts the second rides the first one's
// recycled backend connection — the quiesce grace now lives on the timing
// wheel instead of a read deadline.
func TestProxyNetpollPooledConnReuse(t *testing.T) {
	_, baddr := startBackend(t)
	proxy, paddr := startProxyCfg(t, Config{
		Backends:    []string{baddr},
		Policy:      control.NewRoundRobin(1),
		Splice:      true,
		Netpoll:     true,
		PoolIdle:    2,
		PoolQuiesce: 5 * time.Millisecond,
	})
	requireNetpoll(t, proxy)

	exchange := func(key, val string) {
		cli, err := memcache.Dial(paddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		_ = cli.SetDeadline(time.Now().Add(5 * time.Second))
		if err := cli.Set(key, []byte(val)); err != nil {
			t.Fatal(err)
		}
		v, ok, err := cli.Get(key)
		if err != nil || !ok || string(v) != val {
			t.Fatalf("get %q: ok=%v err=%v", key, ok, err)
		}
	}

	exchange("a", "1")
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().PoolRecycled == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if proxy.Stats().PoolRecycled == 0 {
		t.Fatal("first session's backend conn never recycled")
	}
	exchange("b", "2")

	st := proxy.Stats()
	if st.PoolHits == 0 {
		t.Errorf("second session did not reuse the pooled conn: %+v", st)
	}
	assertIdentity(t, st)
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}
	st = proxy.Stats()
	if st.Samples != st.SamplesDelivered+st.SamplesDropped {
		t.Errorf("sample identity broken: %d != %d + %d",
			st.Samples, st.SamplesDelivered, st.SamplesDropped)
	}
}

// plantDeadPooledConn puts a real TCP connection into the pool for backend 0
// whose write side we have already shut down: the checkout probe sees a
// quiet, open socket (EAGAIN — healthy), but the first relay write fails
// with EPIPE. This is the netpoll revalidation trigger; the goroutine-path
// test uses a Write-failing wrapper instead, which the event dataplane
// would reject at handoff (no raw access).
func plantDeadPooledConn(t *testing.T, proxy *Proxy) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lis.Close() })
	c, err := net.DialTimeout("tcp", lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if !proxy.pool.Put(0, 0, c, time.Time{}) {
		t.Fatal("could not plant pooled conn")
	}
}

// TestProxyNetpollPooledDeadBackend is the revalidation table on the event
// dataplane: a pooled connection that fails its first write must be
// accounted exactly like a failed dial — one redial to the same backend,
// then the existing failover path — with the Accepted identity intact in
// every outcome. The redial is the relay's own connecting state, on the loop,
// with the first chunk parked in the relay until it settles.
func TestProxyNetpollPooledDeadBackend(t *testing.T) {
	cases := []struct {
		name          string
		backends      []string // "live" → memcached, "dead" → refusing addr
		wantErr       bool
		wantDialErrs  uint64
		wantFailovers uint64
		wantBackend   int // backend that must serve the rescued exchange (-1 none)
	}{
		{
			name:     "redial same backend succeeds",
			backends: []string{"live"},
			wantErr:  false, wantDialErrs: 0, wantFailovers: 0, wantBackend: 0,
		},
		{
			name:     "backend down, failover rescues",
			backends: []string{"dead", "live"},
			wantErr:  false, wantDialErrs: 0, wantFailovers: 1, wantBackend: 1,
		},
		{
			name:     "all backends down, terminal dial error",
			backends: []string{"dead", "dead"},
			wantErr:  true, wantDialErrs: 1, wantFailovers: 0, wantBackend: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addrs := make([]string, len(tc.backends))
			for i, kind := range tc.backends {
				if kind == "live" {
					_, addrs[i] = startBackend(t)
				} else {
					addrs[i] = deadAddr(t)
				}
			}
			proxy, paddr := startProxyCfg(t, Config{
				Backends: addrs,
				// RoundRobin picks backend 0 for the first connection.
				Policy:   control.NewRoundRobin(len(addrs)),
				Netpoll:  true,
				PoolIdle: 2,
			})
			requireNetpoll(t, proxy)
			plantDeadPooledConn(t, proxy)

			cli, err := memcache.Dial(paddr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			_ = cli.SetDeadline(time.Now().Add(5 * time.Second))
			setErr := cli.Set("k", []byte("v"))
			_ = cli.Close()
			if (setErr != nil) != tc.wantErr {
				t.Fatalf("set err = %v, wantErr = %v", setErr, tc.wantErr)
			}

			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) && proxy.Stats().Active > 0 {
				time.Sleep(2 * time.Millisecond)
			}
			st := proxy.Stats()
			if st.PoolFirstWriteFails != 1 {
				t.Errorf("poolFirstWriteFails = %d, want 1", st.PoolFirstWriteFails)
			}
			if st.DialErrors != tc.wantDialErrs {
				t.Errorf("dialErrors = %d, want %d", st.DialErrors, tc.wantDialErrs)
			}
			if st.Failovers != tc.wantFailovers {
				t.Errorf("failovers = %d, want %d", st.Failovers, tc.wantFailovers)
			}
			if tc.wantBackend >= 0 && st.PerBackend[tc.wantBackend] != 1 {
				t.Errorf("perBackend = %v, want conn on backend %d", st.PerBackend, tc.wantBackend)
			}
			assertIdentity(t, st)
		})
	}
}

// TestProxyNetpollIdleTimeout pins the timing-wheel deadline path: a
// backend that swallows the request and never answers must be cut off by
// IdleTimeout — the response direction's wheel timer fires, the relay
// reports detector evidence, and both directions tear down.
func TestProxyNetpollIdleTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket timing test")
	}
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
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	proxy, paddr := startProxyCfg(t, Config{
		Backends:    []string{lis.Addr().String()},
		Policy:      control.NewRoundRobin(1),
		Netpoll:     true,
		IdleTimeout: 100 * time.Millisecond,
	})
	requireNetpoll(t, proxy)

	conn, err := net.DialTimeout("tcp", paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello?\r\n")); err != nil {
		t.Fatal(err)
	}
	// The proxy must cut us off shortly after the idle bound; a blocking
	// read with a generous deadline must end in EOF/reset, not expire.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection survived the idle timeout: err=%v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().Active > 0 {
		time.Sleep(5 * time.Millisecond)
	}
	st := proxy.Stats()
	if st.Active != 0 {
		t.Errorf("active = %d after idle teardown", st.Active)
	}
	var fires uint64
	for _, sh := range st.Netpoll {
		fires += sh.TimerFires
	}
	if fires == 0 {
		t.Error("no wheel timer fires recorded for an idle-timeout teardown")
	}
	assertIdentity(t, st)
}

// TestProxyNetpollConcurrentClients is the race-mode stress: many clients
// hammering the full event-dataplane configuration — acceptor shards,
// splice, pooling — with the accounting identities checked after drain.
func TestProxyNetpollConcurrentClients(t *testing.T) {
	const nBackends = 2
	backends := make([]string, nBackends)
	for i := range backends {
		_, backends[i] = startBackend(t)
	}
	proxy, paddr := startProxyCfg(t, Config{
		Backends:  backends,
		Policy:    control.NewRoundRobin(nBackends),
		Acceptors: 4,
		Splice:    true,
		Netpoll:   true,
		PoolIdle:  4,
	})
	requireNetpoll(t, proxy)

	const clients = 16
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			cli, err := memcache.Dial(paddr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			_ = cli.SetDeadline(time.Now().Add(5 * time.Second))
			for s := 0; s < 5; s++ {
				if err := cli.Set("mk", []byte("mv")); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := proxy.Stats()
	if st.Accepted != clients {
		t.Errorf("accepted = %d, want %d", st.Accepted, clients)
	}
	assertIdentity(t, st)
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}
	st = proxy.Stats()
	if st.Samples != st.SamplesDelivered+st.SamplesDropped || st.SamplesDropped != 0 {
		t.Errorf("sample identity: %d != %d + %d",
			st.Samples, st.SamplesDelivered, st.SamplesDropped)
	}
}
