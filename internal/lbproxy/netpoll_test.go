//go:build linux

package lbproxy

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/memcache"
	"inbandlb/internal/testbed"
)

// The netpoll suite exercises the event loop end to end, through real
// sockets and real protocol traffic.

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
			if !mode.splice {
				withoutSplice(t)
			}
			proxy, paddr := startProxyCfg(t, Config{
				Backends: []string{baddr},
				Policy:   control.NewRoundRobin(1),
				// Smaller than the 4 KiB values below: only a read that
				// fills the buffer sends the rest of a burst down the splice
				// path (or, in copy mode, back for another read).
				BufferSize: 1 << 10,
			})

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

// registeredFDs sums the fds in every shard's epoll set.
func registeredFDs(p *Proxy) (n int64) {
	for _, sh := range p.Stats().Netpoll {
		n += sh.RegisteredFDs
	}
	return n
}

// settled waits until no relay is live and the shards' epoll sets hold
// nothing but their listeners, and fails the test if they do not.
func settled(t *testing.T, p *Proxy) {
	t.Helper()
	base := int64(len(p.np)) // one listening socket per shard
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && (p.Stats().Active != 0 || registeredFDs(p) != base) {
		time.Sleep(2 * time.Millisecond)
	}
	if a := p.Stats().Active; a != 0 {
		t.Errorf("active = %d, want 0", a)
	}
	if n := registeredFDs(p); n != base {
		t.Errorf("registered fds = %d, want %d: a finished relay left fds in the epoll set", n, base)
	}
}

// TestProxyNetpollHalfClose walks one relay through half-closed to closed:
// a client that half-closes after its request must still receive the full
// response, then EOF once the backend closes its side, and the relay must then
// be finalized — both fds out of the epoll set, the identity intact.
func TestProxyNetpollHalfClose(t *testing.T) {
	_, baddr := startBackend(t)
	proxy, paddr := startProxyCfg(t, Config{
		Backends: []string{baddr},
		Policy:   control.NewRoundRobin(1),
	})
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
	rd := bufio.NewReader(conn)
	resp, err := rd.ReadString('\n')
	if err != nil || strings.TrimSpace(resp) != "STORED" {
		t.Fatalf("response %q err=%v", resp, err)
	}
	if rest, err := io.ReadAll(rd); err != nil || len(rest) != 0 {
		t.Errorf("after the response: %q err=%v, want EOF", rest, err)
	}
	settled(t, proxy)
	st := proxy.Stats()
	if st.Accepted != 1 || st.PerBackend[0] != 1 {
		t.Errorf("accepted = %d, perBackend = %v; want the one connection on backend 0", st.Accepted, st.PerBackend)
	}
	assertIdentity(t, st)
}

// TestProxyNetpollPooledConnReuse follows one backend socket round the pool,
// session after session, across two acceptor shards: every session after the
// first rides the socket the one before it recycled (the backend accepts
// once), and each recycle takes the loop's descriptors out of the epoll set —
// the pool holds the socket, not the loop.
func TestProxyNetpollPooledConnReuse(t *testing.T) {
	var accepts atomic.Int32
	baddr := serveOnce(t, func(c net.Conn) {
		accepts.Add(1)
		_, _ = io.Copy(c, c)
	})
	proxy, paddr := startProxyCfg(t, Config{
		Backends:    []string{baddr},
		Policy:      control.NewRoundRobin(1),
		Acceptors:   2,
		PoolIdle:    2,
		PoolQuiesce: 5 * time.Millisecond,
	})
	const sessions = 5
	for i := 1; i <= sessions; i++ {
		c, err := net.DialTimeout("tcp", paddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		pingPong(t, c, 3)
		_ = c.Close()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) && proxy.Stats().PoolRecycled < uint64(i) {
			time.Sleep(2 * time.Millisecond)
		}
		if n := proxy.Stats().PoolRecycled; n != uint64(i) {
			t.Fatalf("session %d: recycled = %d, want %d", i, n, i)
		}
		settled(t, proxy)
	}
	st := proxy.Stats()
	if st.PoolHits != sessions-1 {
		t.Errorf("pool hits = %d, want %d: a session did not ride the recycled socket", st.PoolHits, sessions-1)
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("backend accepted %d connections for %d sessions, want 1", n, sessions)
	}
	assertIdentity(t, st)
}

// TestProxyNetpollPooledDeadBackend is the revalidation table with a first
// request four times the read buffer: the chunk that finds the pooled socket
// dead is a full read, so the rest of the burst is still queued in the client
// socket while the relay connects — and must follow the held chunk, whole and
// in order, to whichever backend takes it.
func TestProxyNetpollPooledDeadBackend(t *testing.T) {
	pooledDeadBackendTable(t, 1<<10, strings.Repeat("b", 4<<10))
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
	})
	if err != nil {
		t.Fatal(err)
	}
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

	// The budget must hold: two goroutines per connection would sit at
	// base + 2N.
	const budget = 64
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseGoroutines+budget {
		time.Sleep(20 * time.Millisecond)
	}
	goroutines := runtime.NumGoroutine()
	t.Logf("%d idle conns held by %d goroutines (base %d; two per connection would be ~%d)",
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

// estimatorServiceDelay paces the estimator-vs-ground-truth runs: well clear
// of loopback jitter and the ladder floor.
const estimatorServiceDelay = 8 * time.Millisecond

// estimateVsClient runs one paced exchange of payload-byte messages through a
// latency-aware proxy with a 1 KiB read buffer, and returns the in-band
// latency estimate for the serving backend next to the client's own median
// round trip. withoutSplice before the call makes it a copy-path run.
func estimateVsClient(t *testing.T, payload int) (latMs, clientMs float64, st Stats) {
	t.Helper()
	// Two identical backends: latency-aware requires >= 2, and one client
	// connection lands on exactly one of them.
	addrs := make([]string, 2)
	for i := range addrs {
		echo := testbed.NewLiveEcho(estimatorServiceDelay)
		if err := echo.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go func() { _ = echo.Serve() }()
		t.Cleanup(func() { _ = echo.Close() })
		addrs[i] = echo.Addr().String()
	}
	la, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends: addrs, Alpha: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy, paddr := startProxyCfg(t, Config{Backends: addrs, Policy: la, BufferSize: 1 << 10})
	rtts, err := testbed.LiveExchange(paddr, 40, payload)
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
	if st.Samples == 0 {
		t.Fatal("the run produced no estimator samples")
	}
	return snap.LatenciesMs[serving], clientMs, st
}

// trackRatio is the load-proof assertion: a run's estimator view must track
// that run's OWN client-observed median RTT (machine load inflates both
// together — comparing two runs' absolute numbers does not survive a busy
// single-core host). The inter-arrival the proxy times is one full client
// round trip, so estimator ≈ client median. It returns the ratio.
func trackRatio(t *testing.T, name string, est, client float64) float64 {
	t.Helper()
	if client < estimatorServiceDelay.Seconds()*1e3*0.8 {
		t.Fatalf("%s: client median %.2fms below service delay — broken workload", name, client)
	}
	r := est / client
	if r < 0.5 || r > 2.0 {
		t.Errorf("%s: estimator %.2fms does not track client ground truth %.2fms (ratio %.2f)",
			name, est, client, r)
	}
	return r
}

// TestProxyNetpollEstimatorEquivalence is the measurement-preservation check
// the event loop hangs on: a paced workload through the proxy must yield an
// in-band latency estimate that tracks the client's own median round trip,
// for small messages (read into the buffer) and for bursts that overflow it
// (the rest spliced) alike — timestamping a splice is the same measurement as
// timestamping a read.
func TestProxyNetpollEstimatorEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("paced live-socket test")
	}
	copiedMs, copiedClientMs, copiedStats := estimateVsClient(t, 64)
	splicedMs, splicedClientMs, splicedStats := estimateVsClient(t, 4<<10)
	t.Logf("in-band latency vs client ground truth: read=%.2fms (client %.2fms), spliced burst=%.2fms (client %.2fms), service delay %v",
		copiedMs, copiedClientMs, splicedMs, splicedClientMs, estimatorServiceDelay)
	t.Logf("syscalls: read run reads=%d writes=%d splices=%d; burst run reads=%d writes=%d splices=%d",
		copiedStats.RelayReads, copiedStats.RelayWrites, copiedStats.RelaySplices,
		splicedStats.RelayReads, splicedStats.RelayWrites, splicedStats.RelaySplices)
	if copiedStats.RelaySplices != 0 {
		t.Error("64-byte exchanges were spliced: they should fit the read buffer")
	}
	if spliceAvailable() && splicedStats.RelaySplices == 0 {
		t.Error("bursts of 4x the read buffer were never spliced")
	}
	cr := trackRatio(t, "read", copiedMs, copiedClientMs)
	sr := trackRatio(t, "spliced burst", splicedMs, splicedClientMs)
	if d := sr - cr; d < -0.5 || d > 0.5 {
		t.Errorf("reads and splices disagree about latency relative to ground truth: read ratio %.2f, splice ratio %.2f", cr, sr)
	}
}

// TestProxySpliceFirstByteLatencyMatchesFallback is the estimator check for
// the copy fallback: one identical paced workload of bursts that overflow the
// read buffer, spliced where the kernel allows and copied with splice latched
// off, must yield the same observed in-band latency relative to each run's
// own ground truth — the first byte of a burst is timestamped the same way
// whichever path carries the rest.
func TestProxySpliceFirstByteLatencyMatchesFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("paced live-socket test")
	}
	splicedMs, splicedClientMs, splicedStats := estimateVsClient(t, 4<<10)
	withoutSplice(t)
	copiedMs, copiedClientMs, copiedStats := estimateVsClient(t, 4<<10)
	t.Logf("in-band latency vs client ground truth: splice=%.2fms (client %.2fms), copy=%.2fms (client %.2fms), service delay %v",
		splicedMs, splicedClientMs, copiedMs, copiedClientMs, estimatorServiceDelay)
	t.Logf("splice run syscalls: reads=%d writes=%d splices=%d; copy run: reads=%d writes=%d splices=%d",
		splicedStats.RelayReads, splicedStats.RelayWrites, splicedStats.RelaySplices,
		copiedStats.RelayReads, copiedStats.RelayWrites, copiedStats.RelaySplices)
	if copiedStats.RelaySplices != 0 {
		t.Error("copy run recorded splice syscalls")
	}
	sr := trackRatio(t, "splice", splicedMs, splicedClientMs)
	cr := trackRatio(t, "copy", copiedMs, copiedClientMs)
	if d := sr - cr; d < -0.5 || d > 0.5 {
		t.Errorf("relay paths disagree about latency relative to ground truth: splice ratio %.2f, copy ratio %.2f", sr, cr)
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
		IdleTimeout: 100 * time.Millisecond,
	})

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
		PoolIdle:  4,
	})

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
