//go:build linux

package lbproxy

import (
	"bytes"
	"io"
	"net"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/memcache"
	"inbandlb/internal/netpoll/rawsys"
	"inbandlb/internal/packet"
	"inbandlb/internal/testbed"
)

// The lifecycle suite checks the connection lifecycle (the state table in
// netpoll_linux.go) one connection at a time, as oracles rather than stress:
// every test drives a single transition of accept → connecting/unproven →
// established → half-closed/quiescing → closed and then requires the
// accounting identity, the counters that name the transition, and the
// process's fd table back at its baseline.

// fdSet is what the process's descriptors point at ("socket:[inode]", ...).
type fdSet map[string]bool

// openFDs snapshots the fd table.
func openFDs(t *testing.T) fdSet {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	set := fdSet{}
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil { // ReadDir's own fd is gone by now
			set[target] = true
		}
	}
	return set
}

// waitFDs waits until nothing is open that was not open at base — the loop
// closes what a turn retired when the turn ends. Descriptors that went away
// since (an earlier test's connection the GC finalized) are not its concern.
func waitFDs(t *testing.T, base fdSet) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var leaked []string
		for target := range openFDs(t) {
			if !base[target] {
				leaked = append(leaked, target)
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("descriptors opened since the baseline and still open: %v", leaked)
			return
		}
	}
}

// waitSettled waits until no connection is connecting or relaying.
func waitSettled(t *testing.T, p *Proxy, accepted uint64) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.Stats()
		var routed uint64
		for _, n := range st.PerBackend {
			routed += n
		}
		done := st.Accepted == accepted && st.Active == 0 && st.ConnectsInflight == 0 &&
			st.Accepted == routed+st.DialErrors+st.Dropped
		if done || time.Now().After(deadline) {
			if !done {
				t.Errorf("proxy did not settle: %+v", st)
			}
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// plainEcho is echoBackend without io.Copy: between two TCP sockets that
// splices through pipes package net keeps pooled, which would show in the fd
// table these tests hold to a baseline.
func plainEcho(t *testing.T) string {
	return serveOnce(t, func(c net.Conn) {
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			if _, err := c.Write(buf[:n]); err != nil {
				return
			}
		}
	})
}

// loopProxy starts a proxy, round robin unless cfg names a policy.
func loopProxy(t *testing.T, cfg Config) (*Proxy, string) {
	t.Helper()
	if cfg.Policy == nil {
		cfg.Policy = control.NewRoundRobin(len(cfg.Backends))
	}
	return startProxyCfg(t, cfg)
}

// waitConnecting waits for the one connection's backend connect to show in
// the in-flight gauge.
func waitConnecting(t *testing.T, p *Proxy) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); p.Stats().ConnectsInflight != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("connect never showed as in flight: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// expectClosed reads until the proxy ends the connection.
func expectClosed(t *testing.T, c net.Conn) {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := c.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
		t.Fatalf("connection still open: read %d bytes, err=%v", n, err)
	}
}

// TestLoopAdmitDialOutcomes: a refused connect fails over, two refused
// connects are a DialError, an ejected pool is a Drop — each lands in exactly
// one bucket of Accepted == ΣPerBackend + DialErrors + Dropped and leaks no
// fd.
func TestLoopAdmitDialOutcomes(t *testing.T) {
	live := plainEcho(t)
	cases := []struct {
		name                         string
		backends                     []string
		eject                        bool
		serves                       bool
		failovers, dialErrs, dropped uint64
		perBackend                   []uint64
	}{
		{name: "connected", backends: []string{live, deadAddr(t)}, serves: true, perBackend: []uint64{1, 0}},
		{name: "refused, failover rescues", backends: []string{deadAddr(t), live}, serves: true, failovers: 1, perBackend: []uint64{0, 1}},
		{name: "both refuse", backends: []string{deadAddr(t), deadAddr(t)}, dialErrs: 1, perBackend: []uint64{0, 0}},
		{name: "whole pool ejected", backends: []string{live, live}, eject: true, dropped: 1, perBackend: []uint64{0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, paddr := loopProxy(t, Config{Backends: tc.backends})
			if tc.eject {
				p.ctrl.SetEjected(0, true)
				p.ctrl.SetEjected(1, true)
			}
			base := openFDs(t)
			c, err := net.DialTimeout("tcp", paddr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			_ = c.SetDeadline(time.Now().Add(5 * time.Second))
			if tc.serves {
				pingPong(t, c, 2)
			} else {
				expectClosed(t, c)
			}
			_ = c.Close()
			st := waitSettled(t, p, 1)
			if st.Failovers != tc.failovers || st.DialErrors != tc.dialErrs || st.Dropped != tc.dropped {
				t.Errorf("failovers=%d dialErrors=%d dropped=%d, want %d %d %d",
					st.Failovers, st.DialErrors, st.Dropped, tc.failovers, tc.dialErrs, tc.dropped)
			}
			for i, want := range tc.perBackend {
				if st.PerBackend[i] != want {
					t.Errorf("perBackend = %v, want %v", st.PerBackend, tc.perBackend)
					break
				}
			}
			waitFDs(t, base)
		})
	}
}

// stalledBackend is a listening socket whose accept queue is full, so the
// kernel drops further SYNs: a connect to it neither completes nor fails.
// release starts accepting; the connecting side's next SYN retransmission
// (about a second after the first) then completes.
type stalledBackend struct {
	addr    string
	lis     net.Listener
	fillers []net.Conn
}

func newStalledBackend(t *testing.T) *stalledBackend {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 1); err != nil {
		t.Fatal(err)
	}
	f := os.NewFile(uintptr(fd), "stalled-backend")
	lis, err := net.FileListener(f)
	_ = f.Close()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lis.Close() })
	sb := &stalledBackend{addr: lis.Addr().String(), lis: lis}
	// Fill the accept queue: dials succeed until it is full, then hang.
	for i := 0; ; i++ {
		c, err := net.DialTimeout("tcp", sb.addr, 150*time.Millisecond)
		if err != nil {
			return sb
		}
		sb.fillers = append(sb.fillers, c)
		t.Cleanup(func() { _ = c.Close() })
		if i == 16 {
			t.Skip("this kernel never fills a listen(1) accept queue")
		}
	}
}

// release closes the connections that filled the queue and accepts from now
// on, running fn on every connection — the fillers first (fn sees their EOF
// at once) and then whatever was stalled.
func (sb *stalledBackend) release(fn func(net.Conn)) {
	for _, c := range sb.fillers {
		_ = c.Close()
	}
	go func() {
		for {
			c, err := sb.lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				fn(c)
			}()
		}
	}()
}

// TestLoopConnectTimeout: a connect that never completes is ended by the
// wheel at DialTimeout, reported to the passive detector like any failed
// dial (one strike ejects here), counted, and failed over — leaking no fd.
func TestLoopConnectTimeout(t *testing.T) {
	sb := newStalledBackend(t)
	const dialTimeout = 150 * time.Millisecond
	p, paddr := loopProxy(t, Config{
		Backends: []string{sb.addr, plainEcho(t)}, DialTimeout: dialTimeout,
		Detector: control.DetectorConfig{Enabled: true, FailureThreshold: 1},
	})
	base := openFDs(t)
	start := time.Now()
	c, err := net.DialTimeout("tcp", paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitConnecting(t, p)
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	pingPong(t, c, 1) // served by the failover target once the wheel gives up on the first
	if el := time.Since(start); el < dialTimeout || el > dialTimeout+2*time.Second {
		t.Errorf("first exchange took %v, want DialTimeout (%v) and a little", el, dialTimeout)
	}
	_ = c.Close()
	st := waitSettled(t, p, 1)
	if st.ConnectTimeouts != 1 || st.Failovers != 1 || st.DialErrors != 0 || st.PerBackend[0] != 0 || st.PerBackend[1] != 1 {
		t.Errorf("connectTimeouts=%d failovers=%d dialErrors=%d perBackend=%v, want 1, 1, 0, [0 1]",
			st.ConnectTimeouts, st.Failovers, st.DialErrors, st.PerBackend)
	}
	if n := p.ctrl.Health(0).Ejections; n != 1 {
		t.Errorf("detector ejections = %d, want 1: the timed-out connect was not reported", n)
	}
	waitFDs(t, base)
}

// TestLoopConnectAfterIdle: DialTimeout counts from the connect, however long
// the loop sat parked before the accept — a connection that arrives after a
// pause longer than DialTimeout must not be timed out on the spot.
func TestLoopConnectAfterIdle(t *testing.T) {
	const dialTimeout = 50 * time.Millisecond
	p, paddr := loopProxy(t, Config{Backends: []string{plainEcho(t)}, DialTimeout: dialTimeout})
	for i := 0; i < 3; i++ {
		time.Sleep(3 * dialTimeout)
		c, err := net.DialTimeout("tcp", paddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		pingPong(t, c, 1)
		_ = c.Close()
	}
	if st := waitSettled(t, p, 3); st.ConnectTimeouts != 0 || st.DialErrors != 0 || st.PerBackend[0] != 3 {
		t.Errorf("connectTimeouts=%d dialErrors=%d perBackend=%v, want 0, 0, [3]",
			st.ConnectTimeouts, st.DialErrors, st.PerBackend)
	}
}

// TestLoopRequestAndFINBeforeConnect: the client's request and FIN both
// arrive while the backend connect is still in flight. The client fd joins
// the epoll set only once the backend is connected, and that registration
// must deliver the bytes and the half-close.
func TestLoopRequestAndFINBeforeConnect(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a SYN retransmission")
	}
	sb := newStalledBackend(t)
	p, paddr := loopProxy(t, Config{Backends: []string{sb.addr}, DialTimeout: 10 * time.Second})
	base := openFDs(t)
	c, err := net.DialTimeout("tcp", paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := []byte("request, then straight away a FIN\r\n")
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	waitConnecting(t, p)
	got := make(chan []byte, 1)
	sb.release(func(bc net.Conn) {
		b, _ := io.ReadAll(bc) // returns at the forwarded FIN
		if len(b) > 0 {        // the fillers send nothing
			got <- b
			_, _ = bc.Write([]byte("ok"))
		}
	})
	select {
	case b := <-got:
		if !bytes.Equal(b, req) {
			t.Errorf("backend read %q, want %q", b, req)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("backend never saw the request and EOF")
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if reply, err := io.ReadAll(c); err != nil || string(reply) != "ok" {
		t.Errorf("reply %q err=%v, want ok then EOF", reply, err)
	}
	_ = c.Close()
	if st := waitSettled(t, p, 1); st.PerBackend[0] != 1 {
		t.Errorf("perBackend = %v, want [1]", st.PerBackend)
	}
	waitFDs(t, base)
}

// TestLoopClientResetWhileConnecting: the client resets during the backend
// connect. Nothing watches the client fd then; the connect completes, the
// connection is counted, and the client fd's first event tears both sockets
// down — nothing is lost from the identity, and no fd stays behind.
func TestLoopClientResetWhileConnecting(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a SYN retransmission")
	}
	sb := newStalledBackend(t)
	p, paddr := loopProxy(t, Config{Backends: []string{sb.addr}, DialTimeout: 10 * time.Second})
	base := openFDs(t)
	c, err := net.DialTimeout("tcp", paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	waitConnecting(t, p)
	_ = c.(*net.TCPConn).SetLinger(0)
	_ = c.Close() // RST
	closed := make(chan struct{}, 8)
	sb.release(func(bc net.Conn) {
		_, _ = io.Copy(io.Discard, bc)
		closed <- struct{}{}
	})
	for range sb.fillers {
		<-closed
	}
	st := waitSettled(t, p, 1)
	if st.PerBackend[0] != 1 || st.DialErrors != 0 {
		t.Errorf("perBackend=%v dialErrors=%d, want [1] and 0", st.PerBackend, st.DialErrors)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Error("backend connection was not closed after the client reset")
	}
	waitFDs(t, base)
}

// TestLoopAcceptBurstGoroutinesFlat: admitting a connection creates no
// goroutine at all — not a short-lived one either — so the count stays where
// it was through a 1 000-connection burst. That holds with the dial pool on
// and for a backend named by host name too: both are states of the same
// machine on the loop.
func TestLoopAcceptBurstGoroutinesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket scale test")
	}
	const nConns = 1000
	if testbed.MaxProxiedConns() < nConns {
		t.Skip("fd limit too low for the burst")
	}
	for _, tc := range []struct {
		name     string
		poolIdle int
		hostname bool
	}{{"default", 0, false}, {"pool-idle", 4, false}, {"hostname", 0, true}} {
		t.Run(tc.name, func(t *testing.T) {
			backends, stopBackends, err := testbed.StartAcceptBackends(2)
			if err != nil {
				t.Fatal(err)
			}
			defer stopBackends()
			if tc.hostname {
				for i, b := range backends {
					backends[i] = strings.Replace(b, "127.0.0.1", "localhost", 1)
				}
			}
			p, paddr := loopProxy(t, Config{Backends: backends, Acceptors: 2, PoolIdle: tc.poolIdle})

			conns := make([]net.Conn, 0, nConns)
			defer func() {
				for _, c := range conns {
					_ = c.Close()
				}
			}()
			var base, peak int
			for i := 0; i < nConns; i++ {
				if i == 1 {
					// The first connection is relaying: Serve and the
					// background loops it starts are all up. Everything after
					// this is burst.
					for deadline := time.Now().Add(5 * time.Second); p.Stats().Active < 1 && time.Now().Before(deadline); {
						time.Sleep(time.Millisecond)
					}
					base = runtime.NumGoroutine()
					peak = base
				}
				c, err := net.Dial("tcp", paddr) // a dial with a timeout runs a watcher goroutine of its own
				if err != nil {
					t.Fatalf("dial %d: %v", i, err)
				}
				conns = append(conns, c)
				peak = max(peak, runtime.NumGoroutine())
			}
			for deadline := time.Now().Add(15 * time.Second); p.Stats().Active < nConns && time.Now().Before(deadline); {
				peak = max(peak, runtime.NumGoroutine())
				time.Sleep(time.Millisecond)
			}
			if a := p.Stats().Active; a != nConns {
				t.Fatalf("active = %d, want %d", a, nConns)
			}
			if peak != base {
				t.Errorf("goroutines peaked at %d during the burst, %d before it: want no goroutine per connection", peak, base)
			}
		})
	}
}

// TestLoopResolvesBackends: a backend named by host name is resolved once, in
// New, and connected to on the loop like an IP literal; an address that does
// not resolve is New's error, not a dial error per connection.
func TestLoopResolvesBackends(t *testing.T) {
	_, port, _ := net.SplitHostPort(plainEcho(t))
	p, paddr := loopProxy(t, Config{Backends: []string{"localhost:" + port}})
	c, err := net.DialTimeout("tcp", paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	pingPong(t, c, 1)
	_ = c.Close()
	if st := waitSettled(t, p, 1); st.PerBackend[0] != 1 {
		t.Errorf("perBackend = %v, want [1]", st.PerBackend)
	}
	for _, bad := range []string{"127.0.0.1", "[fe80::1%no-such-interface]:" + port} {
		if _, err := New(Config{Backends: []string{bad}, Policy: control.NewRoundRobin(1)}); err == nil {
			t.Errorf("New accepted backend %q", bad)
		}
	}
}

// failAccepts makes the shard's next n accept4 calls fail with errno. Call it
// before Serve: once the loop runs, the seam is the loop's.
func failAccepts(s *npShard, errno syscall.Errno, n int) {
	real := s.accept4
	s.accept4 = func(lfd int) (int, netip.AddrPort, error) {
		if n > 0 {
			n--
			return -1, netip.AddrPort{}, errno
		}
		return real(lfd)
	}
}

// TestLoopAcceptorSurvivesAcceptErrors: EMFILE costs the acceptor a counted
// back-off, not its life — and the backoff has to come from the wheel, since
// the connection EMFILE left in the backlog raises no new edge. ECONNABORTED
// is no failure of the proxy's (a client reset before accept4): it is
// retried at once, uncounted, and the next connection is admitted in the
// same turn.
func TestLoopAcceptorSurvivesAcceptErrors(t *testing.T) {
	serving := func(t *testing.T, errno syscall.Errno, n int) *Proxy {
		p, err := New(Config{Backends: []string{echoBackend(t)}, Policy: control.NewRoundRobin(1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		failAccepts(p.np[0], errno, n)
		go func() { _ = p.Serve() }()
		t.Cleanup(func() { _ = p.Close() })
		return p
	}
	connect := func(t *testing.T, p *Proxy) {
		c, err := net.DialTimeout("tcp", p.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		pingPong(t, c, 1)
	}
	t.Run("EMFILE", func(t *testing.T) {
		p := serving(t, syscall.EMFILE, 3)
		start := time.Now()
		connect(t, p)
		if el := time.Since(start); el < 35*time.Millisecond {
			t.Errorf("served after %v: three failures should have backed off 5+10+20 ms", el)
		}
		if st := p.Stats(); st.AcceptErrors != 3 || st.Accepted != 1 {
			t.Errorf("acceptErrors = %d, accepted = %d; want 3 and 1", st.AcceptErrors, st.Accepted)
		}
	})
	t.Run("ECONNABORTED", func(t *testing.T) {
		p := serving(t, syscall.ECONNABORTED, 1)
		connect(t, p)
		if st := p.Stats(); st.AcceptErrors != 0 || st.Accepted != 1 {
			t.Errorf("acceptErrors = %d, accepted = %d; want 0 and 1", st.AcceptErrors, st.Accepted)
		}
		s, armed := p.np[0], make(chan bool)
		s.pol.Post(func() { armed <- s.retry != nil })
		if <-armed {
			t.Error("ECONNABORTED armed the accept-retry timer: the shard backed off")
		}
	})
}

// TestLoopAcceptFloodYieldsToRelays: an acceptor that spends its whole budget
// and reposts itself turn after turn — a backlog that never runs dry — takes
// one run per turn, so a relay on the same shard still gets its events in
// between. (EINTR stands in for the flood: it costs budget like a connection
// does and leaves nothing to clean up.)
func TestLoopAcceptFloodYieldsToRelays(t *testing.T) {
	p, paddr := loopProxy(t, Config{Backends: []string{plainEcho(t)}})
	c, err := net.DialTimeout("tcp", paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	pingPong(t, c, 1) // established

	s := p.np[0]
	real := s.accept4
	var calls atomic.Uint64
	s.pol.Post(func() {
		s.accept4 = func(int) (int, netip.AddrPort, error) {
			calls.Add(1)
			return -1, netip.AddrPort{}, syscall.EINTR
		}
		s.accept()
	})
	pingPong(t, c, 50)
	if n := calls.Load(); n < 2*npAcceptBudget {
		t.Fatalf("the acceptor made %d calls: it was not flooding while the relay ran", n)
	}
	before := calls.Load()
	s.pol.Post(func() { s.accept4 = real })
	c2, err := net.DialTimeout("tcp", paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	_ = c2.SetDeadline(time.Now().Add(5 * time.Second))
	pingPong(t, c2, 1) // the reposted acceptor reaches the real backlog
	if calls.Load() == before {
		t.Error("the acceptor was not still reposting when the flood ended")
	}
}

// TestLoopPooledLifecycle walks a backend socket through the dial pool's two
// edges — recycled after a quiet PoolQuiesce, checked out
// unproven for the next client — and requires that the loop lets go of it in
// between: out of the epoll set while the pool holds it, no descriptor left
// over once the proxy is closed.
func TestLoopPooledLifecycle(t *testing.T) {
	backend := plainEcho(t)
	base := openFDs(t)
	p, err := New(Config{Backends: []string{backend}, Policy: control.NewRoundRobin(1),
		PoolIdle: 2, PoolQuiesce: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve() }()
	session := func(exchanges int) {
		t.Helper()
		c, err := net.DialTimeout("tcp", p.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		pingPong(t, c, exchanges)
		_ = c.(*net.TCPConn).CloseWrite()
		expectClosed(t, c) // the held-back FIN: the proxy ends the session after the grace
		_ = c.Close()
	}
	waitRecycled := func(want uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			st := p.Stats()
			if st.PoolRecycled == want && st.Active == 0 {
				if n := st.Netpoll[0].RegisteredFDs; n != 1 {
					t.Fatalf("%d fds registered with every relay closed, want the listener's alone: a pooled socket is still in the epoll set", n)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("PoolRecycled never reached %d: %+v", want, st)
			}
		}
	}
	session(3) // dialed fresh, recycled
	waitRecycled(1)
	session(3) // the pooled socket, validated by its first write, recycled again
	waitRecycled(2)
	session(0) // checked out and never written to: still a relayed connection
	waitRecycled(3)
	st := waitSettled(t, p, 3)
	if st.PoolHits != 2 || st.PerBackend[0] != 3 || st.DialErrors != 0 || st.PoolFirstWriteFails != 0 {
		t.Errorf("hits=%d perBackend=%v dialErrors=%d firstWriteFails=%d, want 2, [3], 0, 0",
			st.PoolHits, st.PerBackend, st.DialErrors, st.PoolFirstWriteFails)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	waitFDs(t, base)
}

// TestLoopPoolAgeSweep: a pooled backend socket older than PoolMaxAge is
// closed by the shard's wheel sweep with no further traffic, not left for the
// next checkout to find.
func TestLoopPoolAgeSweep(t *testing.T) {
	closed := make(chan struct{}, 1)
	backend := serveOnce(t, func(c net.Conn) {
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(buf)
			if err != nil {
				closed <- struct{}{}
				return
			}
			if _, err := c.Write(buf[:n]); err != nil {
				return
			}
		}
	})
	p, _ := loopProxy(t, Config{Backends: []string{backend},
		PoolIdle: 2, PoolQuiesce: 5 * time.Millisecond, PoolMaxAge: 50 * time.Millisecond})
	c, err := net.DialTimeout("tcp", p.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	pingPong(t, c, 1)
	_ = c.(*net.TCPConn).CloseWrite()
	expectClosed(t, c)
	_ = c.Close()
	for deadline := time.Now().Add(5 * time.Second); p.Stats().PoolRecycled != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("backend socket never recycled: %+v", p.Stats())
		}
	}
	select {
	case <-closed:
	case <-time.After(3 * poolSweepPeriod):
		t.Fatalf("pooled socket still open %v after PoolMaxAge: no sweep closed it", 3*poolSweepPeriod)
	}
	if n := p.pool.Idle(0); n != 0 {
		t.Errorf("%d idle pooled sockets after the sweep, want 0", n)
	}
	if st := p.Stats(); st.PoolHits != 0 || st.Accepted != 1 {
		t.Errorf("hits=%d accepted=%d: the socket must have gone without a checkout", st.PoolHits, st.Accepted)
	}
}

// TestLoopCloseRetiresListener: Close takes the listener out of the loop's
// callback table before its fd is closed, and a connection that arrives
// afterwards is refused rather than admitted by a shard that is shutting
// down.
func TestLoopCloseRetiresListener(t *testing.T) {
	backend := plainEcho(t)
	base := openFDs(t)
	p, err := New(Config{Backends: []string{backend}, Policy: control.NewRoundRobin(1), Acceptors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve() }()
	c, err := net.DialTimeout("tcp", p.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	pingPong(t, c, 1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, c)
	_ = c.Close()
	if c2, err := net.DialTimeout("tcp", p.Addr().String(), time.Second); err == nil {
		_ = c2.Close()
		t.Error("dial succeeded after Close: a listener fd is still open")
	}
	assertIdentity(t, p.Stats())
	waitFDs(t, base)
}

// TestLoopSocketOptions: sockets the loop makes carry what package net's
// would — TCP_NODELAY and keep-alive — the accepted one by inheritance from
// the listener, the backend one set before connect.
func TestLoopSocketOptions(t *testing.T) {
	p, paddr := loopProxy(t, Config{Backends: []string{echoBackend(t)}})
	c, err := net.DialTimeout("tcp", paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	pingPong(t, c, 1)
	type opts struct{ nodelay, keepalive, idle int }
	read := func(fd int) (o opts) {
		o.nodelay, _ = syscall.GetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY)
		o.keepalive, _ = syscall.GetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_KEEPALIVE)
		o.idle, _ = syscall.GetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE)
		return o
	}
	got := make(chan [2]opts, 1)
	p.np[0].pol.Post(func() {
		for rel := range p.np[0].live {
			got <- [2]opts{read(rel.cfd), read(rel.sfd)}
		}
	})
	want := opts{1, 1, keepAliveSecs}
	select {
	case o := <-got:
		if o[0] != want || o[1] != want {
			t.Errorf("client socket %+v, backend socket %+v, want %+v on both", o[0], o[1], want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no live relay on the shard")
	}
}

// TestSockaddrFlowKeyMatchesConnPath: the key the loop builds from the
// kernel's sockaddrs — the peer address accept4 wrote, the local one
// getsockname did — equals the one flowKeyFor builds from a net.Conn's
// addresses (the portable relay's), so a flow hashes, routes and shards the
// same on every platform. An IPv4 client of a dual-stack wildcard listener
// arrives 4-in-6 mapped and keys as its IPv4 address.
func TestSockaddrFlowKeyMatchesConnPath(t *testing.T) {
	for _, tc := range []struct{ listen, dial string }{
		{"127.0.0.1:0", "127.0.0.1"},
		{"[::1]:0", "::1"},
		{"[::]:0", "127.0.0.1"},
	} {
		lis, err := net.Listen("tcp", tc.listen)
		if err != nil {
			t.Logf("%s: %v (skipped)", tc.listen, err)
			continue
		}
		lfd, err := dupFD(lis.(*net.TCPListener))
		_ = lis.Close()
		if err != nil {
			t.Fatal(err)
		}
		port := lis.Addr().(*net.TCPAddr).Port
		c, err := net.DialTimeout("tcp", net.JoinHostPort(tc.dial, strconv.Itoa(port)), time.Second)
		if err != nil {
			_ = syscall.Close(lfd)
			t.Logf("dial %s: %v (skipped)", tc.dial, err)
			continue
		}
		fd, peer, err := rawsys.Accept4(lfd, syscall.SOCK_CLOEXEC)
		for deadline := time.Now().Add(5 * time.Second); err == syscall.EAGAIN && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			fd, peer, err = rawsys.Accept4(lfd, syscall.SOCK_CLOEXEC)
		}
		if err != nil {
			t.Fatalf("%s: accept4: %v", tc.listen, err)
		}
		local, err := rawsys.Getsockname(fd)
		if err != nil {
			t.Fatalf("%s: getsockname: %v", tc.listen, err)
		}
		for _, pair := range []struct {
			name    string
			raw     netip.AddrPort
			viaConn net.Addr
		}{{"peer", peer, c.LocalAddr()}, {"local", local, c.RemoteAddr()}} {
			ip, port := addrPort4(pair.raw)
			wantIP, wantPort := ip4Port(pair.viaConn)
			if ip != wantIP || port != wantPort {
				t.Errorf("%s dialed at %s: %s key %v:%d from the sockaddr (%v), %v:%d from the net.Conn",
					tc.listen, tc.dial, pair.name, ip, port, pair.raw, wantIP, wantPort)
			}
		}
		_ = c.Close()
		_ = syscall.Close(fd)
		_ = syscall.Close(lfd)
	}
}

// TestIPv6FlowKeys: an IPv6 peer's address is folded into the flow key, so
// two IPv6 clients on the same source port key and hash apart, on both the
// sockaddr path and the net.Addr path. IPv4 and 4-in-6 keys are the IPv4
// address itself.
func TestIPv6FlowKeys(t *testing.T) {
	key := func(peer string) packet.FlowKey {
		k := packet.FlowKey{Proto: packet.ProtoTCP, DstIP: [4]byte{127, 0, 0, 1}, DstPort: 9000}
		k.SrcIP, k.SrcPort = addrPort4(netip.MustParseAddrPort(peer))
		return k
	}
	ka, kb := key("[2001:db8::1]:4242"), key("[2001:db8::2]:4242")
	if ka == kb || ka.Hash() == kb.Hash() {
		t.Errorf("2001:db8::1 and 2001:db8::2 on one port: keys %+v and %+v, hashes %x and %x", ka, kb, ka.Hash(), kb.Hash())
	}
	if ip, _ := ip4Port(&net.TCPAddr{IP: net.ParseIP("2001:db8::1"), Port: 4242}); ip != ka.SrcIP {
		t.Errorf("net.Addr path %v, sockaddr path %v", ip, ka.SrcIP)
	}
	for addr, want := range map[string][4]byte{
		"10.1.2.3:40001":          {10, 1, 2, 3},
		"[::ffff:10.0.0.1]:40001": {10, 0, 0, 1},
	} {
		if ip, port := addrPort4(netip.MustParseAddrPort(addr)); ip != want || port != 40001 {
			t.Errorf("%s: key %v:%d, want %v:40001", addr, ip, port, want)
		}
	}
}

// TestLoopNeverWaitsOnController: with a table policy a loop's steady
// state — accept, route, relay, teardown — takes no Controller lock, so a
// control tick or a /status read holding it cannot stall the shard. The
// lock is held for the whole run, and the counters are read from their
// atomics: Stats calls Health, which takes it.
func TestLoopNeverWaitsOnController(t *testing.T) {
	_, addrA := startBackend(t)
	_, addrB := startBackend(t)
	pol, err := control.NewMaglevStatic([]string{"a", "b"}, 1021)
	if err != nil {
		t.Fatal(err)
	}
	proxy, paddr := startProxy(t, pol, addrA, addrB)

	held, release := make(chan struct{}), make(chan struct{})
	go proxy.ctrl.Do(func(control.Policy) {
		close(held)
		<-release
	})
	<-held
	defer close(release)

	const conns = 8
	for i := 0; i < conns; i++ {
		c, err := memcache.Dial(paddr, time.Second)
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		_ = c.SetDeadline(time.Now().Add(time.Second))
		if err := c.Set("k", []byte("v")); err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		_ = c.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && (proxy.accepted.Load() < conns || proxy.active.Load() != 0) {
		time.Sleep(5 * time.Millisecond)
	}
	if a, n := proxy.accepted.Load(), proxy.active.Load(); a != conns || n != 0 {
		t.Fatalf("accepted %d, active %d with the Controller lock held, want %d and 0", a, n, conns)
	}
}
