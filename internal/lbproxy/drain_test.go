package lbproxy

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/packet"
)

// The drain-rule suite pins what both relays owe their callers no matter how
// few syscalls they spend per message: every byte and every half-close gets
// through, whatever was already queued when the relay first looked at the
// socket.

// relays are the two dataplanes of the shared contract.
var relays = []struct {
	name    string
	netpoll bool
}{{"netpoll", true}, {"goroutine", false}}

// slowDial delays the backend dial, so whatever the client wrote right after
// connecting is queued in full before the relay first reads.
func slowDial(addr string, timeout time.Duration) (net.Conn, error) {
	time.Sleep(30 * time.Millisecond)
	return net.DialTimeout("tcp", addr, timeout)
}

// serveOnce accepts connections on a fresh listener and runs fn on each.
func serveOnce(t *testing.T, fn func(net.Conn)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lis.Close() })
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				fn(c)
			}()
		}
	}()
	return lis.Addr().String()
}

func echoBackend(t *testing.T) string {
	return serveOnce(t, func(c net.Conn) { _, _ = io.Copy(c, c) })
}

func drainProxy(t *testing.T, cfg Config) string {
	t.Helper()
	cfg.Policy = control.NewRoundRobin(len(cfg.Backends))
	proxy, paddr := startProxyCfg(t, cfg)
	if cfg.Netpoll {
		requireNetpoll(t, proxy)
	}
	return paddr
}

// TestRelayFINQueuedWithData: request bytes and FIN written back to back
// before the relay first reads. The bytes and the half-close must both reach
// the backend — with no idle timeout configured, a FIN left behind a short
// read would strand the connection forever.
func TestRelayFINQueuedWithData(t *testing.T) {
	for _, r := range relays {
		t.Run(r.name, func(t *testing.T) {
			got := make(chan []byte, 1)
			baddr := serveOnce(t, func(c net.Conn) {
				b, _ := io.ReadAll(c) // returns at the forwarded FIN
				got <- b
				_, _ = c.Write([]byte("ok"))
			})
			paddr := drainProxy(t, Config{Backends: []string{baddr}, Splice: true, Netpoll: r.netpoll, Dial: slowDial})

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
			select {
			case b := <-got:
				if !bytes.Equal(b, req) {
					t.Errorf("backend read %q, want %q", b, req)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("backend never saw EOF: the FIN was stranded behind the data")
			}
			_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if reply, err := io.ReadAll(c); err != nil || string(reply) != "ok" {
				t.Errorf("reply %q err=%v, want ok then EOF", reply, err)
			}
		})
	}
}

// TestRelayBufferSizedMessages: a message of exactly BufferSize bytes fills
// the read buffer, and one of BufferSize+1 leaves a single byte behind it —
// a full read proves nothing about the socket, so the relay must read again.
func TestRelayBufferSizedMessages(t *testing.T) {
	const bufSize = 4096
	for _, r := range relays {
		for _, splice := range []bool{true, false} {
			for _, n := range []int{bufSize, bufSize + 1} {
				name := r.name + map[bool]string{true: "/splice", false: "/copy"}[splice]
				t.Run(name, func(t *testing.T) {
					paddr := drainProxy(t, Config{Backends: []string{echoBackend(t)}, BufferSize: bufSize,
						Splice: splice, Netpoll: r.netpoll, Dial: slowDial})
					c, err := net.DialTimeout("tcp", paddr, time.Second)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					_ = c.SetDeadline(time.Now().Add(5 * time.Second))
					msg := bytes.Repeat([]byte("m"), n)
					msg[n-1] = '!'
					for round := 0; round < 3; round++ { // first round queued before the relay starts
						if _, err := c.Write(msg); err != nil {
							t.Fatal(err)
						}
						back := make([]byte, n)
						if _, err := io.ReadFull(c, back); err != nil {
							t.Fatalf("round %d: %d-byte message not relayed whole: %v", round, n, err)
						}
						if !bytes.Equal(back, msg) {
							t.Fatalf("round %d: echo differs", round)
						}
					}
				})
			}
		}
	}
}

// pingPong runs n sequential 64-byte request/response exchanges.
func pingPong(t *testing.T, c net.Conn, n int) {
	t.Helper()
	msg := bytes.Repeat([]byte("p"), 64)
	back := make([]byte, len(msg))
	for i := 0; i < n; i++ {
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, back); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNetpollSyscallsPerMessage is the deterministic form of the drain rule:
// on the event relay a sub-buffer message costs one read and one write per
// direction, so N request/response exchanges cost exactly 4·N relay
// syscalls — no trailing EAGAIN probe, no splice for messages this small.
func TestNetpollSyscallsPerMessage(t *testing.T) {
	proxy, paddr := startProxyCfg(t, Config{
		Backends: []string{echoBackend(t)}, Policy: control.NewRoundRobin(1), Splice: true, Netpoll: true,
	})
	requireNetpoll(t, proxy)
	c, err := net.DialTimeout("tcp", paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	pingPong(t, c, 1) // connection set-up and the first chunk are not steady state

	const n = 200
	before := proxy.Stats()
	pingPong(t, c, n)
	after := proxy.Stats()
	reads := after.RelayReads - before.RelayReads
	writes := after.RelayWrites - before.RelayWrites
	splices := after.RelaySplices - before.RelaySplices
	if reads != 2*n || writes != 2*n || splices != 0 {
		t.Errorf("%d exchanges cost %d reads + %d writes + %d splices, want %d + %d + 0",
			n, reads, writes, splices, 2*n, 2*n)
	}
}

// TestNetpollLoopOwnedResources: steady-state traffic on the event relay —
// small messages through the shard's buffer, bulk ones through its pipe —
// touches neither Proxy.bufs nor pipePool: the buffer pool is never asked,
// and the shard keeps the one pipe it took on first use.
func TestNetpollLoopOwnedResources(t *testing.T) {
	const bufSize = 4096
	p, err := New(Config{
		Backends: []string{echoBackend(t)}, Policy: control.NewRoundRobin(1),
		BufferSize: bufSize, Splice: true, Netpoll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireNetpoll(t, p)
	var bufGets atomic.Int64
	p.bufs.New = func() any { // the pool starts empty, so every Get lands here
		bufGets.Add(1)
		b := make([]byte, bufSize)
		return &b
	}
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve() }()
	defer p.Close()

	c, err := net.DialTimeout("tcp", p.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(10 * time.Second))
	bulk := bytes.Repeat([]byte("b"), 8*bufSize)
	back := make([]byte, len(bulk))
	exchange := func() {
		pingPong(t, c, 1)
		if _, err := c.Write(bulk); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, back); err != nil {
			t.Fatal(err)
		}
	}
	shardPipe := func() *spipe { // shard state is loop-owned: read it there
		ch := make(chan *spipe)
		p.np[0].pol.Post(func() { ch <- p.np[0].pipe })
		return <-ch
	}
	exchange()
	pipe, created := shardPipe(), pipesCreated.Load()
	if spliceAvailable() && pipe == nil {
		t.Fatal("bulk exchange left the shard without a pipe: splice never ran")
	}
	for i := 0; i < 20; i++ {
		exchange()
	}
	if got := shardPipe(); got != pipe {
		t.Errorf("shard pipe changed in steady state: %p -> %p", pipe, got)
	}
	if n := pipesCreated.Load() - created; n != 0 {
		t.Errorf("%d pipes created in steady state", n)
	}
	if n := bufGets.Load(); n != 0 {
		t.Errorf("event relay took %d buffers from Proxy.bufs", n)
	}
}

// TestProxyGracefulDrainNetpoll: connections owned by a poller shard get the
// same DrainTimeout grace as goroutine relays.
func TestProxyGracefulDrainNetpoll(t *testing.T) {
	p, err := New(Config{
		Backends: []string{echoBackend(t)}, Policy: control.NewRoundRobin(1),
		Netpoll: true, DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireNetpoll(t, p)
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve() }()
	c, err := net.DialTimeout("tcp", p.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	pingPong(t, c, 1)

	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	time.Sleep(50 * time.Millisecond) // Close is now waiting out the drain
	pingPong(t, c, 1)                 // fails the test if the relay was chopped
	_ = c.Close()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("close: %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("Close sat out the whole DrainTimeout after the last relay finished")
	}
	assertIdentity(t, p.Stats())
}

// flakyListener fails its first Accepts with EMFILE.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesAcceptErrors: EMFILE costs the acceptor a counted
// back-off, not its life; only the listener closing ends the loop.
func TestAcceptLoopSurvivesAcceptErrors(t *testing.T) {
	p, err := New(Config{Backends: []string{echoBackend(t)}, Policy: control.NewRoundRobin(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	flaky := &flakyListener{Listener: p.listeners[0]}
	flaky.fails.Store(3)
	p.listeners[0] = flaky
	served := make(chan error, 1)
	go func() { served <- p.Serve() }()
	defer p.Close()

	acceptAfterErrors(t, p)
	select {
	case err := <-served:
		t.Fatalf("Serve returned on a retryable accept error: %v", err)
	default:
	}
	_ = flaky.Listener.Close() // the listener itself going away does end it
	select {
	case err := <-served:
		if err == nil {
			t.Error("Serve returned nil for a listener closed under it")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running after its listener closed")
	}
}

// acceptAfterErrors connects once through a proxy whose acceptor fails its
// first three accepts, and expects the connection served and the failures
// counted.
func acceptAfterErrors(t *testing.T, p *Proxy) {
	t.Helper()
	c, err := net.DialTimeout("tcp", p.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	pingPong(t, c, 1)
	if st := p.Stats(); st.AcceptErrors != 3 || st.Accepted != 1 {
		t.Errorf("acceptErrors = %d, accepted = %d; want 3 and 1", st.AcceptErrors, st.Accepted)
	}
}

// addrConn is a net.Conn that has nothing but addresses.
type addrConn struct {
	net.Conn
	remote, local net.Addr
}

func (c addrConn) RemoteAddr() net.Addr { return c.remote }
func (c addrConn) LocalAddr() net.Addr  { return c.local }

// textAddr hides an address's concrete type, forcing the string fallback.
type textAddr string

func (a textAddr) Network() string { return "tcp" }
func (a textAddr) String() string  { return string(a) }

// TestFlowKeyForDirectMatchesStringPath: the *net.TCPAddr fast path and the
// parse-the-string fallback must produce the same key (and so the same
// hash, route and flow-table shard) — including 4-in-6 mapped addresses —
// and an IPv6 peer must not panic.
func TestFlowKeyForDirectMatchesStringPath(t *testing.T) {
	cases := []struct{ remote, local *net.TCPAddr }{
		{&net.TCPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 40001}, &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9000}},
		{&net.TCPAddr{IP: net.IP{192, 168, 7, 9}, Port: 65535}, &net.TCPAddr{IP: net.ParseIP("::ffff:10.0.0.1"), Port: 1}},
		{&net.TCPAddr{IP: net.ParseIP("2001:db8::1"), Port: 4242}, &net.TCPAddr{IP: net.IPv6loopback, Port: 9000}},
	}
	for _, tc := range cases {
		direct := flowKeyFor(addrConn{remote: tc.remote, local: tc.local})
		parsed := flowKeyFor(addrConn{remote: textAddr(tc.remote.String()), local: textAddr(tc.local.String())})
		if direct != parsed || direct.Hash() != parsed.Hash() {
			t.Errorf("%v -> %v: direct %+v, via string %+v", tc.remote, tc.local, direct, parsed)
		}
		if direct.SrcPort != uint16(tc.remote.Port) || direct.DstPort != uint16(tc.local.Port) || direct.Proto != packet.ProtoTCP {
			t.Errorf("%v -> %v: ports/proto wrong in %+v", tc.remote, tc.local, direct)
		}
		if ip4 := tc.remote.IP.To4(); ip4 != nil && !bytes.Equal(direct.SrcIP[:], ip4) {
			t.Errorf("%v: SrcIP = %v", tc.remote, direct.SrcIP)
		}
	}
}

// wrappedConn hides the *net.TCPConn: the event relay cannot take it.
type wrappedConn struct{ net.Conn }

// TestDataplaneReported: the proxy names its live dataplane, why it is not
// the event relay or why goroutines still admit for it, and counts the
// connections that fell back one by one.
func TestDataplaneReported(t *testing.T) {
	baddr := echoBackend(t)
	_, port, _ := net.SplitHostPort(baddr)
	for _, tc := range []struct {
		name       string
		cfg        Config
		mode, word string // word: what the reason must mention ("" = no reason)
	}{
		{"netpoll unset", Config{Backends: []string{baddr}}, "goroutine", "disabled"},
		{"default", Config{Backends: []string{baddr}, Netpoll: true}, "netpoll", ""},
		{"hostname backend", Config{Backends: []string{"localhost:" + port}, Netpoll: true}, "netpoll", "goroutine admit"},
		{"dial pool", Config{Backends: []string{baddr}, Netpoll: true, PoolIdle: 1}, "netpoll", "goroutine admit: the dial pool"},
		{"dial pool, hostname backend", Config{Backends: []string{"localhost:" + port}, Netpoll: true, PoolIdle: 1}, "goroutine", "on-loop redials"},
	} {
		tc.cfg.Policy = control.NewRoundRobin(1)
		p, paddr := startProxyCfg(t, tc.cfg)
		if tc.mode == "netpoll" {
			requireNetpoll(t, p)
		}
		mode, reason := p.Dataplane()
		if mode != tc.mode || (tc.word == "") != (reason == "") || !strings.Contains(reason, tc.word) {
			t.Errorf("%s: dataplane %q (%q), want %q mentioning %q", tc.name, mode, reason, tc.mode, tc.word)
		}
		c, err := net.DialTimeout("tcp", paddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		pingPong(t, c, 2) // every admit serves
		_ = c.Close()
	}

	var wrap sync.Once // first backend conn only
	on, paddr := startProxyCfg(t, Config{
		Backends: []string{baddr}, Policy: control.NewRoundRobin(1), Netpoll: true,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			wrap.Do(func() {
				if err == nil {
					c = wrappedConn{c}
				}
			})
			return c, err
		},
	})
	requireNetpoll(t, on)
	if mode, reason := on.Dataplane(); mode != "netpoll" || !strings.Contains(reason, "Config.Dial") {
		t.Errorf("dataplane %q (%q), want netpoll with the Dial hook named", mode, reason)
	}
	for i := 0; i < 2; i++ {
		c, err := net.DialTimeout("tcp", paddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		pingPong(t, c, 2)
		_ = c.Close()
	}
	if st := on.Stats(); st.NetpollFallbacks != 1 || st.Accepted != 2 {
		t.Errorf("fallbacks = %d of %d accepted, want 1 of 2", st.NetpollFallbacks, st.Accepted)
	}
	if snap := on.Snapshot(); snap.Dataplane != "netpoll" || !strings.Contains(snap.DataplaneFallback, "Config.Dial") {
		t.Errorf("status page: dataplane %q fallback %q", snap.Dataplane, snap.DataplaneFallback)
	}
}
