//go:build linux

package lbproxy

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/packet"
)

// The drain-rule suite pins what the relay owes its callers no matter how
// few syscalls it spends per message: every byte and every half-close gets
// through, whatever was already queued when the relay first looked at the
// socket.

// stallLoops parks the proxy's event loops until release is called (at the
// latest, when the test ends): whatever a client writes meanwhile — FIN
// included — is queued in full before the relay first reads.
func stallLoops(t *testing.T, p *Proxy) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	for _, s := range p.np {
		running := make(chan struct{})
		if s.pol.Post(func() { close(running); <-gate }) {
			<-running
		}
	}
	released := false
	release = func() {
		if !released {
			released = true
			close(gate)
		}
	}
	t.Cleanup(release)
	return release
}

// shrinkReadBuffers cuts every shard's read buffer to n bytes, so small
// messages fill it and bursts overflow it into the splice path. Call it
// before the first connection.
func shrinkReadBuffers(p *Proxy, n int) {
	for _, s := range p.np {
		done := make(chan struct{})
		if s.pol.Post(func() { s.buf = s.buf[:n]; close(done) }) {
			<-done
		}
	}
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

// TestRelayFINQueuedWithData: request bytes and FIN written back to back
// before the relay first reads. The bytes and the half-close must both reach
// the backend — with no idle timeout configured, a FIN left behind a short
// read would strand the connection forever. The leg is named for the
// dataplane, the event loop on internal/netpoll; its cases put the FIN behind
// a request that one read drains and behind a burst four times the read
// buffer, whose rest is spliced (or, without splice, read on) to EOF.
func TestRelayFINQueuedWithData(t *testing.T) {
	const bufSize = 1 << 10
	t.Run("netpoll", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			req  []byte
		}{
			{"short", []byte("request, then straight away a FIN\r\n")},
			{"bulk", bytes.Repeat([]byte("q"), 4*bufSize)},
		} {
			t.Run(tc.name, func(t *testing.T) {
				got := make(chan []byte, 1)
				baddr := serveOnce(t, func(c net.Conn) {
					b, _ := io.ReadAll(c) // returns at the forwarded FIN
					got <- b
					_, _ = c.Write([]byte("ok"))
				})
				p, paddr := startProxy(t, control.NewRoundRobin(1), baddr)
				shrinkReadBuffers(p, bufSize)
				release := stallLoops(t, p)

				c, err := net.DialTimeout("tcp", paddr, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if _, err := c.Write(tc.req); err != nil {
					t.Fatal(err)
				}
				if err := c.(*net.TCPConn).CloseWrite(); err != nil {
					t.Fatal(err)
				}
				release()
				select {
				case b := <-got:
					if !bytes.Equal(b, tc.req) {
						t.Errorf("backend read %d bytes, want the %d-byte request", len(b), len(tc.req))
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
	})
}

// TestRelayBufferSizedMessages: a message of exactly the read buffer's size
// fills it, and one a byte longer leaves a single byte behind it —
// a full read proves nothing about the socket, so the relay must read again
// (or splice the rest).
func TestRelayBufferSizedMessages(t *testing.T) {
	const bufSize = 4096
	for _, splice := range []bool{true, false} {
		for _, n := range []int{bufSize, bufSize + 1} {
			name := fmt.Sprintf("%s/%d", map[bool]string{true: "splice", false: "copy"}[splice], n)
			t.Run(name, func(t *testing.T) {
				if !splice {
					withoutSplice(t)
				}
				p, paddr := startProxy(t, control.NewRoundRobin(1), echoBackend(t))
				shrinkReadBuffers(p, bufSize)
				release := stallLoops(t, p)
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
					release()
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
// a sub-buffer message costs one read and one write per direction, so N request/response exchanges cost exactly 4·N relay
// syscalls — no trailing EAGAIN probe, no splice for messages this small.
func TestNetpollSyscallsPerMessage(t *testing.T) {
	proxy, paddr := startProxyCfg(t, Config{Backends: []string{echoBackend(t)}, Policy: control.NewRoundRobin(1)})
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

// TestNetpollLoopOwnedResources: steady-state traffic — small messages
// through the shard's buffer, bulk ones through its pipe — allocates no
// pipe: the shard keeps the one it took on first use.
func TestNetpollLoopOwnedResources(t *testing.T) {
	const bufSize = 4096
	p, _ := startProxy(t, control.NewRoundRobin(1), echoBackend(t))
	shrinkReadBuffers(p, bufSize)
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
}

// TestProxyGracefulDrainNetpoll: a relay idle on its shard's loop — no event
// pending — still gets the DrainTimeout grace, and Close returns as soon as
// the last relay is done rather than sitting out the whole timeout.
func TestProxyGracefulDrainNetpoll(t *testing.T) {
	p, err := New(Config{
		Backends: []string{echoBackend(t)}, Policy: control.NewRoundRobin(1),
		DrainTimeout: 5 * time.Second,
	})
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
