//go:build linux

package perf

import (
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/lbproxy"
)

// connLifecycleAllocs is what one connection that carries one request byte
// costs the heap on the event path, accept to close, counted process-wide:
// six for the lifecycle — the npRelay, the two readiness callbacks bound to
// it, the DialTimeout timer on the wheel and its callback, the accepted
// peer's sockaddr out of syscall.Accept4 — and four for the estimator the
// first byte creates (the flow-table entry and its timeout ensemble).
const connLifecycleAllocs = 10

// TestEventPathConnectionAllocs pins the allocations of one admitted-and-
// closed connection on the event loop. Client and backend are this
// goroutine making raw blocking syscalls with prebuilt arguments, so every
// allocation counted is the proxy's.
func TestEventPathConnectionAllocs(t *testing.T) {
	lfd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(lfd)
	if err := syscall.Bind(lfd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(lfd, 16); err != nil {
		t.Fatal(err)
	}
	bound, err := syscall.Getsockname(lfd)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lbproxy.New(lbproxy.Config{
		Backends: []string{fmt.Sprintf("127.0.0.1:%d", bound.(*syscall.SockaddrInet4).Port)},
		Policy:   control.NewRoundRobin(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve() }()
	var proxyPort int
	if _, err := fmt.Sscanf(p.Addr().String(), "127.0.0.1:%d", &proxyPort); err != nil {
		t.Fatal(err)
	}
	proxy := &syscall.SockaddrInet4{Port: proxyPort, Addr: [4]byte{127, 0, 0, 1}}

	buf := make([]byte, 8)
	cycle := func() {
		cfd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.Connect(cfd, proxy); err != nil {
			t.Fatal(err)
		}
		// accept4 with no address buffer: syscall.Accept4 would allocate one.
		r, _, errno := syscall.Syscall6(syscall.SYS_ACCEPT4, uintptr(lfd), 0, 0, syscall.SOCK_CLOEXEC, 0, 0)
		if errno != 0 {
			t.Fatal(errno)
		}
		bfd := int(r)
		if _, err := syscall.Write(cfd, buf[:1]); err != nil {
			t.Fatal(err)
		}
		if n, err := syscall.Read(bfd, buf); n != 1 || err != nil {
			t.Fatalf("backend read %d, %v: want the client's byte", n, err)
		}
		_ = syscall.Close(cfd)
		if n, err := syscall.Read(bfd, buf); n != 0 || err != nil {
			t.Fatalf("backend read %d, %v: want the forwarded FIN", n, err)
		}
		_ = syscall.Close(bfd)
	}
	for i := 0; i < 200; i++ { // fd-indexed tables, the live set and the wheel reach their size
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs != connLifecycleAllocs {
		t.Errorf("one connection through the event path: %.1f allocs, want exactly %d", allocs, connLifecycleAllocs)
	}
}

// TestEventRelayMessageCycleZeroAlloc pins the event loop's steady-state
// message cycle — readiness event, estimator observation,
// forward, park — for a request and its response: through real sockets,
// with an echo backend and this goroutine as the client, a whole exchange
// allocates nothing anywhere in the process. (That the cycle also keeps to
// the shard's one buffer and one pipe is pinned next to the relay, by
// lbproxy's TestNetpollLoopOwnedResources; the poller's share by netpoll's
// TestDispatchZeroAllocLockFree.)
func TestEventRelayMessageCycleZeroAlloc(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
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
	}()
	p, err := lbproxy.New(lbproxy.Config{
		Backends: []string{lis.Addr().String()},
		Policy:   control.NewRoundRobin(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve() }()
	c, err := net.DialTimeout("tcp", p.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(30 * time.Second))
	msg, back := make([]byte, 64), make([]byte, 64)
	exchange := func() {
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, back); err != nil {
			t.Fatal(err)
		}
	}
	warmup := func() {
		for i := 0; i < 100; i++ {
			exchange()
		}
	}
	assertZeroAllocs(t, "event relay request/response cycle", warmup, exchange)
}
