package rawsys

import (
	"net"
	"net/netip"
	"slices"
	"syscall"
	"testing"
	"time"
)

func pipe(t *testing.T) (r, w int) {
	t.Helper()
	var p [2]int
	if err := Pipe2(&p, syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = Close(p[0]); _ = Close(p[1]) })
	return p[0], p[1]
}

// TestEpollWaitMatchesSyscall: the raw zero-timeout harvest reports what
// package syscall's EpollWait reports — the same fds with the same event
// bits — and consumes an edge-triggered edge the same way.
func TestEpollWaitMatchesSyscall(t *testing.T) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(epfd)
	type ready struct {
		fd     int32
		events uint32
	}
	harvest := func(wait func([]syscall.EpollEvent) (int, error)) []ready {
		t.Helper()
		evs := make([]syscall.EpollEvent, 16)
		n, err := wait(evs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]ready, n)
		for i, ev := range evs[:n] {
			out[i] = ready{ev.Fd, ev.Events}
		}
		slices.SortFunc(out, func(a, b ready) int { return int(a.fd - b.fd) })
		return out
	}
	raw := func(evs []syscall.EpollEvent) (int, error) { return EpollWait(epfd, evs) }
	wrapped := func(evs []syscall.EpollEvent) (int, error) { return syscall.EpollWait(epfd, evs, 0) }

	if got := harvest(raw); len(got) != 0 {
		t.Errorf("empty set: raw harvest %v", got)
	}
	// Level-triggered: a readable pipe, an empty one, a writable one and a
	// hung-up one, reported on every harvest.
	full, fullW := pipe(t)
	empty, _ := pipe(t)
	_, writable := pipe(t)
	hup, hupW := pipe(t)
	if _, err := Write(fullW, []byte("x")); err != nil {
		t.Fatal(err)
	}
	_ = Close(hupW)
	for fd, bits := range map[int]uint32{full: syscall.EPOLLIN, empty: syscall.EPOLLIN, writable: syscall.EPOLLOUT, hup: syscall.EPOLLIN | syscall.EPOLLRDHUP} {
		if err := EpollCtl(epfd, syscall.EPOLL_CTL_ADD, fd, &syscall.EpollEvent{Events: bits, Fd: int32(fd)}); err != nil {
			t.Fatal(err)
		}
	}
	got, want := harvest(raw), harvest(wrapped)
	if !slices.Equal(got, want) || len(got) != 3 {
		t.Errorf("level-triggered: raw %v, syscall.EpollWait %v; want the same three fds", got, want)
	}
	// Edge-triggered: one edge, harvested once, whichever call takes it.
	et, etW := pipe(t)
	if err := EpollCtl(epfd, syscall.EPOLL_CTL_ADD, et, &syscall.EpollEvent{Events: syscall.EPOLLIN | 1<<31, Fd: int32(et)}); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(etW, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := harvest(raw); len(got) != 4 || !slices.Contains(got, ready{int32(et), syscall.EPOLLIN}) {
		t.Errorf("raw harvest after an edge: %v; want it with the level-triggered three", got)
	}
	if got := harvest(wrapped); len(got) != 3 {
		t.Errorf("syscall.EpollWait after the raw harvest: %v; want the edge consumed", got)
	}
}

// TestSocketAddresses: NewSockaddr is the address connect(2) reaches, and
// Getsockname decodes the kernel's address to what package net reports for
// the same connection, IPv4 and IPv6. (Accept4's decoding is checked where
// the proxy turns it into a flow key: lbproxy's
// TestSockaddrFlowKeyMatchesConnPath.)
func TestSocketAddresses(t *testing.T) {
	for _, host := range []string{"127.0.0.1", "::1"} {
		lis, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
		if err != nil {
			t.Logf("%s: %v (skipped)", host, err)
			continue
		}
		defer lis.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			c, err := lis.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- c
		}()
		sa := NewSockaddr(lis.Addr().(*net.TCPAddr).AddrPort(), 0)
		fd, err := Socket(sa.Family(), syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, syscall.IPPROTO_TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer Close(fd)
		if err := Connect(fd, &sa); err != nil {
			t.Fatalf("%s: connect: %v", host, err)
		}
		var srv net.Conn
		select {
		case srv = <-accepted:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the listener accepted nothing", host)
		}
		if srv == nil {
			t.Fatalf("%s: accept failed", host)
		}
		defer srv.Close()
		local, err := Getsockname(fd)
		if err != nil {
			t.Fatal(err)
		}
		if want := addrPortOf(srv.RemoteAddr()); local != want {
			t.Errorf("%s: getsockname %v, the server's peer %v", host, local, want)
		}
		if soerr, err := GetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_ERROR); soerr != 0 || err != nil {
			t.Errorf("%s: SO_ERROR %d, %v on a connected socket", host, soerr, err)
		}
	}
}

// addrPortOf is a TCP address as the kernel spells it: package net keeps
// IPv4 addresses in 16-byte form.
func addrPortOf(a net.Addr) netip.AddrPort {
	ap := a.(*net.TCPAddr).AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}
