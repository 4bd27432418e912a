//go:build linux

package lbproxy

import (
	"io"
	"net"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// socketPair returns a connected AF_UNIX stream pair, closed at cleanup.
func socketPair(t *testing.T, nonblock bool) (a, b int) {
	t.Helper()
	typ := syscall.SOCK_STREAM | syscall.SOCK_CLOEXEC
	if nonblock {
		typ |= syscall.SOCK_NONBLOCK
	}
	fds, err := syscall.Socketpair(syscall.AF_UNIX, typ, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Close(fds[0]); _ = syscall.Close(fds[1]) })
	return fds[0], fds[1]
}

// rawDir is a relay direction reading src and writing dst, with nothing else
// of a relay behind it: enough for the raw read/write helpers.
func rawDir(src, dst int) *npDir {
	return &npDir{rel: &npRelay{p: &Proxy{}}, src: src, dst: dst}
}

// TestRelayRawIOContract pins what the relay's raw read and write helpers
// (npDir.rawRead, rawWrite; raw syscalls underneath) report on real sockets,
// which is what the pumps' drain rule and teardown are written against.
func TestRelayRawIOContract(t *testing.T) {
	buf := make([]byte, 64)
	t.Run("EmptyReadIsEAGAIN", func(t *testing.T) {
		a, _ := socketPair(t, true)
		if n, err := rawDir(a, -1).rawRead(buf); n != 0 || err != syscall.EAGAIN {
			t.Errorf("read of an empty socket: %d, %v; want 0, EAGAIN", n, err)
		}
	})
	t.Run("ReadAfterFINIsEOF", func(t *testing.T) {
		a, b := socketPair(t, true)
		if _, err := syscall.Write(b, []byte("x")); err != nil {
			t.Fatal(err)
		}
		_ = syscall.Shutdown(b, syscall.SHUT_WR)
		d := rawDir(a, -1)
		if n, err := d.rawRead(buf); n != 1 || err != nil {
			t.Errorf("first read: %d, %v; want the byte", n, err)
		}
		if n, err := d.rawRead(buf); n != 0 || err != io.EOF {
			t.Errorf("read after the FIN: %d, %v; want 0, io.EOF", n, err)
		}
	})
	t.Run("EPIPE", func(t *testing.T) {
		a, b := socketPair(t, true)
		_ = syscall.Shutdown(b, syscall.SHUT_RD)
		if n, blocked, err := rawDir(-1, a).rawWrite([]byte("x")); n != 0 || blocked || err != syscall.EPIPE {
			t.Errorf("write to a peer that stopped reading: %d, blocked %v, %v; want 0, false, EPIPE", n, blocked, err)
		}
	})
	t.Run("ECONNRESET", func(t *testing.T) {
		c, s := tcpPair(t)
		// Linger 0: close sends a reset, not a FIN.
		l := syscall.Linger{Onoff: 1, Linger: 0}
		if err := syscall.SetsockoptLinger(s, syscall.SOL_SOCKET, syscall.SO_LINGER, &l); err != nil {
			t.Fatal(err)
		}
		_ = syscall.Close(s)
		d := rawDir(c, -1)
		var err error
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if _, err = d.rawRead(buf); err != syscall.EAGAIN {
				break
			}
		}
		if err != syscall.ECONNRESET {
			t.Errorf("read after the peer's reset: %v; want ECONNRESET", err)
		}
	})
	t.Run("FullSendBufferIsShortWriteThenBlocked", func(t *testing.T) {
		a, _ := socketPair(t, true)
		big := make([]byte, 1<<20)
		d := rawDir(-1, a)
		n, blocked, err := d.rawWrite(big)
		if err != nil || !blocked || n == 0 || n >= len(big) {
			t.Fatalf("1 MiB into an unread socket: %d, blocked %v, %v; want a short count, blocked", n, blocked, err)
		}
		writes := d.rel.p.sysWrites.Load()
		if writes < 2 {
			t.Errorf("%d write calls: want the short write and then the EAGAIN", writes)
		}
		if m, blocked, err := d.rawWrite(big[:1]); m != 0 || !blocked || err != nil {
			t.Errorf("write to the full socket: %d, blocked %v, %v; want 0, blocked", m, blocked, err)
		}
	})
	t.Run("EINTRRetried", func(t *testing.T) {
		// A blocking read on a socket with a receive timeout is not restarted
		// after a signal handler runs (signal(7)), so the runtime's
		// preemption signal, sent at the reading thread, surfaces as EINTR.
		// The bare syscall shows the set-up produces it; rawRead must ride it
		// out and return the byte written afterwards.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
		a, b := socketPair(t, false)
		tv := syscall.Timeval{Sec: 10}
		if err := syscall.SetsockoptTimeval(a, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv); err != nil {
			t.Fatal(err)
		}
		type result struct {
			n   int
			err error
		}
		read := func(rd func() (int, error)) result {
			tids, done := make(chan int), make(chan result, 1)
			go func() {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				tids <- syscall.Gettid()
				n, err := rd()
				done <- result{n, err}
			}()
			tid := <-tids
			for i := 0; i < 20; i++ { // the reader blocks; signal it while it does
				time.Sleep(2 * time.Millisecond)
				_ = syscall.Tgkill(os.Getpid(), tid, syscall.SIGURG)
				select {
				case r := <-done:
					return r
				default:
				}
			}
			if _, err := syscall.Write(b, []byte("x")); err != nil {
				t.Fatal(err)
			}
			return <-done
		}
		bare := func() (int, error) {
			n, _, e := syscall.RawSyscall(syscall.SYS_READ, uintptr(a), uintptr(unsafe.Pointer(&buf[0])), uintptr(len(buf)))
			if e != 0 {
				return 0, e
			}
			return int(n), nil
		}
		if r := read(bare); r.err != syscall.EINTR {
			t.Fatalf("bare read under signals: %v; want EINTR (the set-up does not interrupt)", r.err)
		}
		d := rawDir(a, -1)
		if r := read(func() (int, error) { return d.rawRead(buf) }); r.n != 1 || r.err != nil {
			t.Errorf("rawRead under signals: %d, %v; want the byte", r.n, r.err)
		}
	})
}

// tcpPair returns the descriptors of both ends of a loopback TCP connection,
// nonblocking. The client's is closed at cleanup, the server's is the
// caller's to close.
func tcpPair(t *testing.T) (client, server int) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if client, err = dupFD(c.(*net.TCPConn)); err != nil {
		t.Fatal(err)
	}
	if server, err = dupFD(s.(*net.TCPConn)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Close(client) })
	return client, server
}
