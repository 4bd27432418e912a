package faults

import (
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// This file carries the live (real-socket) consumer of a ConnSchedule: a
// listener wrapper that injects the same faults the simulated server
// injects, so one schedule drives sim and live experiments.

// Clock supplies the schedule's time base; live wrappers are handed the
// proxy's or the test's monotonic since-start clock so wall time never
// leaks into a schedule's coordinates.
type Clock func() time.Duration

// NewChaosListener wraps lis with sched: refused connections are closed at
// accept (RST when the transport supports lingerless close) and never
// surfaced, blackholed ones are surfaced as connections that never move
// data, reset ones die after AfterBytes. Attempt ids are the accept
// counter.
func NewChaosListener(lis net.Listener, sched ConnSchedule, clock Clock) net.Listener {
	return &chaosListener{Listener: lis, sched: sched, clock: clock}
}

type chaosListener struct {
	net.Listener
	sched ConnSchedule
	clock Clock
	seq   atomic.Uint64
}

func (l *chaosListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		f := l.sched.ConnFaultAt(l.clock(), l.seq.Add(1)-1)
		switch f.Kind {
		case ConnRefuse:
			abort(conn)
			continue // the failure is the client's problem, not Accept's
		case ConnBlackhole:
			return newBlackholeConn(conn), nil
		case ConnReset:
			return newResetConn(conn, f.AfterBytes), nil
		}
		return conn, nil
	}
}

// abort closes conn with linger 0 when possible so the peer sees an RST
// rather than an orderly FIN — the "connection refused by the application"
// shape dial-failover code must survive.
func abort(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = conn.Close()
}

// blackholeConn swallows both directions: reads block until the deadline or
// Close, writes succeed and discard. The underlying connection stays open
// (the peer's bytes rot in kernel buffers), which is exactly what a
// blackholed backend looks like from outside.
type blackholeConn struct {
	net.Conn
	mu       sync.Mutex
	closed   chan struct{}
	isClosed bool
	readDL   time.Time
}

func newBlackholeConn(conn net.Conn) *blackholeConn {
	return &blackholeConn{Conn: conn, closed: make(chan struct{})}
}

func (b *blackholeConn) Read([]byte) (int, error) {
	b.mu.Lock()
	dl := b.readDL
	b.mu.Unlock()
	var timeout <-chan time.Time
	if !dl.IsZero() {
		t := time.NewTimer(time.Until(dl))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-b.closed:
		return 0, net.ErrClosed
	case <-timeout:
		return 0, os.ErrDeadlineExceeded
	}
}

func (b *blackholeConn) Write(p []byte) (int, error) {
	select {
	case <-b.closed:
		return 0, net.ErrClosed
	default:
		return len(p), nil
	}
}

func (b *blackholeConn) Close() error {
	b.mu.Lock()
	if !b.isClosed {
		b.isClosed = true
		close(b.closed)
	}
	b.mu.Unlock()
	return b.Conn.Close()
}

func (b *blackholeConn) SetDeadline(t time.Time) error { return b.SetReadDeadline(t) }

func (b *blackholeConn) SetReadDeadline(t time.Time) error {
	b.mu.Lock()
	b.readDL = t
	b.mu.Unlock()
	return nil
}

func (b *blackholeConn) SetWriteDeadline(time.Time) error { return nil }

// resetConn relays normally until `remaining` bytes (both directions
// combined) have passed, then aborts the connection: reads and writes fail
// with ErrConnReset and the underlying socket is lingerless-closed.
type resetConn struct {
	net.Conn
	remaining atomic.Int64
	dead      atomic.Bool
}

// ErrConnReset is surfaced by a reset-faulted connection after its byte
// budget is exhausted.
var ErrConnReset = errors.New("faults: injected connection reset")

func newResetConn(conn net.Conn, afterBytes int) *resetConn {
	r := &resetConn{Conn: conn}
	r.remaining.Store(int64(afterBytes))
	return r
}

func (r *resetConn) spend(n int) {
	if r.remaining.Add(-int64(n)) <= 0 && !r.dead.Swap(true) {
		abort(r.Conn)
	}
}

func (r *resetConn) Read(p []byte) (int, error) {
	if r.dead.Load() {
		return 0, ErrConnReset
	}
	n, err := r.Conn.Read(p)
	r.spend(n)
	return n, err
}

func (r *resetConn) Write(p []byte) (int, error) {
	if r.dead.Load() {
		return 0, ErrConnReset
	}
	n, err := r.Conn.Write(p)
	r.spend(n)
	return n, err
}
