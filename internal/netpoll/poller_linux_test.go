//go:build linux

package netpoll

import (
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func newTestPoller(t *testing.T) *Poller {
	t.Helper()
	if !Available() {
		t.Skip("epoll unavailable")
	}
	p, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPollerReadReadiness(t *testing.T) {
	p := newTestPoller(t)
	var fds [2]int
	if err := syscall.Pipe2(fds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		t.Fatalf("pipe2: %v", err)
	}
	defer syscall.Close(fds[0])
	defer syscall.Close(fds[1])

	// Register and Unregister are loop-only: run them as posted tasks.
	onLoop := func(fn func()) {
		done := make(chan struct{})
		p.Post(func() { fn(); close(done) })
		<-done
	}
	got := make(chan Event, 8)
	onLoop(func() {
		if err := p.Register(fds[0], func(ev Event) { got <- ev }); err != nil {
			t.Errorf("Register: %v", err)
		}
	})
	if st := p.Stats(); st.Registered != 1 {
		t.Fatalf("Registered=%d, want 1", st.Registered)
	}
	if _, err := syscall.Write(fds[1], []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case ev := <-got:
		if !ev.Readable {
			t.Fatalf("event not readable: %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no readiness event within 5s")
	}
	onLoop(func() { p.Unregister(fds[0]) })
	if st := p.Stats(); st.Registered != 0 {
		t.Fatalf("Registered=%d after Unregister, want 0", st.Registered)
	}
	onLoop(func() { p.Unregister(fds[0]) }) // double-unregister is a no-op
}

func TestPollerPostAndTimers(t *testing.T) {
	p := newTestPoller(t)
	fired := make(chan struct{})
	// Timer methods are loop-only, so arm from a posted task.
	p.Post(func() {
		p.AfterFunc(10*time.Millisecond, func() { close(fired) })
	})
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("wheel timer never fired")
	}
	if st := p.Stats(); st.TimerFires != 1 || st.Wakeups == 0 {
		t.Fatalf("stats after timer: %+v", st)
	}

	// Cancel-before-fire via the poller surface.
	cancelled := atomic.Bool{}
	p.Post(func() {
		tm := p.AfterFunc(20*time.Millisecond, func() { cancelled.Store(true) })
		if !p.StopTimer(tm) {
			t.Error("StopTimer on pending timer returned false")
		}
	})
	time.Sleep(60 * time.Millisecond)
	if cancelled.Load() {
		t.Fatal("stopped timer fired")
	}
}

func TestPollerCloseRunsPostedTasks(t *testing.T) {
	if !Available() {
		t.Skip("epoll unavailable")
	}
	p, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ran := atomic.Bool{}
	p.Post(func() { ran.Store(true) })
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !ran.Load() {
		t.Fatal("task posted before Close did not run")
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
}

// TestDispatchEventBits pins how epoll bits reach the owner: a peer's FIN or
// reset arrives as Hangup (and as Readable, so the pump runs and meets the
// EOF or the error), error conditions also as Writable.
func TestDispatchEventBits(t *testing.T) {
	var got Event
	p := &Poller{wakeR: -1, cbs: []func(Event){3: func(ev Event) { got = ev }}}
	for _, tc := range []struct {
		bits uint32
		want Event
	}{
		{syscall.EPOLLIN, Event{Readable: true}},
		{syscall.EPOLLOUT, Event{Writable: true}},
		{syscall.EPOLLIN | syscall.EPOLLRDHUP, Event{Readable: true, Hangup: true}},
		{syscall.EPOLLOUT | syscall.EPOLLRDHUP, Event{Readable: true, Writable: true, Hangup: true}},
		{syscall.EPOLLHUP, Event{Readable: true, Writable: true, Hangup: true}},
		{syscall.EPOLLERR, Event{Readable: true, Writable: true, Hangup: true}},
	} {
		got = Event{}
		p.dispatch([]syscall.EpollEvent{{Events: tc.bits, Fd: 3}})
		if got != tc.want {
			t.Errorf("bits %#x: got %+v, want %+v", tc.bits, got, tc.want)
		}
	}
}

// TestDispatchZeroAllocLockFree is the event path's gate: routing a batch
// through the loop-owned table allocates nothing and never wants p.mu (held
// here for the whole run — a dispatch that locked it would deadlock).
func TestDispatchZeroAllocLockFree(t *testing.T) {
	hits := 0
	p := &Poller{wakeR: -1, cbs: make([]func(Event), 8)}
	p.cbs[5] = func(ev Event) { hits++ }
	batch := []syscall.EpollEvent{
		{Events: syscall.EPOLLIN, Fd: 5},
		{Events: syscall.EPOLLOUT | syscall.EPOLLRDHUP, Fd: 5},
		{Events: syscall.EPOLLIN, Fd: 7},   // unregistered
		{Events: syscall.EPOLLIN, Fd: 100}, // beyond the table
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if allocs := testing.AllocsPerRun(1000, func() { p.dispatch(batch) }); allocs != 0 {
		t.Errorf("dispatch: %.2f allocs per batch, want 0", allocs)
	}
	if hits != 2*1001 {
		t.Errorf("registered callback ran %d times, want %d", hits, 2*1001)
	}
}
