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
	defer syscall.Close(fds[1])

	// Register and CloseFD are loop-only: run them as posted tasks.
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
	// CloseFD drops the callback at once and closes the fd when the turn
	// ends; the next posted task runs in a later turn, so it sees the close.
	onLoop(func() { p.CloseFD(fds[0]) })
	if st := p.Stats(); st.Registered != 0 {
		t.Fatalf("Registered=%d after CloseFD, want 0", st.Registered)
	}
	onLoop(func() {})
	if _, err := syscall.Write(fds[1], []byte("x")); err != syscall.EPIPE {
		t.Fatalf("write after CloseFD: %v, want EPIPE (read end closed)", err)
	}
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

// TestTimerArmedFromEventAfterIdle: the loop parks for as long as nothing
// happens, and the wheel's clock stands still meanwhile. A readiness callback
// that arms a timer right after such a pause must get the delay it asked for
// — measured from now, not from the tick at which the loop went to sleep.
func TestTimerArmedFromEventAfterIdle(t *testing.T) {
	p := newTestPoller(t)
	var fds [2]int
	if err := syscall.Pipe2(fds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		t.Fatalf("pipe2: %v", err)
	}
	defer syscall.Close(fds[1])
	const delay = 150 * time.Millisecond
	armed, fired := make(chan time.Time, 1), make(chan time.Time, 1)
	p.Post(func() {
		_ = p.Register(fds[0], func(Event) {
			armed <- time.Now()
			p.AfterFunc(delay, func() { fired <- time.Now() })
		})
	})
	time.Sleep(2 * delay) // idle, no timer pending: longer than the delay itself
	if _, err := syscall.Write(fds[1], []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	at := <-armed
	select {
	case f := <-fired:
		if got := f.Sub(at); got < delay-time.Millisecond { // the wheel's clock is whole ticks
			t.Fatalf("timer armed for %v fired after %v", delay, got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	p.Post(func() { p.CloseFD(fds[0]) })
}

// TestRepostYieldsATurn: a task that reposts itself — a pump or an acceptor
// out of budget — gets one run per turn. However long it keeps that up,
// registered fds still get their events, timers still fire and CloseFD's
// deferred closes still happen in between.
func TestRepostYieldsATurn(t *testing.T) {
	p := newTestPoller(t)
	var fds [2]int
	if err := syscall.Pipe2(fds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		t.Fatalf("pipe2: %v", err)
	}
	defer syscall.Close(fds[1])

	var stop atomic.Bool
	var runs atomic.Uint64
	var flood func()
	flood = func() {
		if runs.Add(1); !stop.Load() {
			p.Post(flood)
		}
	}
	defer stop.Store(true)
	readable, fired := make(chan struct{}, 1), make(chan struct{})
	p.Post(func() {
		_ = p.Register(fds[0], func(Event) {
			p.CloseFD(fds[0])
			readable <- struct{}{}
		})
		p.AfterFunc(5*time.Millisecond, func() { close(fired) })
		flood()
	})
	if _, err := syscall.Write(fds[1], []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	for name, ch := range map[string]<-chan struct{}{"readiness event": readable, "timer": fired} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("no %s while a task keeps reposting itself (%d runs)", name, runs.Load())
		}
	}
	// The close CloseFD deferred needs a turn to end, which the old
	// run-until-empty task loop never let happen.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := syscall.Write(fds[1], []byte("x")); err == syscall.EPIPE {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deferred close never ran while a task keeps reposting itself")
		}
		time.Sleep(time.Millisecond)
	}
	if runs.Load() < 2 {
		t.Fatalf("the reposting task ran %d times, want it to keep running", runs.Load())
	}
}
