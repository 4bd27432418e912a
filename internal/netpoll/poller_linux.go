//go:build linux

package netpoll

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// epollBroken latches process-wide when the kernel rejects epoll_create1 with
// ENOSYS, so later calls fail at once.
var epollBroken atomic.Bool

// epollET is EPOLLET as a uint32. The syscall package defines EPOLLET as a
// negative untyped constant (-0x80000000), which cannot be converted to
// uint32 directly in a constant expression.
const epollET = uint32(1) << 31

const epollMask = uint32(syscall.EPOLLIN|syscall.EPOLLOUT|syscall.EPOLLRDHUP|
	syscall.EPOLLERR|syscall.EPOLLHUP) | epollET

// Poller is one edge-triggered epoll loop plus its timing wheel. See the
// package comment for the concurrency contract.
//
// The loop never blocks in epoll_wait: the epoll fd itself is registered
// with the Go runtime's netpoller (epoll instances are pollable — nested
// epoll), and the loop parks in RawConn.Read until the ready list goes
// non-empty or the wheel's next deadline expires. Blocking in a raw
// epoll_wait syscall instead would pin this goroutine's P until sysmon
// retakes it (up to ~10ms on an otherwise-idle scheduler), adding
// scheduler-stall latency to every wakeup — worst on GOMAXPROCS=1.
// Parking on the runtime poller makes wakeups ordinary goroutine wakeups.
type Poller struct {
	epfd         int
	epf          *os.File        // epfd wrapped for runtime-netpoller parking
	eprc         syscall.RawConn // epf's raw handle; loop parks in its Read
	wakeR, wakeW int
	start        time.Time
	wheel        *Wheel
	done         chan struct{}

	cbs     []func(Event) // fd-indexed callback table; loop goroutine only
	closing []int         // fds CloseFD took this turn; closed when it ends

	mu          sync.Mutex
	tasks       []func()
	dead        bool        // under mu: the loop has exited, Post drops
	wakePending atomic.Bool // a wake byte is (about to be) in the pipe

	exiting bool   // loop-goroutine only; set via posted task
	armed   uint64 // loop-goroutine only: wheel tick epf's read deadline is set for (0: none)
	closed  atomic.Bool

	wakeups    atomic.Uint64
	registered atomic.Int64
}

// New creates a poller and starts its loop goroutine. Returns ErrUnsupported
// when epoll is unavailable (a kernel reporting ENOSYS latches that
// process-wide).
func New(cfg Config) (*Poller, error) {
	if epollBroken.Load() {
		return nil, ErrUnsupported
	}
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		if err == syscall.ENOSYS {
			epollBroken.Store(true)
			return nil, ErrUnsupported
		}
		return nil, err
	}
	// Hand the epoll fd to the runtime netpoller (it must be nonblocking for
	// os.NewFile to register it as pollable). If the runtime refuses it —
	// SetReadDeadline only works on pollable files — there is no
	// scheduler-integrated parking, and no poller.
	_ = syscall.SetNonblock(epfd, true)
	epf := os.NewFile(uintptr(epfd), "netpoll-epoll")
	eprc, err := epf.SyscallConn()
	if err == nil {
		err = epf.SetReadDeadline(time.Time{})
	}
	if err != nil {
		_ = epf.Close()
		return nil, ErrUnsupported
	}
	var pfds [2]int
	if err := syscall.Pipe2(pfds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		_ = epf.Close()
		return nil, err
	}
	p := &Poller{
		epfd:  epfd,
		epf:   epf,
		eprc:  eprc,
		wakeR: pfds[0],
		wakeW: pfds[1],
		start: time.Now(),
		wheel: NewWheel(cfg.Tick),
		done:  make(chan struct{}),
	}
	// The wake pipe is level-triggered: the loop fully drains it every wake.
	ev := syscall.EpollEvent{Events: uint32(syscall.EPOLLIN), Fd: int32(p.wakeR)}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p.wakeR, &ev); err != nil {
		_ = epf.Close()
		syscall.Close(pfds[0])
		syscall.Close(pfds[1])
		return nil, err
	}
	go p.loop()
	return p, nil
}

// Register adds fd to the epoll set (edge-triggered, both directions) and
// routes its readiness events to cb. Loop goroutine only. EPOLL_CTL_ADD
// checks current readiness, so an fd that is already ready (a connected
// socket is at least writable) gets its first event on the next batch.
func (p *Poller) Register(fd int, cb func(Event)) error {
	ev := syscall.EpollEvent{Events: epollMask, Fd: int32(fd)}
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		return err
	}
	if fd >= len(p.cbs) {
		grown := make([]func(Event), max(fd+1, 2*len(p.cbs)))
		copy(grown, p.cbs)
		p.cbs = grown
	}
	p.cbs[fd] = cb
	p.registered.Add(1)
	return nil
}

// CloseFD ends the loop's ownership of fd: its callback is dropped now and
// the fd is closed when the current turn ends. Loop goroutine only. The loop
// must hold the only descriptor of that socket, so close(2) itself takes it
// out of the epoll set — no EPOLL_CTL_DEL. Closing late is what makes fd
// numbers safe to dispatch on: a number cannot be handed out again (by an
// accept4 or socket call later in the same turn) while events harvested for
// its previous owner are still queued, and those find an empty slot. An fd
// that was never registered is closed the same way.
func (p *Poller) CloseFD(fd int) {
	if uint(fd) < uint(len(p.cbs)) && p.cbs[fd] != nil {
		p.cbs[fd] = nil
		p.registered.Add(-1)
	}
	p.closing = append(p.closing, fd)
}

// Unregister takes fd out of the epoll set by hand, for the one case close(2)
// cannot cover: the socket lives on under another descriptor (a backend
// connection going back to the dial pool as a net.Conn), so closing the
// loop's copy would leave its epoll entry behind, reporting events under a
// number that is free for reuse. Loop goroutine only; CloseFD still retires
// the descriptor itself.
func (p *Poller) Unregister(fd int) {
	_ = syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, fd, nil)
	if uint(fd) < uint(len(p.cbs)) && p.cbs[fd] != nil {
		p.cbs[fd] = nil
		p.registered.Add(-1)
	}
}

// Post schedules fn to run on the loop goroutine, waking the loop if needed,
// and reports whether it will run: false once the loop has exited. Tasks run
// in FIFO order after the current event batch; one posted from the loop runs
// on its next turn, after a fresh harvest.
func (p *Poller) Post(fn func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return false
	}
	p.tasks = append(p.tasks, fn)
	if p.wakePending.CompareAndSwap(false, true) {
		var b [1]byte
		_, _ = syscall.Write(p.wakeW, b[:]) // EAGAIN: pipe full, loop is waking anyway
	}
	return true
}

// AfterFunc schedules fn on the timing wheel. Loop goroutine only.
func (p *Poller) AfterFunc(d time.Duration, fn func()) *Timer {
	return p.wheel.Add(d, fn)
}

// StopTimer cancels t. Loop goroutine only.
func (p *Poller) StopTimer(t *Timer) bool { return p.wheel.Stop(t) }

// ResetTimer re-arms t (keeping its callback). Loop goroutine only.
func (p *Poller) ResetTimer(t *Timer, d time.Duration) { p.wheel.Reset(t, d) }

// Stats returns a snapshot of the poller's counters.
func (p *Poller) Stats() Stats {
	return Stats{
		Wakeups:    p.wakeups.Load(),
		TimerFires: p.wheel.Fired(),
		Registered: p.registered.Load(),
	}
}

// Close stops the loop after running already-posted tasks, then releases the
// epoll and wake-pipe fds. Registered fds are the owner's responsibility;
// post teardown tasks before calling Close. Idempotent; concurrent callers
// block until shutdown completes.
func (p *Poller) Close() error {
	if p.closed.Swap(true) {
		<-p.done
		return nil
	}
	p.Post(func() { p.exiting = true })
	<-p.done
	p.mu.Lock() // no Post may touch the wake pipe once its fds are gone
	p.dead = true
	p.mu.Unlock()
	_ = p.epf.Close() // owns epfd; also deregisters it from the runtime poller
	syscall.Close(p.wakeR)
	syscall.Close(p.wakeW)
	return nil
}

func (p *Poller) nowTick() uint64 {
	return uint64(time.Since(p.start) / p.wheel.Tick())
}

func (p *Poller) loop() {
	defer close(p.done)
	events := make([]syscall.EpollEvent, 128)
	for exit := false; !exit; {
		// Park in the runtime netpoller until the epoll ready list goes
		// non-empty or the wheel deadline expires; every epoll_wait is msec=0
		// (never blocking in a raw syscall). The callback runs once on entry
		// and once per runtime wakeup, and does the whole turn — harvest,
		// tasks, timers — before returning false to park again: re-entering
		// Read would reset the runtime's readiness flag and lose an edge that
		// arrived since the harvest. That flag is what makes one epoll_wait
		// per wakeup enough: a batch shorter than the event buffer emptied
		// the ready list (the drain rule the relays apply to read(2)), and
		// the runtime's edge-triggered nested-epoll subscription reports the
		// next empty→non-empty transition.
		err := p.eprc.Read(func(uintptr) bool {
			// The wheel's clock stood still while the loop was parked: bring
			// it to now first, so a timer a callback arms below is measured
			// from this wakeup and not from the last one.
			p.wheel.Advance(p.nowTick())
			for {
				n, werr := syscall.EpollWait(p.epfd, events, 0)
				if werr == syscall.EINTR {
					continue
				}
				if werr != nil {
					exit = true // EBADF and friends: only plausible mid-shutdown
					break
				}
				p.dispatch(events[:n])
				if n < len(events) {
					break
				}
			}
			exit = p.turn() || exit
			return exit
		})
		if err != nil {
			// The wheel deadline expired (and stays expired until turn sets
			// another) — or epf was closed under us without the closing task
			// having run: exit rather than spin.
			p.armed = ^uint64(0)
			exit = p.turn() || !errors.Is(err, os.ErrDeadlineExceeded)
		}
	}
	p.runTasks() // anything queued by the final batch
	p.closeFDs()
}

// turn runs what follows every harvest — posted tasks, due timers — and
// re-arms the park deadline if the wheel's next expiry moved, then closes the
// fds the turn retired. It reports
// whether Close has asked the loop to exit.
func (p *Poller) turn() bool {
	p.wakeups.Add(1)
	p.runTasks()
	p.wheel.Advance(p.nowTick())
	if d := p.wheel.NextDelay(); d < 0 {
		if p.armed != 0 {
			_ = p.epf.SetReadDeadline(time.Time{})
			p.armed = 0
		}
	} else if at := p.wheel.Now() + uint64(d/p.wheel.Tick()); at != p.armed {
		_ = p.epf.SetReadDeadline(time.Now().Add(d))
		p.armed = at
	}
	p.closeFDs()
	return p.exiting
}

// closeFDs closes what CloseFD collected during the turn.
func (p *Poller) closeFDs() {
	for _, fd := range p.closing {
		_ = syscall.Close(fd)
	}
	p.closing = p.closing[:0]
}

// dispatch routes one batch of events through the loop-owned callback table:
// no lock, no map, no allocation per event.
func (p *Poller) dispatch(events []syscall.EpollEvent) {
	for i := range events {
		fd := int(events[i].Fd)
		if fd == p.wakeR {
			p.drainWake()
			continue
		}
		if fd >= len(p.cbs) || p.cbs[fd] == nil {
			continue // unregistered after the event was queued
		}
		bits := events[i].Events
		errish := bits&uint32(syscall.EPOLLERR|syscall.EPOLLHUP) != 0
		hangup := errish || bits&uint32(syscall.EPOLLRDHUP) != 0
		p.cbs[fd](Event{
			Readable: hangup || bits&uint32(syscall.EPOLLIN) != 0,
			Writable: errish || bits&uint32(syscall.EPOLLOUT) != 0,
			Hangup:   hangup,
		})
	}
}

func (p *Poller) drainWake() {
	var buf [64]byte
	for {
		n, err := syscall.Read(p.wakeR, buf[:])
		if n < len(buf) || err != nil {
			return
		}
	}
}

// runTasks runs the tasks queued when it is called, and only those: a task
// that posts — a pump or an acceptor out of budget reposting itself — waits
// for the next turn, behind a fresh harvest, due timers and deferred closes,
// so no amount of reposting can keep the shard's other connections from
// their events. wakePending is cleared under mu together with taking the
// queue, so a Post that lands after the take always writes a fresh wake
// byte, and that byte is what brings the next turn on at once.
func (p *Poller) runTasks() {
	if !p.wakePending.Load() {
		return
	}
	p.mu.Lock()
	tasks := p.tasks
	p.tasks = nil
	p.wakePending.Store(false)
	p.mu.Unlock()
	for _, fn := range tasks {
		fn()
	}
}
