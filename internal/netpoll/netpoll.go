// Package netpoll provides sharded edge-triggered epoll(7) event loops for
// the proxy's dataplane. One Poller per acceptor shard owns every
// connection the shard admits: registered fds deliver readiness callbacks on
// the poller's single loop goroutine, and a hierarchical timing wheel owned
// by the loop carries every per-connection deadline.
//
// The Poller is Linux-only and uses raw epoll_create1/epoll_ctl/epoll_wait
// via the stdlib syscall package (no x/sys dependency). When the kernel
// reports ENOSYS — latched process-wide — New returns ErrUnsupported. The
// timing wheel is portable.
//
// Concurrency contract: Post, Stats, and Close are safe from any goroutine.
// Readiness callbacks, posted tasks, and timer callbacks all run on the loop
// goroutine, serialized — state touched only from callbacks needs no locks.
// Register, Unregister, CloseFD and the timer methods (AfterFunc, StopTimer,
// ResetTimer) must be called from the loop goroutine (Post gets you there):
// the callback table and the wheel are loop-owned, which is what keeps event
// dispatch free of locks.
package netpoll

import (
	"errors"
	"time"
)

// ErrUnsupported is returned by New when this kernel has no epoll support.
var ErrUnsupported = errors.New("netpoll: not supported on this platform")

// Event describes readiness for a registered fd. Error and hangup conditions
// set both Readable and Writable so the owner's pumps run and surface the
// error from the syscall itself.
type Event struct {
	Readable bool
	Writable bool
	// Hangup reports EPOLLRDHUP, EPOLLHUP or EPOLLERR: the peer has sent its
	// FIN (or a reset). An owner that stops reading at the first short read —
	// edge-triggered epoll guarantees a short read drained the socket — must
	// keep reading to EOF once it has seen Hangup: a FIN queued together with
	// the last bytes raises no further edge.
	Hangup bool
}

// Stats is a snapshot of one poller's counters.
type Stats struct {
	Wakeups    uint64 // epoll_wait returns (incl. timer and posted-task wakes)
	TimerFires uint64 // timing-wheel callbacks run
	Registered int64  // fds currently registered
}

// Config tunes a Poller. The zero value is ready to use.
type Config struct {
	// Tick is the timing-wheel granularity. Zero means 1ms.
	Tick time.Duration
}
