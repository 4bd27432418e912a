//go:build linux

package lbproxy

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
)

// Zero-copy relay: a burst that overflows the shard's read buffer moves
// socket→pipe→socket with splice(2), so its payload never crosses into
// userspace. The estimator still gets its per-arrival timestamps — each
// splice off the source socket is one observation — it just stops paying a
// memcpy for them. Each shard keeps one pipe (see netpoll_linux.go); this
// file holds the pipe pool behind it and the process-wide latch.
//
// The first splice(2) failure with ENOSYS/EPERM (container seccomp filters)
// flips that latch and every relay stays on the read+write path; an
// EINVAL-class refusal on a stream that has moved nothing switches just that
// direction. The read side consumes nothing in either case, so the copy path
// takes over from a clean stream.

const (
	// spliceChunk is the per-call byte budget. The kernel moves at most
	// the pipe's free space; asking for more costs nothing.
	spliceChunk = 1 << 20
	// pipeCapacity is requested via F_SETPIPE_SZ so one splice can move
	// multiples of the default 64 KiB pipe. Best effort: unprivileged
	// processes are capped by /proc/sys/fs/pipe-max-size.
	pipeCapacity = 256 << 10
	fSetPipeSz   = 1031 // F_SETPIPE_SZ (not exported by package syscall)

	// SPLICE_F_MOVE | SPLICE_F_NONBLOCK (package syscall exports the
	// splice syscall but not its flag constants).
	spliceFlags = 0x1 | 0x2
)

// spliceBroken latches once splice(2) proves unusable in this process;
// every subsequent relay takes the copy path without retrying the syscall.
var spliceBroken atomic.Bool

// spliceAvailable reports whether the zero-copy path is worth attempting.
func spliceAvailable() bool { return !spliceBroken.Load() }

// spipe is a pooled kernel pipe pair. The finalizer closes the fds when
// the GC drops a pooled entry (sync.Pool sheds under memory pressure), so
// pipe fds can never leak.
type spipe struct {
	r, w int
}

// pipesCreated counts pipe allocations; TestNetpollLoopOwnedResources
// asserts it stays flat across steady-state relay cycles.
var pipesCreated atomic.Uint64

var pipePool = sync.Pool{
	New: func() any {
		var fds [2]int
		if err := syscall.Pipe2(fds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
			return (*spipe)(nil)
		}
		// Enlarge best-effort; the default 64 KiB pipe still works.
		_, _, _ = syscall.Syscall(syscall.SYS_FCNTL, uintptr(fds[0]), fSetPipeSz, uintptr(pipeCapacity))
		pipesCreated.Add(1)
		sp := &spipe{r: fds[0], w: fds[1]}
		runtime.SetFinalizer(sp, (*spipe).destroy)
		return sp
	},
}

func getPipe() *spipe {
	sp, _ := pipePool.Get().(*spipe)
	return sp // nil if Pipe2 failed (fd exhaustion): caller falls back
}

func putPipe(sp *spipe) { pipePool.Put(sp) }

// destroy closes the pipe fds; used for teardown with undrained bytes and
// as the GC finalizer. Idempotent via the fd sentinel.
func (sp *spipe) destroy() {
	if sp == nil || sp.r < 0 {
		return
	}
	runtime.SetFinalizer(sp, nil)
	_ = syscall.Close(sp.r)
	_ = syscall.Close(sp.w)
	sp.r, sp.w = -1, -1
}

// spliceFallbackErrno reports whether an errno from the first-ever splice
// on a stream means "unsupported here" rather than "stream failed".
func spliceFallbackErrno(err error) bool {
	return err == syscall.EINVAL || err == syscall.ENOSYS ||
		err == syscall.EPERM || err == syscall.EOPNOTSUPP
}
