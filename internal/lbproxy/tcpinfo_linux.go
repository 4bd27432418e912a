//go:build linux

package lbproxy

import (
	"net"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Live transport-distress sampling: the kernel already runs the congestion
// detector we built for the simulator — every retransmission it performs on
// a backend connection is the same in-band evidence the packet tracker
// mines from a simulated stream. TCP_INFO exposes the running total (and
// the smoothed RTT) per socket, so the proxy can read real congestion off
// its relay fds without touching payload bytes or adding any per-chunk
// work: one getsockopt per connection per sampling tick.
//
// Only two fields are needed, both at fixed offsets in struct tcp_info
// since Linux 2.6 (the struct only ever grows at the tail):
//
//	tcpi_rtt           u32 @ byte 68  (smoothed RTT, microseconds)
//	tcpi_total_retrans u32 @ byte 100 (cumulative retransmitted segments)
//
// so the buffer is parsed directly instead of mirroring the full struct.

const (
	// tcpInfoLen must cover through tcpi_total_retrans. Kernels return
	// their full (longer) struct; anything shorter is treated as unusable.
	tcpInfoLen = 104

	tcpInfoRTTOff     = 68
	tcpInfoRetransOff = 100
)

// tcpInfoBroken latches once TCP_INFO proves unusable in this process
// (seccomp filters, exotic socket types); every subsequent sample becomes a
// no-op without retrying the syscall — the same pattern as spliceBroken.
var tcpInfoBroken atomic.Bool

// tcpInfoAvailable reports whether sampling is worth attempting.
func tcpInfoAvailable() bool { return !tcpInfoBroken.Load() }

// sampleTCPInfo reads the cumulative retransmission count and smoothed RTT
// off one backend connection. ok is false when the connection is closed,
// is not a raw TCP socket (chaos wrappers, test pipes), or TCP_INFO is
// latched broken.
func sampleTCPInfo(c net.Conn) (totalRetrans, rttMicros uint32, ok bool) {
	sc, isSC := c.(syscall.Conn)
	if !isSC {
		return 0, 0, false
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return 0, 0, false
	}
	// A Control error means the connection is already closed.
	_ = raw.Control(func(fd uintptr) { totalRetrans, rttMicros, ok = tcpInfoFD(int(fd)) })
	return totalRetrans, rttMicros, ok
}

// tcpInfoFD is sampleTCPInfo on a descriptor the caller owns — the event
// relay's backend sockets.
func tcpInfoFD(fd int) (totalRetrans, rttMicros uint32, ok bool) {
	if !tcpInfoAvailable() {
		return 0, 0, false
	}
	var buf [256]byte
	optlen := uint32(len(buf))
	_, _, errno := syscall.Syscall6(syscall.SYS_GETSOCKOPT, uintptr(fd),
		uintptr(syscall.IPPROTO_TCP), uintptr(syscall.TCP_INFO),
		uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&optlen)), 0)
	if errno != 0 {
		if errno == syscall.ENOPROTOOPT || errno == syscall.EINVAL || errno == syscall.ENOSYS {
			tcpInfoBroken.Store(true)
		}
		return 0, 0, false
	}
	if optlen < tcpInfoLen {
		// A kernel too old to report total_retrans: nothing to sample, ever.
		tcpInfoBroken.Store(true)
		return 0, 0, false
	}
	// The kernel writes native-endian into our buffer; read in place.
	totalRetrans = *(*uint32)(unsafe.Pointer(&buf[tcpInfoRetransOff]))
	rttMicros = *(*uint32)(unsafe.Pointer(&buf[tcpInfoRTTOff]))
	return totalRetrans, rttMicros, true
}
