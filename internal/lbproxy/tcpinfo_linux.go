//go:build linux

package lbproxy

import (
	"sync/atomic"
	"syscall"
	"unsafe"

	"inbandlb/internal/netpoll/rawsys"
)

// Live transport-distress sampling: the kernel already runs the congestion
// detector we built for the simulator — every retransmission it performs on
// a backend connection is the same in-band evidence the packet tracker
// mines from a simulated stream. TCP_INFO exposes the running total (and
// the smoothed RTT) per socket, so the proxy can read real congestion off
// its relay fds without touching payload bytes or adding any per-chunk
// work: one getsockopt per connection per sampling tick, from each shard's
// wheel over the backend sockets its loop owns (npShard.congTick).
// Retransmission *deltas* (the cumulative counter's growth since the last
// visit) are fed to the controller's transport-distress channel, attributed
// to the connection's backend on its shard's aggregator stripe — exactly the
// shape the simulated packet tracker produces, so the detector downstream
// cannot tell live evidence from simulated.
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

// tcpInfoFD reads the cumulative retransmission count and smoothed RTT off
// one socket the caller owns. ok is false when the read fails (a closed or
// non-TCP descriptor) or TCP_INFO is latched broken.
func tcpInfoFD(fd int) (totalRetrans, rttMicros uint32, ok bool) {
	if !tcpInfoAvailable() {
		return 0, 0, false
	}
	var buf [256]byte
	optlen, err := rawsys.Getsockopt(fd, syscall.IPPROTO_TCP, syscall.TCP_INFO, buf[:])
	if err != nil {
		if err == syscall.ENOPROTOOPT || err == syscall.EINVAL || err == syscall.ENOSYS {
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

// congEntry is one backend socket's sampling state.
type congEntry struct {
	backend int
	// lastRetrans is the cumulative tcpi_total_retrans at the previous
	// visit; primed flips after the first successful sample so a pooled
	// connection's history before this relay is never counted.
	lastRetrans uint32
	primed      bool
}

// congCharge folds one cumulative reading into an entry, forwarding the
// growth to the controller's aggregator stripe. An entry belongs to its
// relay's loop alone.
func (p *Proxy) congCharge(e *congEntry, stripe uint64, total uint32) {
	p.congSamples.Add(1)
	if !e.primed {
		e.primed = true
		e.lastRetrans = total
		return
	}
	if delta := total - e.lastRetrans; delta > 0 {
		e.lastRetrans = total
		p.congRetrans.Add(uint64(delta))
		p.ctrl.ObserveCongestion(stripe, e.backend, int(delta), 0, 0)
	}
}
