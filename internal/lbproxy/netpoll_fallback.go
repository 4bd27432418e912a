//go:build !linux

package lbproxy

import (
	"net"
	"time"

	"inbandlb/internal/netpoll"
	"inbandlb/internal/packet"
)

// Non-Linux builds have no epoll: Config.Netpoll is accepted but inert, and
// every connection is admitted and relayed by goroutines. This mirrors
// splice_fallback.go's shape so shared code compiles everywhere.

type npShard struct{}

func (p *Proxy) netpollInit() error { return netpoll.ErrUnsupported }

func (p *Proxy) netpollAdopt([]net.Listener) error { return netpoll.ErrUnsupported }

func (p *Proxy) netpollStart() error { return nil }

func (p *Proxy) netpollStopAccept() {}

func (p *Proxy) netpollStop() {}

func (p *Proxy) netpollStats() []NetpollShardStats { return nil }

func (p *Proxy) netpollHandoff(client, server net.Conn, backend, acceptor int,
	hash uint64, key packet.FlowKey, charged, fromPool bool, born time.Time) bool {
	return false
}
