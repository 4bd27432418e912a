//go:build !linux

package lbproxy

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"inbandlb/internal/core"
)

// Off Linux there is no event loop. One goroutine accepts; each connection
// gets a goroutine that routes it, dials with the one failover (through
// dialFailed, as on Linux), and relays it with two plain copy loops — the
// request direction observing every read, the response direction blind —
// keeping the Accepted identity. There is no dial pool, no splice and no
// congestion sampling, and Config.Acceptors is ignored: this keeps the
// package portable, it is not a measured dataplane.

type dataplane struct {
	listener net.Listener
	acceptor sync.WaitGroup
	mu       sync.Mutex
	open     map[net.Conn]struct{} // what Close force-closes; nil once it has
}

func (p *Proxy) initDataplane() error {
	p.open = make(map[net.Conn]struct{})
	return nil
}

func listenShards(addr string, _ int) ([]net.Listener, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return []net.Listener{lis}, nil
}

func (p *Proxy) adopt(ls []net.Listener) error {
	p.listener = ls[0]
	return nil
}

func (p *Proxy) netpollStats() []NetpollShardStats { return nil }

// serve accepts until Close. Any other accept error is counted and retried
// after a 5 ms→1 s backoff.
func (p *Proxy) serve() error {
	p.acceptor.Add(1)
	defer p.acceptor.Done()
	var backoff time.Duration
	for {
		c, err := p.listener.Accept()
		switch {
		case p.closed.Load():
			if c != nil {
				_ = c.Close()
			}
			return nil
		case errors.Is(err, net.ErrClosed):
			return err
		case err != nil:
			p.acceptErrors.Add(1)
			backoff = nextAcceptBackoff(backoff)
			select {
			case <-p.stop:
				return nil
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		p.accepted.Add(1)
		p.relays.Add(1)
		p.track(c)
		go p.relay(c)
	}
}

func (p *Proxy) stopAccepting() {
	if p.listener != nil {
		_ = p.listener.Close()
	}
	p.acceptor.Wait()
}

func (p *Proxy) stopRelays() {
	p.mu.Lock()
	for c := range p.open {
		_ = c.Close()
	}
	p.open = nil
	p.mu.Unlock()
	p.relays.Wait()
}

// track adds c to the set Close force-closes, or closes it if Close already
// swept that set.
func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open == nil {
		_ = c.Close()
		return
	}
	p.open[c] = struct{}{}
}

func (p *Proxy) retire(c net.Conn) {
	p.mu.Lock()
	delete(p.open, c)
	p.mu.Unlock()
	_ = c.Close()
}

// relay routes, connects and relays one accepted connection.
func (p *Proxy) relay(client net.Conn) {
	defer p.relays.Done()
	defer p.retire(client)
	key := flowKeyFor(client)
	backend := p.route(key)
	if backend < 0 {
		return // Dropped
	}
	defer func() { p.openFlows[backend].Add(-1) }()
	var server net.Conn
	for failover := false; server == nil; failover = true {
		p.connecting.Add(1)
		c, err := net.DialTimeout("tcp", p.cfg.Backends[backend], p.cfg.DialTimeout)
		p.connecting.Add(-1)
		if err == nil {
			server = c
			if failover {
				p.failovers.Add(1)
			}
			break
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			p.connectTimeouts.Add(1)
		}
		alt := p.dialFailed(backend, 0, failover)
		if alt < 0 {
			p.dialErrors.Add(1)
			return
		}
		backend = alt
	}
	p.track(server)
	p.ctrl.ObserveConn(0, backend, true)
	p.perBackend[backend].Add(1)
	p.active.Add(1)

	// copyDir relays src→dst until EOF or error; the request direction,
	// which runs on this goroutine, timestamps every read into est (one
	// aggregator stripe: there is one acceptor). A clean EOF is forwarded as
	// a half-close and the other direction finishes on its own; any other
	// end closes both sockets so the other direction unblocks too.
	// Backend-side failures go to the passive detector.
	var est core.FlowEstimator
	copyDir := func(dst, src net.Conn, request bool) {
		buf := make([]byte, relayBufferSize)
		for {
			if p.cfg.IdleTimeout > 0 {
				_ = src.SetReadDeadline(time.Now().Add(p.cfg.IdleTimeout))
			}
			n, err := src.Read(buf)
			p.sysReads.Add(1)
			if n > 0 {
				if request {
					p.observe(&est, 0, backend, p.now())
				}
				p.sysWrites.Add(1)
				if _, werr := dst.Write(buf[:n]); werr != nil {
					if request {
						p.reportRelayErr(backend, 0, werr)
					}
					break
				}
			}
			if tc, ok := dst.(*net.TCPConn); ok && err == io.EOF {
				_ = tc.CloseWrite()
				return
			}
			if err != nil {
				if !request {
					p.reportRelayErr(backend, 0, err)
				}
				break
			}
		}
		_ = src.Close()
		_ = dst.Close()
	}
	done := make(chan struct{})
	go func() {
		copyDir(client, server, false)
		close(done)
	}()
	copyDir(server, client, true)
	<-done

	p.retire(server)
	p.forget(&est)
	p.active.Add(-1)
}
