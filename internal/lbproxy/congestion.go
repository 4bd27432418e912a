package lbproxy

import (
	"net"
	"time"
)

// Congestion-signal plumbing: every relayed backend connection is
// registered here while it lives, and a single sampling loop walks the
// registry every CongestionSampleInterval reading TCP_INFO off each socket.
// Retransmission *deltas* (the cumulative counter's growth since the last
// visit) are fed to the controller's transport-distress channel, attributed
// to the connection's backend and striped by its flow hash — exactly the
// shape the simulated packet tracker produces, so the detector downstream
// cannot tell live evidence from simulated.
//
// The loop owns all entry mutation under congMu; syscalls happen outside
// the lock so a slow socket never stalls registration. An entry whose
// sample fails (connection closed, wrapped, or TCP_INFO latched broken) is
// dropped.
//
// That registry serves the goroutine relay. On the event relay a backend
// socket is an fd its shard's loop owns: the npRelay carries its own
// congEntry and the shard samples its live relays from a wheel timer
// (npShard.congTick), with no registry and no lock.

// congEntry is one registered backend connection.
type congEntry struct {
	backend int
	hash    uint64
	// lastRetrans is the cumulative tcpi_total_retrans at the previous
	// visit; primed flips after the first successful sample so a pooled
	// connection's pre-registration history is never charged.
	lastRetrans uint32
	primed      bool
}

// congRegister enrolls a backend connection for sampling. No-op unless
// congestion signals are enabled.
func (p *Proxy) congRegister(server net.Conn, backend int, hash uint64) {
	if p.cong == nil {
		return
	}
	p.congMu.Lock()
	p.cong[server] = &congEntry{backend: backend, hash: hash}
	p.congMu.Unlock()
}

// congFinal takes one last sample and removes the connection from the
// registry; both relays' teardown calls it so a burst of retransmissions in
// the final sampling window is still attributed.
func (p *Proxy) congFinal(server net.Conn) {
	if p.cong == nil {
		return
	}
	total, _, ok := sampleTCPInfo(server)
	p.congMu.Lock()
	e, present := p.cong[server]
	delete(p.cong, server)
	if present && ok {
		p.congCharge(e, total)
	}
	p.congMu.Unlock()
}

// congCharge folds one cumulative reading into an entry, forwarding the
// growth to the controller. For a registry entry it is called with congMu
// held — the lock serializes the sampling loop against congFinal racing the
// same entry; a relay's own entry is touched by its loop alone. The
// controller's congestion channel shards under its own locks and never
// takes congMu, so the ordering is acyclic.
func (p *Proxy) congCharge(e *congEntry, total uint32) {
	p.congSamples.Add(1)
	if !e.primed {
		e.primed = true
		e.lastRetrans = total
		return
	}
	if delta := total - e.lastRetrans; delta > 0 {
		e.lastRetrans = total
		p.congRetrans.Add(uint64(delta))
		p.ctrl.ObserveCongestion(e.hash, e.backend, int(delta), 0, 0)
	}
}

// congLoop samples every registered connection once per
// CongestionSampleInterval until the proxy closes.
func (p *Proxy) congLoop() {
	t := time.NewTicker(p.cfg.CongestionSampleInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.congSweep()
		}
	}
}

// congSweep is one pass over the registry. The conn set is snapshotted
// under the lock, the syscalls run outside it, and each result is folded
// back in only if the entry is still registered — congFinal may have raced
// the sample and already charged the final reading.
func (p *Proxy) congSweep() {
	p.congMu.Lock()
	conns := make([]net.Conn, 0, len(p.cong))
	for c := range p.cong {
		conns = append(conns, c)
	}
	p.congMu.Unlock()

	for _, c := range conns {
		total, _, ok := sampleTCPInfo(c)
		p.congMu.Lock()
		e, present := p.cong[c]
		switch {
		case !ok:
			// Closed, wrapped, or TCP_INFO broken: stop tracking.
			delete(p.cong, c)
		case present:
			p.congCharge(e, total)
		}
		p.congMu.Unlock()
	}
}
