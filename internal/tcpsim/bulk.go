// Package tcpsim models flow-controlled endpoints on top of the netsim
// event loop. These are the traffic sources whose timing structure the
// paper's estimator exploits: window-limited senders pause when their flow
// control quota is exhausted and resume when a reception re-opens it, so
// every resumed transmission is causally triggered by traffic from the
// other side.
//
// Two endpoint pairs are provided:
//
//   - BulkSender/AckSink: a backlogged, window-limited data flow with
//     ACK-clocked transmissions (the Fig. 2 workload).
//   - RequestClient (see request.go) paired with a server.Server: a
//     request-response client with a concurrency limit, think time, and
//     connection close/reopen behaviour (the memtier-like Fig. 3 workload).
//
// Both expose the timing-violation knobs from the paper's open question 2:
// delayed ACKs, packet pacing, and application-limited sending.
package tcpsim

import (
	"time"

	"inbandlb/internal/netsim"
	"inbandlb/internal/packet"
	"inbandlb/internal/stats"
)

// BulkConfig parameterizes a backlogged window-limited flow.
type BulkConfig struct {
	// Flow is the connection 5-tuple (client is the source).
	Flow packet.FlowKey
	// Window is the flow-control quota in segments. The sender never has
	// more than Window unacknowledged segments outstanding.
	Window int
	// SegSize is the wire size of a data segment in bytes.
	SegSize int
	// MaxSegments ends the flow after this many segments (0 = unbounded),
	// modelling short-lived transfers.
	MaxSegments uint64
	// Pacing, when positive, enforces a minimum spacing between segment
	// transmissions (a timing violation for the estimator: it stretches
	// batches and blurs inter-batch gaps).
	Pacing time.Duration
	// AppLimitedOn/AppLimitedOff, when both positive, gate sending with
	// an on/off application pattern: the sender goes idle for
	// AppLimitedOff after every AppLimitedOn of activity even when the
	// window would allow more (another timing violation).
	AppLimitedOn  time.Duration
	AppLimitedOff time.Duration
	// HiccupProb, when positive, stalls the client for a random
	// [HiccupMin, HiccupMax) with this probability per ACK — the scheduling/GC hiccups (§2.2) that give real traces
	// their occasional long pauses.
	HiccupProb float64
	HiccupMin  time.Duration
	HiccupMax  time.Duration
}

// BulkStats summarizes a bulk flow from the client's view.
type BulkStats struct {
	SegmentsSent uint64
	AcksReceived uint64
	// RTT is the client-measured ground truth: segment send to ACK receipt.
	RTT *stats.Histogram
}

// BulkSender is the client half of a backlogged flow. Data segments go out
// through the configured output (toward the LB); ACKs arrive at
// HandlePacket directly from the receiver (DSR — they do not cross the LB).
type BulkSender struct {
	sim *netsim.Sim
	cfg BulkConfig
	out func(*netsim.Packet)

	inflight     int
	nextSeq      uint64
	firstUnacked uint64
	lastSend     time.Duration
	sendTimes    map[uint64]time.Duration
	stats        BulkStats

	// GroundTruth, when set, receives every client-measured RTT sample.
	GroundTruth func(now, rtt time.Duration)

	onUntil    time.Duration // end of current app-limited on-period
	offUntil   time.Duration // end of current app-limited off-period
	stallUntil time.Duration // end of the current hiccup stall
	sending    bool          // a send is already scheduled
	started    bool
}

// NewBulkSender creates the sender; out carries segments toward the LB.
func NewBulkSender(sim *netsim.Sim, cfg BulkConfig, out func(*netsim.Packet)) *BulkSender {
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.SegSize <= 0 {
		cfg.SegSize = 1500
	}
	return &BulkSender{
		sim:       sim,
		cfg:       cfg,
		out:       out,
		sendTimes: make(map[uint64]time.Duration),
		stats:     BulkStats{RTT: stats.NewDefaultHistogram()},
	}
}

// Stats returns the flow counters (the RTT histogram is shared, not copied).
func (b *BulkSender) Stats() BulkStats { return b.stats }

// Done reports whether a bounded flow (MaxSegments > 0) has sent everything
// and had it acknowledged.
func (b *BulkSender) Done() bool {
	return b.cfg.MaxSegments > 0 && b.nextSeq >= b.cfg.MaxSegments && b.inflight == 0
}

// Start begins transmitting at the current virtual time.
func (b *BulkSender) Start() {
	if b.started {
		return
	}
	b.started = true
	if b.cfg.AppLimitedOn > 0 && b.cfg.AppLimitedOff > 0 {
		b.onUntil = b.sim.Now() + b.cfg.AppLimitedOn
	}
	b.pump()
}

// pump schedules the next segment transmission if the window, pacing, and
// application pattern allow it.
func (b *BulkSender) pump() {
	if b.sending || b.inflight >= b.cfg.Window {
		return
	}
	if b.cfg.MaxSegments > 0 && b.nextSeq >= b.cfg.MaxSegments {
		return // flow complete
	}
	now := b.sim.Now()
	at := now
	if at < b.stallUntil {
		at = b.stallUntil // a hiccup froze the whole client process
	}
	if b.cfg.Pacing > 0 && b.lastSend+b.cfg.Pacing > at && b.stats.SegmentsSent > 0 {
		at = b.lastSend + b.cfg.Pacing
	}
	if b.cfg.AppLimitedOn > 0 && b.cfg.AppLimitedOff > 0 {
		at = b.appGate(at)
	}
	b.sending = true
	b.sim.Schedule(at, func() {
		b.sending = false
		if b.inflight >= b.cfg.Window {
			return
		}
		b.sendSegment()
		b.pump()
	})
}

// appGate defers at into the next on-period if it falls in an off-period,
// advancing the on/off phase bookkeeping as time passes.
func (b *BulkSender) appGate(at time.Duration) time.Duration {
	for {
		if at < b.onUntil {
			return at
		}
		if b.offUntil <= b.onUntil {
			b.offUntil = b.onUntil + b.cfg.AppLimitedOff
		}
		if at < b.offUntil {
			at = b.offUntil
		}
		b.onUntil = b.offUntil + b.cfg.AppLimitedOn
	}
}

func (b *BulkSender) sendSegment() {
	now := b.sim.Now()
	seq := b.nextSeq
	b.nextSeq++
	b.inflight++
	b.lastSend = now
	b.sendTimes[seq] = now
	b.stats.SegmentsSent++
	b.out(&netsim.Packet{
		Flow:   b.cfg.Flow,
		Kind:   netsim.KindData,
		Seq:    seq,
		Size:   b.cfg.SegSize,
		SentAt: now,
	})
}

// HandlePacket receives ACKs from the far end. Each ACK may cover several
// segments (delayed ACKs); every covered segment releases window.
func (b *BulkSender) HandlePacket(p *netsim.Packet) {
	if p.Kind != netsim.KindAck {
		return
	}
	now := b.sim.Now()
	// An ACK with Seq = s acknowledges all segments up to and including s.
	// Walk in ascending sequence order so ground-truth callbacks fire
	// deterministically.
	for seq := b.firstUnacked; seq <= p.Seq; seq++ {
		sentAt, ok := b.sendTimes[seq]
		if !ok {
			continue
		}
		rtt := now - sentAt
		b.stats.RTT.Record(rtt)
		if b.GroundTruth != nil {
			b.GroundTruth(now, rtt)
		}
		delete(b.sendTimes, seq)
		b.inflight--
		b.stats.AcksReceived++
	}
	if p.Seq+1 > b.firstUnacked {
		b.firstUnacked = p.Seq + 1
	}
	if b.inflight < b.cfg.Window {
		// The triggered transmission: the reception re-opened the quota.
		if b.cfg.HiccupProb > 0 && b.sim.Rand().Float64() < b.cfg.HiccupProb {
			// A scheduling hiccup freezes the whole client process: no
			// sends until it ends, regardless of further receptions.
			span := b.cfg.HiccupMax - b.cfg.HiccupMin
			extra := b.cfg.HiccupMin
			if span > 0 {
				extra += time.Duration(b.sim.Rand().Int63n(int64(span)))
			}
			if until := now + extra; until > b.stallUntil {
				b.stallUntil = until
			}
		}
		b.pump()
	}
}

// AckSinkConfig parameterizes the receiving half of a bulk flow.
type AckSinkConfig struct {
	// DelayedAckCount, when > 1, ACKs only every Nth segment
	// (the classic delayed-ACK timing violation)...
	DelayedAckCount int
	// DelayedAckTimeout flushes a pending delayed ACK after this long,
	// bounding the violation like a real stack's 40 ms timer.
	DelayedAckTimeout time.Duration
}

// ackSize is the wire size of an ACK in bytes.
const ackSize = 64

// AckSink is the server half of a bulk flow: it acknowledges received data
// segments through its output, which the topology wires directly to the
// client (DSR — the LB never sees these).
type AckSink struct {
	sim *netsim.Sim
	cfg AckSinkConfig
	out func(*netsim.Packet)

	received   uint64
	highestSeq uint64
	pending    int  // segments received since last ACK
	haveSeq    bool // highestSeq is valid
	flushAt    time.Duration
	timerSet   bool
}

// NewAckSink creates the receiver; out carries ACKs back to the client.
func NewAckSink(sim *netsim.Sim, cfg AckSinkConfig, out func(*netsim.Packet)) *AckSink {
	if cfg.DelayedAckCount < 1 {
		cfg.DelayedAckCount = 1
	}
	if cfg.DelayedAckTimeout <= 0 {
		cfg.DelayedAckTimeout = 40 * time.Millisecond
	}
	return &AckSink{sim: sim, cfg: cfg, out: out}
}

// Received returns the number of data segments consumed.
func (a *AckSink) Received() uint64 { return a.received }

// HandlePacket implements netsim.Handler for data segments.
func (a *AckSink) HandlePacket(p *netsim.Packet) {
	if p.Kind != netsim.KindData {
		return
	}
	a.received++
	if !a.haveSeq || p.Seq > a.highestSeq {
		a.highestSeq = p.Seq
		a.haveSeq = true
	}
	a.pending++
	if a.pending >= a.cfg.DelayedAckCount {
		a.sendAck(p.Flow)
		return
	}
	// Arm the delayed-ACK timer for the first unacknowledged segment.
	if !a.timerSet {
		a.timerSet = true
		a.flushAt = a.sim.Now() + a.cfg.DelayedAckTimeout
		flow := p.Flow
		a.sim.Schedule(a.flushAt, func() {
			a.timerSet = false
			if a.pending > 0 {
				a.sendAck(flow)
			}
		})
	}
}

func (a *AckSink) sendAck(flow packet.FlowKey) {
	a.pending = 0
	a.out(&netsim.Packet{
		Flow:   flow, // ACKs carry the client-side flow key; direction is implied by the path
		Kind:   netsim.KindAck,
		Seq:    a.highestSeq,
		Size:   ackSize,
		SentAt: a.sim.Now(),
	})
}
