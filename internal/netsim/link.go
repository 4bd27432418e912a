package netsim

import (
	"time"
)

// LinkStats are cumulative counters for one link.
type LinkStats struct {
	Sent      uint64 // packets accepted for transmission
	Delivered uint64 // packets handed to the destination
	Dropped   uint64 // packets dropped at the queue
	Bytes     uint64 // bytes delivered
}

// Link is a unidirectional point-to-point link: a FIFO transmission queue
// drained at Rate bytes/second, followed by a fixed propagation delay and
// any injected extra delay. A Rate of zero models an infinitely fast link
// (propagation delay only).
type Link struct {
	sim  *Sim
	name string

	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Rate is the line rate in bytes per second (0 = infinite).
	Rate float64
	// QueueLimit bounds packets waiting for transmission (0 = unlimited).
	// Packets arriving at a full queue are dropped (tail drop). The limit
	// counts only packets sent while it is set — an unbounded link keeps no
	// queue count — so set it before the run starts.
	QueueLimit int

	dst       Handler
	busyUntil time.Duration // when the transmitter frees up
	queued    int           // packets sent under QueueLimit waiting to start transmission
	stats     LinkStats

	// dequeue is the shared "transmission started" callback of a bounded
	// link; allocated once so Send schedules it without constructing a
	// closure per packet.
	dequeue func()
	// free recycles delivery events (each owns a preallocated closure), so
	// a packet in flight costs no allocation in steady state. Bounded by
	// the peak number of packets concurrently in flight on this link.
	free []*delivery

	// extraDelay, when set, adds delay to each packet's arrival; this is
	// the injection point used to reproduce the paper's "1 ms delay
	// inserted on the LB→server path at t = 100 s".
	extraDelay func(now time.Duration) time.Duration

	// jitter, when set, adds a per-packet random delay component.
	jitter func() time.Duration

	// rateAt, when set, overrides Rate per packet: a positive return is the
	// line rate in bytes/second in force at that instant, <= 0 falls back
	// to Rate. This is the injection point for bandwidth-collapse faults
	// (faults.Collapse implements the matching schedule shape).
	rateAt func(now time.Duration) float64
}

// NewLink creates a link delivering to dst.
func NewLink(sim *Sim, name string, delay time.Duration, rate float64, dst Handler) *Link {
	if sim == nil {
		panic("netsim: link requires a simulator")
	}
	if dst == nil {
		panic("netsim: link requires a destination handler")
	}
	if delay < 0 {
		panic("netsim: negative link delay")
	}
	if rate < 0 {
		panic("netsim: negative link rate")
	}
	l := &Link{sim: sim, name: name, Delay: delay, Rate: rate, dst: dst}
	l.dequeue = func() { l.queued-- }
	return l
}

// delivery is a reusable arrival event: one packet riding the link toward
// its handler. The closure is built once, when the delivery is first
// allocated, and the struct is recycled through Link.free afterwards.
type delivery struct {
	l  *Link
	p  *Packet
	fn func()
}

// newDelivery takes a recycled delivery or builds one.
func (l *Link) newDelivery(p *Packet) *delivery {
	var d *delivery
	if n := len(l.free); n > 0 {
		d = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		d = &delivery{l: l}
		d.fn = func() {
			pk := d.p
			if pk.Kind == kindReleased {
				panic("netsim: packet released while in flight on " + d.l.name)
			}
			// Recycle before dispatch: the handler may immediately Send
			// again on this link and reuse d for the next packet.
			d.p = nil
			d.l.free = append(d.l.free, d)
			d.l.stats.Delivered++
			d.l.stats.Bytes += uint64(pk.Size)
			d.l.dst.HandlePacket(pk)
		}
	}
	d.p = p
	return d
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Stats returns a copy of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// SetExtraDelay installs a time-varying additional delay (nil clears it).
func (l *Link) SetExtraDelay(fn func(now time.Duration) time.Duration) {
	l.extraDelay = fn
}

// SetJitter installs a per-packet random delay source (nil clears it).
func (l *Link) SetJitter(fn func() time.Duration) {
	l.jitter = fn
}

// SetRateAt installs a time-varying line-rate override (nil clears it).
// The override applies to packets at the instant they are enqueued; a
// collapse window therefore serializes every packet sent inside it at the
// collapsed rate, and the backlog drains at the restored rate afterwards.
func (l *Link) SetRateAt(fn func(now time.Duration) float64) {
	l.rateAt = fn
}

// Send enqueues p for transmission at the current virtual time and takes
// ownership of it: the destination handler owns it on delivery, and a
// tail-dropped packet is released here. Sending a released packet panics.
// Delivery is FIFO while the injected extra delay and jitter are constant;
// a decreasing extra delay can reorder packets across the change, just as
// real route-change reordering would.
func (l *Link) Send(p *Packet) {
	if p.Kind == kindReleased {
		panic("netsim: released packet sent on " + l.name)
	}
	now := l.sim.Now()
	bounded := l.QueueLimit > 0
	if bounded && l.queued >= l.QueueLimit {
		l.stats.Dropped++
		l.sim.ReleasePacket(p)
		return
	}
	l.stats.Sent++

	start := l.busyUntil
	if start < now {
		start = now
	}
	rate := l.Rate
	if l.rateAt != nil {
		if r := l.rateAt(now); r > 0 {
			rate = r
		}
	}
	var tx time.Duration
	if rate > 0 {
		tx = time.Duration(float64(p.Size) / rate * float64(time.Second))
	}
	l.busyUntil = start + tx

	// The packet leaves the queue when its transmission begins. Only a
	// bounded link reads the queue length, so only it pays for the event.
	if bounded {
		l.queued++
		l.sim.Schedule(start, l.dequeue)
	}

	arrival := l.busyUntil + l.Delay
	if l.extraDelay != nil {
		arrival += l.extraDelay(now)
	}
	if l.jitter != nil {
		j := l.jitter()
		if j > 0 {
			arrival += j
		}
	}
	l.sim.Schedule(arrival, l.newDelivery(p).fn)
}
