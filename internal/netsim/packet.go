package netsim

import (
	"time"

	"inbandlb/internal/packet"
)

// Kind classifies simulated packets. The load balancer's estimator never
// reads Kind — it sees only arrival timestamps, matching the paper's
// assumption that LBs have no application or protocol knowledge — but
// endpoints and instrumentation need it.
type Kind uint8

const (
	// KindData is a transport data segment (backlogged-flow workload).
	KindData Kind = iota
	// KindAck is a transport acknowledgment.
	KindAck
	// KindRequest is an application request (request-response workload).
	KindRequest
	// KindResponse is an application response.
	KindResponse
	// KindOpen marks connection establishment (SYN-equivalent).
	KindOpen
	// KindClose marks connection teardown (FIN-equivalent).
	KindClose

	// kindReleased poisons a packet back on its simulator's free list, so a
	// second release or a send after release is caught (see Packet).
	kindReleased Kind = 0xff
)

// String names the kind for traces.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	case KindOpen:
		return "open"
	case KindClose:
		return "close"
	default:
		return "unknown"
	}
}

// Op is the application operation carried by a request, mirroring the
// paper's 50-50 GET/SET memcached mix.
type Op uint8

const (
	// OpNone marks non-application packets.
	OpNone Op = iota
	// OpGet is a read.
	OpGet
	// OpSet is a write.
	OpSet
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	default:
		return "none"
	}
}

// Packet is the unit the simulator moves around.
//
// Endpoints take packets from their simulator's pool (Sim.NewPacket) and
// ownership travels with the packet: a handler owns the packet it is given,
// Link.Send passes ownership on to the link, and whoever consumes the packet
// for good — the endpoint that handled it, or a drop path (link tail-drop,
// load balancer without a backend, server refusal or overflow) — gives it
// back with Sim.ReleasePacket. After that the packet is poisoned: releasing
// it again or sending it panics, and Sim.LivePackets counts packets taken
// and not yet returned, which must reach zero once a run drains. Packets
// built with a composite literal are not pooled; releasing one does
// nothing, so tests and probes may keep and reuse them.
type Packet struct {
	// Flow identifies the connection (client-side 5-tuple for both
	// directions of application traffic; see FlowKey.Reverse for ACKs).
	Flow packet.FlowKey
	// Kind classifies the packet.
	Kind Kind
	// Op is the application operation for request/response packets.
	Op Op
	// Seq is a per-flow sequence number (segment index or request id).
	Seq uint64
	// Key is the application-level routing identifier (e.g. the hash of a
	// memcached key or an HTTP object path) for layer-7 load balancing.
	// Zero means "none"; layer-4 components ignore it.
	Key uint64
	// Size is the wire size in bytes, used for serialization delay.
	Size int
	// SentAt is stamped by the origin endpoint when the packet first
	// enters the network; instrumentation uses it for ground truth.
	SentAt time.Duration
	// ReqSentAt carries, on a response, the SentAt of the request it
	// answers, letting the client compute true response latency.
	ReqSentAt time.Duration
	// ZeroWindow marks a KindAck advertising a closed receive window: the
	// sender's receive buffer is full (e.g. responses arriving faster than
	// the application drains them). Like Kind, the estimator never reads
	// it — only the congestion tracker, which treats it as the TCP
	// window-field transition to zero.
	ZeroWindow bool

	// pooled marks packets taken from Sim.NewPacket.
	pooled bool
}

// NewPacket returns a pooled packet holding v's fields. Its owner gives it
// back with ReleasePacket once the packet is consumed.
func (s *Sim) NewPacket(v Packet) *Packet {
	var p *Packet
	if n := len(s.packets); n > 0 {
		p = s.packets[n-1]
		s.packets = s.packets[:n-1]
	} else {
		p = new(Packet)
	}
	*p = v
	p.pooled = true
	s.livePackets++
	return p
}

// ReleasePacket ends p's life: a pooled packet is poisoned and goes back on
// the free list; a packet not from NewPacket is left alone. Releasing a
// packet twice panics.
func (s *Sim) ReleasePacket(p *Packet) {
	if p.Kind == kindReleased {
		panic("netsim: packet released twice")
	}
	if !p.pooled {
		return
	}
	p.Kind = kindReleased
	s.packets = append(s.packets, p)
	s.livePackets--
}

// LivePackets returns the number of pooled packets taken and not yet
// released: packets in flight, queued or held by an endpoint. After a run
// drains it is zero unless an owner lost a packet.
func (s *Sim) LivePackets() int { return s.livePackets }

// Handler consumes packets delivered by links.
type Handler interface {
	HandlePacket(p *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(*Packet)

// HandlePacket calls f(p).
func (f HandlerFunc) HandlePacket(p *Packet) { f(p) }
