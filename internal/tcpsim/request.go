package tcpsim

import (
	"math/rand"
	"net/netip"
	"time"

	"inbandlb/internal/netsim"
	"inbandlb/internal/packet"
	"inbandlb/internal/stats"
)

// RequestConfig parameterizes a memtier-like request-response client: a set
// of concurrent connections, each sending a bounded number of pipelined
// requests and then closing and reopening with a fresh source port — the
// behaviour the paper relies on so the LB both observes per-server
// latencies and gets opportunities to apply fresh routing decisions.
type RequestConfig struct {
	// ClientIP is the client's address; source ports are allocated from
	// firstPort upward as connections open.
	ClientIP netip.Addr

	// Connections is the number of concurrently open connections.
	Connections int
	// Pipeline is the per-connection concurrency limit: the number of
	// outstanding requests allowed before the client must wait for a
	// response (the flow-control quota that produces triggered sends).
	Pipeline int
	// RequestsPerConn closes the connection after this many requests
	// and reopens it after ReopenDelay with a new source port.
	// Zero means connections live forever.
	RequestsPerConn int
	ReopenDelay     time.Duration

	// ThinkTime is the client-side delay between receiving a response and
	// issuing the request it releases (T_trigger).
	ThinkTime time.Duration
	// ThinkJitter adds uniform random [0, ThinkJitter) to each think time.
	ThinkJitter time.Duration

	// GetFraction is the probability a request is a GET (the paper uses
	// a 50-50 GET/SET mix).
	GetFraction float64
	// Keys, when positive, draws an application key id in [1, Keys] for
	// every request and stamps it on the packet (layer-7 routing input).
	// KeyZipfS > 1 skews popularity; otherwise keys are uniform.
	Keys     int
	KeyZipfS float64
	// RequestTimeout, when positive, bounds how long the client waits for
	// any single response. A request that times out aborts its whole
	// connection (the application's deadline firing and tearing down the
	// socket): the flow is closed toward the LB and a fresh connection is
	// opened on a new source port. This is what makes blackholed backends
	// survivable — without it a silent server pins its connections forever.
	RequestTimeout time.Duration
	// EmitOpen models connection establishment: a KindOpen packet (the
	// SYN) goes out first, and the pipeline fills only when the server's
	// KindOpen reply (the SYN-ACK, via DSR) arrives — so the first request
	// is causally triggered by the handshake completing, which SYN-based
	// estimators measure. Off by default.
	EmitOpen bool

	// The transport-distress knobs below model what a real TCP stack leaks
	// under congestion. All default to off (zero), leaving legacy workloads
	// byte-identical.

	// RetransmitTimeout, when positive, models the sender's RTO: a request
	// unanswered after this long is re-sent on the same connection with
	// the same sequence number (the Seq-regression signal a congestion
	// tracker on the path detects), up to retransmitMax times with the
	// delay doubling each attempt. Retransmits are transport re-sends: they
	// do not count as new requests (Sent/Outstanding are untouched), only
	// as Retransmits. Should be set well below RequestTimeout and well
	// above the healthy round trip.
	RetransmitTimeout time.Duration
	// DupAckAge, when positive, models the receiver's out-of-order
	// signalling: a response arriving while an older request on the same
	// connection has been outstanding for at least DupAckAge emits a
	// duplicate ACK (KindAck re-asserting the awaited sequence) toward the
	// server through the LB — the dup-ACK run a congestion tracker counts.
	DupAckAge time.Duration
	// ZeroWindowBurst, when positive, models receive-buffer pressure:
	// every run of this many responses arriving back-to-back (within
	// zeroWindowGap of each other, across all connections) emits a
	// zero-window advertisement on the connection that overflowed.
	ZeroWindowBurst int
	// Hot, when non-nil, skews the workload toward a hot subset of
	// connections during a window (zipfian hot-key traffic concentrating
	// on the shard that owns the hot keys): hot connections' think time is
	// divided by Factor during [Start, End).
	Hot *HotWindow
}

// The client's fixed wire shape: requests of reqSize bytes go to the
// service address reqVIP:reqVPort from source ports counted up from
// firstPort.
const (
	reqSize   = 128
	reqVPort  = 11211
	firstPort = 40000
	// retransmitMax caps RTO re-sends per request.
	retransmitMax = 2
	// zeroWindowGap is the response inter-arrival gap that keeps a
	// zero-window burst alive.
	zeroWindowGap = 20 * time.Microsecond
)

var reqVIP = netip.MustParseAddr("10.1.0.1")

// HotWindow describes a hot-key skew window: connections whose flow hash
// lands in the bottom Fraction of the hash space think Factor× faster
// during [Start, End).
type HotWindow struct {
	Start    time.Duration
	End      time.Duration
	Fraction float64 // share of connections that run hot, in (0, 1]
	Factor   int     // think-time divisor for hot connections (> 1)
}

// RequestStats aggregates client-side ground truth.
type RequestStats struct {
	Sent      uint64
	Responses uint64
	Opened    uint64 // connections opened (including reopens)
	Timeouts  uint64 // requests abandoned by RequestTimeout
	Aborts    uint64 // connections torn down early (timeout or server RST)
	// Abandoned counts requests that were still outstanding when their
	// connection closed (timeout aborts, server RSTs): the client gave up
	// on them and any late response is counted as Stale instead. Together
	// with Outstanding they close the conservation identity
	// Sent == Responses + Abandoned + Outstanding at every instant.
	Abandoned uint64
	// Stale counts responses that arrived for a connection the client had
	// already torn down. At full drain sum(server Served) ==
	// Responses + Stale: every processed request's response is accounted.
	Stale uint64
	// Transport-distress emissions (the "injected" side of the DST
	// congestion-conservation oracle: the tracker on the path can observe
	// at most these many signals of each kind).
	Retransmits uint64 // RTO re-sends of an outstanding request
	DupAcks     uint64 // duplicate ACKs emitted for overdue older requests
	ZeroWindows uint64 // zero-window advertisements emitted under bursts
	// Latency distributions by operation, measured request-send to
	// response-receipt at the client.
	GetLatency *stats.Histogram
	SetLatency *stats.Histogram
}

// RequestClient drives the workload. Requests leave through out (toward the
// LB); responses arrive at HandlePacket directly from servers (DSR).
type RequestClient struct {
	sim *netsim.Sim
	cfg RequestConfig
	out func(*netsim.Packet)

	conns    []*conn
	nextPort uint16
	stats    RequestStats
	stopped  bool
	zipf     *rand.Zipf

	// deadlines holds every request's RequestTimeout check, rtos its first
	// RetransmitTimeout check.
	deadlines checkQueue
	rtos      checkQueue
	// onReopen is openConn bound once, for the reopen after ReopenDelay.
	onReopen func()
	// free recycles the timers that do not fire in arming order (later
	// RTO attempts, think time); each owns a prebuilt callback, so they
	// cost no allocation in steady state either. Bounded by the peak number
	// pending at once.
	free []*reqTimer

	// Zero-window burst tracking (ZeroWindowBurst): responses arriving
	// within zeroWindowGap of the previous one grow the burst.
	lastRespAt time.Duration
	burstLen   int

	// OnResponse, when set, observes every response with its client-side
	// latency; experiments use it to build time series.
	OnResponse func(now time.Duration, op netsim.Op, latency time.Duration)
}

type conn struct {
	flow    packet.FlowKey
	sent    int // requests sent on this connection
	done    int // responses received on this connection
	nextSeq uint64
	// pending holds the requests awaiting a response, in send order (so
	// oldest first). The pipeline bounds it at Pipeline entries, so a
	// linear scan finds a response's request.
	pending []pending
	closed  bool
}

// pending is one outstanding request.
type pending struct {
	seq uint64
	key uint64
	at  time.Duration // send time
	op  netsim.Op
}

// find returns the index of seq in cn.pending, or -1.
func (cn *conn) find(seq uint64) int {
	for i := range cn.pending {
		if cn.pending[i].seq == seq {
			return i
		}
	}
	return -1
}

// outstanding reports whether request seq still awaits its response on an
// open connection.
func (cn *conn) outstanding(seq uint64) bool {
	return !cn.closed && cn.find(seq) >= 0
}

// NewRequestClient creates the client; call Start to begin.
func NewRequestClient(sim *netsim.Sim, cfg RequestConfig, out func(*netsim.Packet)) *RequestClient {
	if cfg.Connections <= 0 {
		cfg.Connections = 1
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 1
	}
	if !cfg.ClientIP.IsValid() {
		cfg.ClientIP = netip.MustParseAddr("10.0.0.100")
	}
	c := &RequestClient{
		sim:      sim,
		cfg:      cfg,
		out:      out,
		nextPort: firstPort,
		stats: RequestStats{
			GetLatency: stats.NewDefaultHistogram(),
			SetLatency: stats.NewDefaultHistogram(),
		},
	}
	// Callbacks bound once: a method value allocates where it is taken.
	c.deadlines = checkQueue{delay: cfg.RequestTimeout, fn: c.deadlineFired}
	c.rtos = checkQueue{delay: cfg.RetransmitTimeout, fn: c.rtoFired}
	c.onReopen = c.openConn
	if cfg.Keys > 1 && cfg.KeyZipfS > 1 {
		c.zipf = rand.NewZipf(sim.Rand(), cfg.KeyZipfS, 1, uint64(cfg.Keys-1))
	}
	c.lastRespAt = -time.Hour // no burst before the first response
	return c
}

// Stats returns the counters (histograms shared).
func (c *RequestClient) Stats() RequestStats { return c.stats }

// Start opens all connections at the current virtual time.
func (c *RequestClient) Start() {
	for i := 0; i < c.cfg.Connections; i++ {
		c.openConn()
	}
}

// Stop ceases opening connections and sending requests; in-flight
// responses are still counted.
func (c *RequestClient) Stop() { c.stopped = true }

func (c *RequestClient) openConn() {
	if c.stopped {
		return
	}
	port := c.nextPort
	c.nextPort++
	if c.nextPort == 0 { // wrapped; skip the zero port
		c.nextPort = 1024
	}
	cn := &conn{
		flow: packet.NewFlowKey(
			c.cfg.ClientIP, reqVIP, port, reqVPort, packet.ProtoTCP),
		pending: make([]pending, 0, c.cfg.Pipeline),
	}
	c.conns = append(c.conns, cn)
	c.stats.Opened++
	if c.cfg.EmitOpen {
		// Send the SYN; fill happens when the SYN-ACK arrives (see
		// HandlePacket), exactly one handshake RTT later.
		c.out(c.sim.NewPacket(netsim.Packet{
			Flow:   cn.flow,
			Kind:   netsim.KindOpen,
			Size:   64,
			SentAt: c.sim.Now(),
		}))
		return
	}
	c.fill(cn)
}

// fill sends requests on cn until its pipeline is full.
func (c *RequestClient) fill(cn *conn) {
	for i := 0; i < c.cfg.Pipeline; i++ {
		if !c.canSend(cn) {
			break
		}
		c.sendRequest(cn)
	}
}

func (c *RequestClient) canSend(cn *conn) bool {
	if c.stopped || cn.closed || len(cn.pending) >= c.cfg.Pipeline {
		return false
	}
	if c.cfg.RequestsPerConn > 0 && cn.sent >= c.cfg.RequestsPerConn {
		return false
	}
	return true
}

func (c *RequestClient) sendRequest(cn *conn) {
	now := c.sim.Now()
	seq := cn.nextSeq
	cn.nextSeq++
	cn.sent++
	op := netsim.OpSet
	if c.sim.Rand().Float64() < c.cfg.GetFraction {
		op = netsim.OpGet
	}
	c.stats.Sent++
	var key uint64
	if c.cfg.Keys > 0 {
		if c.zipf != nil {
			key = c.zipf.Uint64() + 1
		} else {
			key = uint64(c.sim.Rand().Intn(c.cfg.Keys)) + 1
		}
	}
	cn.pending = append(cn.pending, pending{seq: seq, key: key, at: now, op: op})
	c.out(c.sim.NewPacket(netsim.Packet{
		Flow:   cn.flow,
		Kind:   netsim.KindRequest,
		Op:     op,
		Seq:    seq,
		Key:    key,
		Size:   reqSize,
		SentAt: now,
	}))
	if c.cfg.RequestTimeout > 0 {
		c.deadlines.add(c.sim, cn, seq)
	}
	if c.cfg.RetransmitTimeout > 0 {
		c.rtos.add(c.sim, cn, seq)
	}
}

// checkQueue holds one check per request sent, all with the same delay, so
// they fall due in send order. Only the oldest whose request is still
// outstanding is queued in the simulator, at the rank reserved when its
// request was sent: it fires exactly where it would have fired had every
// check been queued, and the checks whose responses arrived first (nearly
// all of them) never become events.
type checkQueue struct {
	delay   time.Duration
	fn      func() // the simulator callback; it calls fired, then arm
	entries []check
	head    int // entries before head are gone
	armed   bool
}

// check is one request's pending check.
type check struct {
	cn   *conn
	seq  uint64        // the request's sequence number
	at   time.Duration // when the check falls due
	rank uint64        // the event rank reserved when the request was sent
}

// add queues the check of request seq on cn, sent now.
func (q *checkQueue) add(sim *netsim.Sim, cn *conn, seq uint64) {
	q.entries = append(q.entries, check{cn, seq, sim.Now() + q.delay, sim.ReserveSeq()})
	q.arm(sim)
}

// arm schedules the oldest check whose request is still outstanding, unless
// one is scheduled already. Checks ahead of it go: their event would find
// nothing to do.
func (q *checkQueue) arm(sim *netsim.Sim) {
	if q.armed {
		return
	}
	for q.head < len(q.entries) {
		e := &q.entries[q.head]
		if e.cn.outstanding(e.seq) {
			sim.ScheduleReserved(e.at, e.rank, q.fn)
			q.armed = true
			return
		}
		q.pop()
	}
}

// fired takes the scheduled check, whose event is running, off the queue.
func (q *checkQueue) fired() check {
	e := q.entries[q.head]
	q.pop()
	q.armed = false
	return e
}

// pop drops the oldest check.
func (q *checkQueue) pop() {
	q.entries[q.head] = check{} // do not keep a closed connection reachable
	q.head++
	if q.head*2 >= len(q.entries) {
		// Move the pending half down over the dropped half: amortized O(1).
		n := copy(q.entries, q.entries[q.head:])
		clear(q.entries[n:])
		q.entries = q.entries[:n]
		q.head = 0
	}
}

// deadlineFired is a RequestTimeout expiry.
func (c *RequestClient) deadlineFired() {
	e := c.deadlines.fired()
	if e.cn.outstanding(e.seq) {
		// Deadline fired with the response still outstanding: the
		// application gives up on the whole socket and reconnects.
		c.stats.Timeouts++
		c.abortConn(e.cn)
	}
	c.deadlines.arm(c.sim)
}

// rtoFired is a request's first RetransmitTimeout expiry. If the response
// has not arrived, the request is re-sent and a timer takes the later
// attempts.
func (c *RequestClient) rtoFired() {
	e := c.rtos.fired()
	if !c.stopped && e.cn.outstanding(e.seq) {
		c.retransmit(e.cn, e.seq)
		t := c.newTimer(timerRTO, e.cn)
		t.seq, t.attempt, t.delay = e.seq, 2, 2*c.cfg.RetransmitTimeout
		c.sim.After(t.delay, t.fn)
	}
	c.rtos.arm(c.sim)
}

// retransmit re-sends outstanding request seq on cn with the same sequence
// number. The re-send is a transport-layer event: Sent, Outstanding, and
// the request's deadline are untouched.
func (c *RequestClient) retransmit(cn *conn, seq uint64) {
	p := &cn.pending[cn.find(seq)]
	c.stats.Retransmits++
	c.out(c.sim.NewPacket(netsim.Packet{
		Flow:   cn.flow,
		Kind:   netsim.KindRequest,
		Op:     p.op,
		Seq:    seq,
		Key:    p.key,
		Size:   reqSize,
		SentAt: c.sim.Now(),
	}))
}

// reqTimer is a pending client-side timer that does not fire in arming
// order. The record and its callback are built once and recycled through
// RequestClient.free (the pattern netsim.Link uses for deliveries) rather
// than allocated as a closure per request.
type reqTimer struct {
	cn *conn
	// RTO only: the request watched, the delay that armed the timer
	// (doubled on each re-arm), and which attempt this is.
	seq     uint64
	delay   time.Duration
	fn      func()
	attempt int32
	kind    timerKind
}

type timerKind uint8

const (
	timerRTO   timerKind = iota // a request's second and later RetransmitTimeouts
	timerThink                  // think time before a triggered send
)

// newTimer takes a recycled timer or builds one. The caller fills in the
// kind's fields and schedules t.fn exactly once.
func (c *RequestClient) newTimer(kind timerKind, cn *conn) *reqTimer {
	var t *reqTimer
	if n := len(c.free); n > 0 {
		t = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		t = &reqTimer{}
		t.fn = func() { c.fire(t) }
	}
	t.kind, t.cn = kind, cn
	return t
}

// fire runs t's expiry. Unless t re-arms itself it goes back on the free
// list before anything it triggers runs: a triggered send arms timers of
// its own.
func (c *RequestClient) fire(t *reqTimer) {
	cn, seq := t.cn, t.seq
	switch t.kind {
	case timerRTO:
		// If the response has not arrived, the same request (same sequence
		// number) is re-sent and the timer re-arms at double the delay, up
		// to retransmitMax attempts.
		if c.stopped || int(t.attempt) > retransmitMax || !cn.outstanding(seq) {
			c.recycle(t)
			return
		}
		c.retransmit(cn, seq)
		t.attempt++
		t.delay *= 2
		c.sim.After(t.delay, t.fn)
	case timerThink:
		c.recycle(t)
		if c.canSend(cn) {
			c.sendRequest(cn)
		}
	}
}

func (c *RequestClient) recycle(t *reqTimer) {
	t.cn = nil // do not keep a closed connection reachable
	c.free = append(c.free, t)
}

// HandlePacket receives responses (and SYN-ACKs) from servers. The client
// is every such packet's last owner and releases it once handled.
func (c *RequestClient) HandlePacket(p *netsim.Packet) {
	c.handle(p)
	c.sim.ReleasePacket(p)
}

func (c *RequestClient) handle(p *netsim.Packet) {
	if p.Kind == netsim.KindOpen {
		// SYN-ACK: the connection is established, fill the pipeline.
		cn := c.findConn(p.Flow)
		if cn == nil || cn.sent > 0 {
			return
		}
		c.fill(cn)
		return
	}
	if p.Kind == netsim.KindClose {
		// Server-side RST (ConnFaults) arriving over the DSR return path:
		// tear the connection down and reconnect on a fresh port.
		if cn := c.findConn(p.Flow); cn != nil {
			c.abortConn(cn)
		}
		return
	}
	if p.Kind != netsim.KindResponse {
		return
	}
	cn := c.findConn(p.Flow)
	if cn == nil {
		c.stats.Stale++ // response for a connection we already closed
		return
	}
	now := c.sim.Now()
	if c.cfg.ZeroWindowBurst > 0 {
		// Receive-buffer pressure: responses landing back-to-back (incast
		// flush, post-stall drain) grow a burst; overflowing the burst
		// threshold advertises a zero window on the overflowing flow.
		if now-c.lastRespAt <= zeroWindowGap {
			c.burstLen++
		} else {
			c.burstLen = 1
		}
		c.lastRespAt = now
		if c.burstLen >= c.cfg.ZeroWindowBurst {
			c.burstLen = 0
			c.stats.ZeroWindows++
			c.out(c.sim.NewPacket(netsim.Packet{
				Flow:       cn.flow,
				Kind:       netsim.KindAck,
				Seq:        p.Seq,
				Size:       64,
				SentAt:     now,
				ZeroWindow: true,
			}))
		}
	}
	i := cn.find(p.Seq)
	if i < 0 {
		c.stats.Stale++
		return
	}
	sentAt, op := cn.pending[i].at, cn.pending[i].op
	cn.pending = append(cn.pending[:i], cn.pending[i+1:]...)
	cn.done++
	lat := now - sentAt
	c.stats.Responses++
	if c.cfg.DupAckAge > 0 {
		// This response arrived while an older request on the same
		// connection is overdue: the receiver keeps acking the missing
		// sequence point — a duplicate ACK toward the server.
		if oldest, at, ok := cn.oldestOutstanding(); ok && oldest < p.Seq && now-at >= c.cfg.DupAckAge {
			c.stats.DupAcks++
			c.out(c.sim.NewPacket(netsim.Packet{
				Flow:   cn.flow,
				Kind:   netsim.KindAck,
				Seq:    oldest,
				Size:   64,
				SentAt: now,
			}))
		}
	}
	switch op {
	case netsim.OpGet:
		c.stats.GetLatency.Record(lat)
	default:
		c.stats.SetLatency.Record(lat)
	}
	if c.OnResponse != nil {
		c.OnResponse(now, op, lat)
	}

	if c.cfg.RequestsPerConn > 0 && cn.done >= c.cfg.RequestsPerConn {
		c.closeConn(cn)
		return
	}
	if c.canSend(cn) {
		// The triggered transmission: this response released pipeline quota.
		think := c.thinkFor(cn)
		if think > 0 {
			c.sim.After(think, c.newTimer(timerThink, cn).fn)
		} else {
			c.sendRequest(cn)
		}
	}
}

// thinkFor computes the triggered-send think time: base plus jitter, then
// divided by the hot-window factor when this connection runs hot. The
// jitter draw happens unconditionally (when configured) so workloads with
// Hot == nil consume the rng identically to the pre-hot-window client.
func (c *RequestClient) thinkFor(cn *conn) time.Duration {
	think := c.cfg.ThinkTime
	if c.cfg.ThinkJitter > 0 {
		think += time.Duration(c.sim.Rand().Int63n(int64(c.cfg.ThinkJitter)))
	}
	if h := c.cfg.Hot; h != nil && h.Factor > 1 {
		now := c.sim.Now()
		if now >= h.Start && (h.End <= 0 || now < h.End) && c.hotConn(cn, h) {
			think /= time.Duration(h.Factor)
		}
	}
	return think
}

// hotConn deterministically assigns a connection to the hot set by its
// flow hash, so the hot population is stable for the connection's lifetime
// and reproducible across replays.
func (c *RequestClient) hotConn(cn *conn, h *HotWindow) bool {
	return cn.flow.Hash()&0xffff < uint64(h.Fraction*65536)
}

// Thunder models a thundering-herd reconnect storm: every open connection
// is torn down at once (a shared upstream — NAT box, service mesh sidecar,
// scheduler — restarting), and the standard abort path reopens each after
// ReopenDelay, so the LB absorbs a synchronized wave of closes and opens.
func (c *RequestClient) Thunder() {
	conns := append([]*conn(nil), c.conns...)
	for _, cn := range conns {
		c.abortConn(cn)
	}
}

// oldestOutstanding returns the lowest outstanding sequence number on the
// connection and its send time.
func (cn *conn) oldestOutstanding() (uint64, time.Duration, bool) {
	if len(cn.pending) == 0 {
		return 0, 0, false
	}
	return cn.pending[0].seq, cn.pending[0].at, true
}

// abortConn tears a connection down before its workload completed —
// outstanding requests are abandoned, the flow is closed toward the LB, and
// a replacement connection opens on a fresh source port.
func (c *RequestClient) abortConn(cn *conn) {
	if cn.closed {
		return
	}
	c.stats.Aborts++
	c.closeConn(cn)
}

func (c *RequestClient) closeConn(cn *conn) {
	cn.closed = true
	// Requests still awaiting responses are given up on; any response that
	// arrives later is counted as Stale, never as a completion.
	c.stats.Abandoned += uint64(len(cn.pending))
	// Tell the path (and thus the LB's connection tracker) that this flow
	// is done — the FIN of the modelled TCP connection.
	c.out(c.sim.NewPacket(netsim.Packet{
		Flow:   cn.flow,
		Kind:   netsim.KindClose,
		Size:   64,
		SentAt: c.sim.Now(),
	}))
	for i, x := range c.conns {
		if x == cn {
			c.conns = append(c.conns[:i], c.conns[i+1:]...)
			break
		}
	}
	if c.stopped {
		return
	}
	if c.cfg.ReopenDelay > 0 {
		c.sim.After(c.cfg.ReopenDelay, c.onReopen)
	} else {
		c.openConn()
	}
}

// findConn returns the open connection of flow f, or nil. The source port
// alone tells open connections apart until ports wrap, so it is compared
// before the whole key.
func (c *RequestClient) findConn(f packet.FlowKey) *conn {
	for _, cn := range c.conns {
		if cn.flow.SrcPort == f.SrcPort && cn.flow == f {
			return cn
		}
	}
	return nil
}

// OpenConns returns the number of currently open connections.
func (c *RequestClient) OpenConns() int { return len(c.conns) }

// Outstanding returns the number of requests currently awaiting a response
// across all open connections. At every instant
// Sent == Responses + Abandoned + Outstanding — the client-side
// conservation identity the simulation-testing oracles check each tick.
func (c *RequestClient) Outstanding() int {
	n := 0
	for _, cn := range c.conns {
		n += len(cn.pending)
	}
	return n
}
