// Package lb is the load balancer dataplane: it terminates nothing and
// inspects only client→server packets (direct server return), maintains
// connection-to-server affinity through a connection table, asks the
// configured routing policy for a backend on each new flow, and feeds every
// packet's arrival timestamp into the in-band latency estimator so the
// policy can adapt. The connection table is the only per-flow state: each
// entry owns its flow's route, estimator and congestion state, so a packet
// costs one lookup and a flow leaves with one delete.
//
// The structural guarantee matching the paper's DSR assumption: the LB has
// transmit links toward servers but no receive path from them — response
// traffic cannot reach HandlePacket because the topology never wires it.
package lb

import (
	"fmt"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/netsim"
	"inbandlb/internal/packet"
)

// Connection-table housekeeping: every sweepInterval, entries idle for
// connIdleTimeout are evicted.
const (
	sweepInterval   = time.Second
	connIdleTimeout = 30 * time.Second
)

// Config parameterizes the dataplane.
type Config struct {
	// Policy routes new flows and consumes latency samples.
	Policy control.Policy
	// MaxConns caps the connection table. When it is full, admitting a new
	// flow evicts the longest-idle one (the smallest key among equally idle
	// ones), route, estimator and congestion state together; the evicted
	// flow's next packet is a new flow's first. Defaults to 65536.
	MaxConns int
	// Handshake swaps each flow's ensemble estimator for the paper's
	// "simple instantiation": the gap between the flow's first packet (the
	// SYN) and its second is its one latency sample. It needs no timeout
	// tuning but yields one sample per connection.
	Handshake bool
	// Congestion enables transport-distress tracking: every client→server
	// packet is rendered as the TCP segment it models (sequence edge, ACK
	// number, advertised window) and run through its connection entry's
	// packet.FlowCongestion, so retransmissions, dup-ACK runs, and
	// zero-window stalls are detected from the very stream the LB already
	// sees — no server cooperation, no probes. Detected events are counted
	// per backend and, when the policy is a control.Controller, fed to its
	// congestion detector for early weight-down/ejection.
	Congestion bool
	// L7 routes requests by their application Key instead of the
	// connection 4-tuple: every keyed request is dispatched by
	// Policy.Pick over a key-derived pseudo flow, so the same key always
	// reaches the same server (cache affinity). Unkeyed packets and
	// non-request packets of the flow still follow the flow's pinned
	// backend. Latency samples are attributed to the flow's most recent
	// backend — an approximation, since a flow's requests may now span
	// servers. A request's pick opens no flow: the connection table, whose
	// per-backend count is the occupancy policies read, follows the flow to
	// its latest backend. L7 suits stateless consistent-hash policies
	// (MaglevStatic, LatencyAware, Proportional); RoundRobin, LeastConn and
	// P2C would spread keys, not pin them.
	L7 bool
}

// Stats are the dataplane counters.
type Stats struct {
	Packets     uint64 // client→server packets seen
	NewFlows    uint64 // connection-table inserts
	Closed      uint64 // flows removed by KindClose
	Swept       uint64 // flows removed by idle sweeps
	Evicted     uint64 // flows removed to admit a new one into a full table
	Samples     uint64 // estimator samples produced
	NoBackend   uint64 // packets dropped for lack of a backend
	Fallbacks   uint64 // new flows rerouted off an ejected/partial backend
	Retrans     uint64 // retransmissions detected (Congestion enabled)
	DupAcks     uint64 // dup-ACK runs detected
	ZeroWins    uint64 // zero-window stalls detected
	PerBackend  []uint64
	NewPerBack  []uint64
	SampPerBack []uint64
	CongPerBack []uint64 // congestion events attributed per backend
}

// LB is a simulated load balancer instance.
type LB struct {
	sim       *netsim.Sim
	cfg       Config
	conns     map[packet.FlowKey]*connEntry
	free      []*connEntry // recycled entries of closed and swept flows
	open      []int        // per-backend connection-table occupancy: the policy's bound count
	uplink    []*netsim.Link
	stats     Stats
	lastSweep time.Duration

	// ctrl is non-nil when the policy is a *control.Controller. The LB
	// then drives its tick from the packet path on the simulation clock
	// instead of a wall-clock goroutine, routes new flows through Route so
	// passive failure detection steers the sim dataplane exactly as it
	// steers the proxy, and feeds it congestion reports.
	ctrl     *control.Controller
	lastTick time.Duration

	// OnSample, when set, observes every estimator sample with the
	// backend it was attributed to.
	OnSample func(now time.Duration, backend int, sample time.Duration)
}

// connEntry is everything the LB keeps for one flow, from its first
// routed packet until it closes, idles out or is evicted.
type connEntry struct {
	backend  int // where the flow's packets go; open counts it here
	lastSeen time.Duration
	// hash is the flow key's hash as Route computed it (Controller
	// policies only); congestion reports reuse it.
	hash uint64

	est  core.FlowEstimator    // the flow's ensemble estimator
	cong packet.FlowCongestion // Config.Congestion

	// Config.Handshake: the first packet's arrival, and how many packets
	// the stamp has seen (1, then 2 once the sample is taken).
	synAt   time.Duration
	synPkts uint8
}

// New creates a load balancer forwarding to uplinks (one per backend, in
// policy backend-index order).
func New(sim *netsim.Sim, cfg Config, uplinks []*netsim.Link) (*LB, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("lb: policy required")
	}
	if len(uplinks) != cfg.Policy.NumBackends() {
		return nil, fmt.Errorf("lb: %d uplinks for %d backends", len(uplinks), cfg.Policy.NumBackends())
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 65536
	}
	n := cfg.Policy.NumBackends()
	l := &LB{
		sim:    sim,
		cfg:    cfg,
		conns:  make(map[packet.FlowKey]*connEntry),
		open:   make([]int, n),
		uplink: uplinks,
		stats: Stats{
			PerBackend:  make([]uint64, n),
			NewPerBack:  make([]uint64, n),
			SampPerBack: make([]uint64, n),
		},
	}
	if cfg.Congestion {
		l.stats.CongPerBack = make([]uint64, n)
	}
	l.ctrl, _ = cfg.Policy.(*control.Controller)
	// Policies that consult occupancy (least-connections, p2c, wlc,
	// possibly wrapped in a Controller) read the connection table's
	// per-backend count: it sees every flow, fallback ones included, until
	// it closes, idles out or is evicted.
	if ob, ok := cfg.Policy.(control.OccupancyBinder); ok {
		ob.BindOccupancy(l.OpenConns)
	}
	return l, nil
}

// Stats returns a copy of the counters.
func (l *LB) Stats() Stats {
	s := l.stats
	s.PerBackend = append([]uint64(nil), l.stats.PerBackend...)
	s.NewPerBack = append([]uint64(nil), l.stats.NewPerBack...)
	s.SampPerBack = append([]uint64(nil), l.stats.SampPerBack...)
	if l.stats.CongPerBack != nil {
		s.CongPerBack = append([]uint64(nil), l.stats.CongPerBack...)
	}
	return s
}

// ConnCount returns the connection-table occupancy.
func (l *LB) ConnCount() int { return len(l.conns) }

// OpenConns returns the number of connection-table entries currently
// pinned to backend b — the live occupancy that occupancy-driven policies
// bind as their load signal.
func (l *LB) OpenConns(b int) int {
	if b < 0 || b >= len(l.open) {
		return 0
	}
	return l.open[b]
}

// Backend returns the backend pinned for a flow, or -1.
func (l *LB) Backend(key packet.FlowKey) int {
	if e := l.conns[key]; e != nil {
		return e.backend
	}
	return -1
}

// AffinityAudit compares every pinned connection's backend against what a
// fresh (stateless) lookup would choose now. The moved count is the number
// of live connections that *would* break under a pure table lookup — the
// connection-consistency cost the connection table absorbs during weight
// churn (paper §2.5). pick must be a pure lookup (it is called once per
// live flow).
func (l *LB) AffinityAudit(pick func(packet.FlowKey) int) (total, moved int) {
	for k, e := range l.conns {
		total++
		if pick(k) != e.backend {
			moved++
		}
	}
	return total, moved
}

// HandlePacket implements netsim.Handler for client→server traffic. The
// packet is forwarded (the uplink takes ownership) or, when it is dropped,
// released here.
func (l *LB) HandlePacket(p *netsim.Packet) {
	now := l.sim.Now()
	l.stats.Packets++

	// Opportunistic housekeeping: sweeping on the packet path (rather than
	// with a timer) keeps the event queue free of perpetual events, so
	// simulations terminate when traffic does.
	if now-l.lastSweep >= sweepInterval {
		l.lastSweep = now
		l.sweep()
	}
	// Control tick: when the policy is a Controller, merge its batched
	// samples and republish the routing snapshot on the simulation clock,
	// at the Controller's own Interval — before this packet's measurement,
	// so the pick below sees state at most one interval old, matching the
	// live proxy's staleness bound.
	if l.ctrl != nil && now-l.lastTick >= l.ctrl.Interval() {
		l.lastTick = now
		l.ctrl.Tick(now)
	}

	// Connection affinity: existing flows stick to their backend.
	entry := l.conns[p.Flow]
	if entry == nil {
		if entry = l.admit(p.Flow, now); entry == nil {
			l.stats.NoBackend++
			l.sim.ReleasePacket(p)
			return
		}
	}

	// Measurement: every packet's timestamp feeds the flow's estimator,
	// exactly as Algorithm 2 is "executed at the LB upon receiving each
	// packet".
	if sample, ok := l.measure(entry, now); ok {
		l.stats.Samples++
		l.stats.SampPerBack[entry.backend]++
		l.cfg.Policy.ObserveLatency(entry.backend, now, sample)
		if l.OnSample != nil {
			l.OnSample(now, entry.backend, sample)
		}
	}
	entry.lastSeen = now

	if l.cfg.Congestion {
		l.observeCongestion(p, entry, now)
	}

	target := entry.backend
	if p.Kind == netsim.KindClose {
		l.closeFlow(p.Flow, entry)
		// The close itself is still forwarded so the server could clean
		// up; harmless for the simulated server, faithful to a real FIN.
	}

	if l.cfg.L7 && p.Kind == netsim.KindRequest && p.Key != 0 {
		if b := l.cfg.Policy.Pick(keyFlow(p.Key), now); b >= 0 && b < l.cfg.Policy.NumBackends() {
			target = b
			// Track the latest dispatch so samples and the connection
			// table follow the flow's current server.
			if target != entry.backend {
				l.open[entry.backend]--
				l.open[target]++
				entry.backend = target
			}
		}
	}
	l.stats.PerBackend[target]++
	l.uplink[target].Send(p)
}

// simMSS is the segment size the sim's TCP rendering assumes: each
// request/data packet is one full-sized segment, so sequence numbers advance
// in MSS strides and a re-sent application Seq lands exactly on an already
// covered edge — the retransmission signature the tracker detects.
const simMSS = 1460

// observeCongestion renders p as the TCP segment it models and runs it
// through the flow's congestion state, attributing detected distress to the
// flow's pinned backend. The rendering is the inverse of what a real LB's
// parser does: the sim carries application-level Seq/kind, so the transport
// view is synthesized; the live proxy parses real headers into the same TCP
// struct. Either way the state machine sees only client→server fields — the
// DSR constraint holds.
func (l *LB) observeCongestion(p *netsim.Packet, e *connEntry, now time.Duration) {
	var t packet.TCP
	payload := 0
	switch p.Kind {
	case netsim.KindOpen:
		// SYN with a per-flow-constant ISN: a reconnect storm re-SYNs the
		// same 4-tuple, which reads as handshake retransmission.
		t = packet.TCP{Flags: packet.FlagSYN, Window: 65535}
	case netsim.KindRequest, netsim.KindData:
		t = packet.TCP{
			Seq:    uint32(p.Seq) * simMSS,
			Flags:  packet.FlagACK | packet.FlagPSH,
			Window: 65535,
		}
		payload = simMSS
	case netsim.KindAck:
		t = packet.TCP{
			Seq:    uint32(p.Seq) * simMSS,
			Ack:    uint32(p.Seq+1) * simMSS,
			Flags:  packet.FlagACK,
			Window: 65535,
		}
		if p.ZeroWindow {
			t.Window = 0
		}
	case netsim.KindClose:
		t = packet.TCP{
			Seq:    uint32(p.Seq) * simMSS,
			Flags:  packet.FlagACK | packet.FlagFIN,
			Window: 65535,
		}
	default:
		return
	}
	ev := e.cong.Observe(&t, payload)
	if ev == 0 {
		return
	}
	var retrans, dupAcks, zeroWins int
	if ev.Has(packet.CongRetransmit) {
		retrans = 1
		l.stats.Retrans++
	}
	if ev.Has(packet.CongDupAck) {
		dupAcks = 1
		l.stats.DupAcks++
	}
	if ev.Has(packet.CongZeroWindow) {
		zeroWins = 1
		l.stats.ZeroWins++
	}
	l.stats.CongPerBack[e.backend] += uint64(ev.Count())
	if l.ctrl != nil {
		l.ctrl.ObserveCongestion(e.hash, e.backend, retrans, dupAcks, zeroWins)
	}
}

// keyFlow derives a deterministic pseudo flow from an application key so
// consistent-hash policies map equal keys to equal backends.
func keyFlow(key uint64) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   [4]byte{byte(key >> 56), byte(key >> 48), byte(key >> 40), byte(key >> 32)},
		DstIP:   [4]byte{byte(key >> 24), byte(key >> 16), byte(key >> 8), byte(key)},
		SrcPort: uint16(key >> 48),
		DstPort: uint16(key),
		Proto:   0xF7, // private marker: layer-7 pseudo flow
	}
}

// admit routes a new flow and enters it in the connection table, evicting
// the longest-idle flow first when the table is full. It returns nil, and
// keeps no state for the flow, when no backend takes it: an unroutable
// packet neither evicts a live flow nor occupies a slot.
func (l *LB) admit(key packet.FlowKey, now time.Duration) *connEntry {
	var b int
	var hash uint64
	if l.ctrl != nil {
		var fellBack bool
		hash = key.Hash()
		b, fellBack = l.ctrl.RouteHashed(hash, key, now)
		if fellBack {
			l.stats.Fallbacks++
		}
	} else {
		b = l.cfg.Policy.Pick(key, now)
	}
	if b < 0 || b >= len(l.open) {
		return nil
	}
	if len(l.conns) >= l.cfg.MaxConns {
		l.evictOldest()
	}
	e := l.newEntry()
	e.backend, e.hash = b, hash
	l.conns[key] = e
	l.stats.NewFlows++
	l.stats.NewPerBack[b]++
	l.open[b]++
	return e
}

// measure runs the flow's in-band measurement on a packet arrived at now,
// before the entry's lastSeen moves to now.
func (l *LB) measure(e *connEntry, now time.Duration) (time.Duration, bool) {
	if !l.cfg.Handshake {
		return e.est.Observe(now)
	}
	// The SYN stamp follows the ensemble's lifetime rule: a packet after
	// more than core.EstimatorIdleReset of silence stamps afresh.
	if e.synPkts == 0 || now-e.lastSeen > core.EstimatorIdleReset {
		e.synAt, e.synPkts = now, 1
		return 0, false
	}
	if e.synPkts > 1 {
		return 0, false
	}
	e.synPkts = 2
	return now - e.synAt, true
}

// newEntry takes a recycled connection entry, its estimator reset, or
// allocates one.
func (l *LB) newEntry() *connEntry {
	if n := len(l.free); n > 0 {
		e := l.free[n-1]
		l.free = l.free[:n-1]
		*e = connEntry{est: e.est}
		e.est.Reset()
		return e
	}
	return new(connEntry)
}

// dropFlow removes a flow from the connection table and its backend's open
// count, and recycles its entry.
func (l *LB) dropFlow(key packet.FlowKey, e *connEntry) {
	delete(l.conns, key)
	l.open[e.backend]--
	l.free = append(l.free, e)
}

func (l *LB) closeFlow(key packet.FlowKey, e *connEntry) {
	l.dropFlow(key, e)
	l.stats.Closed++
}

// evictOldest drops the longest-idle flow, the smallest key among equally
// idle ones, so which flow goes does not depend on map iteration order and
// a simulation replays from its seed.
func (l *LB) evictOldest() {
	var oldestKey packet.FlowKey
	var oldest *connEntry
	for k, e := range l.conns {
		if oldest == nil || e.lastSeen < oldest.lastSeen ||
			e.lastSeen == oldest.lastSeen && k.Less(oldestKey) {
			oldest, oldestKey = e, k
		}
	}
	if oldest != nil {
		l.dropFlow(oldestKey, oldest)
		l.stats.Evicted++
	}
}

// sweep evicts idle connections, and their per-flow state with them.
func (l *LB) sweep() {
	now := l.sim.Now()
	cutoff := now - connIdleTimeout
	for k, e := range l.conns {
		if e.lastSeen < cutoff {
			l.dropFlow(k, e)
			l.stats.Swept++
		}
	}
}
