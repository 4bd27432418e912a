package server

import (
	"time"

	"inbandlb/internal/faults"
	"inbandlb/internal/netsim"
	"inbandlb/internal/stats"
)

// Config parameterizes a simulated server.
type Config struct {
	// Name identifies the server in traces and the Maglev pool.
	Name string
	// Workers is the number of requests processed concurrently.
	Workers int
	// Service samples per-request processing time.
	Service Dist
	// QueueLimit bounds the request queue (0 = unbounded). Requests
	// arriving at a full queue are dropped, modeling overload shedding.
	QueueLimit int
	// Injected adds schedule-driven extra processing delay (nil = none).
	// This is where the paper's 1 ms inflation lands when injected at the
	// server rather than the link.
	Injected faults.Schedule
	// ConnFaults breaks connections outright (nil = none): refused or reset
	// flows are answered with a KindClose toward the client (the RST, via
	// DSR), blackholed flows are dropped silently. The decision is keyed on
	// the flow hash, so a faulted flow stays faulted for the schedule's
	// duration — one schedule drives this simulated server and the live
	// chaos wrappers alike.
	ConnFaults faults.ConnSchedule
	// CacheSize, when positive, models a hot-key cache of that many keys:
	// requests carrying a Key present in the LRU cache take HitService
	// instead of Service (the miss path), letting experiments quantify
	// layer-7 key-affinity routing. Requests without a Key always take
	// Service.
	CacheSize int
	// HitService samples the fast (cache-hit) path. Defaults to a 10 µs
	// constant when unset.
	HitService Dist
	// Batch, when non-nil, coalesces responses: while the schedule's
	// DelayAt is positive, a finished response is held and the whole batch
	// is flushed after that window, so clients see incast-style bursts of
	// back-to-back arrivals instead of a smooth response stream. Outside
	// the schedule's windows (DelayAt == 0) responses flow immediately.
	Batch faults.Schedule
	// Dependency, when set, is a downstream service this server calls
	// for DependencyFraction of its requests after local processing
	// (paper §5 Q3: a slow dependency makes the server look slow).
	Dependency *Dependency
	// DependencyFraction is the probability a request needs the
	// dependency. Defaults to 1 when Dependency is set.
	DependencyFraction float64
}

// Stats are cumulative counters and distributions for one server.
type Stats struct {
	Served     uint64
	Dropped    uint64
	Refused    uint64 // packets rejected with a KindClose by ConnFaults
	Blackholed uint64 // packets silently dropped by ConnFaults
	Hits       uint64 // cache hits (CacheSize > 0 and request carried a key)
	Misses     uint64 // cache misses
	MaxQueue   int
	Service    *stats.Histogram // processing time actually applied
	QueueWait  *stats.Histogram // time spent waiting for a worker
}

// responseSize is the wire size of generated responses in bytes.
const responseSize = 128

// Server is a simulated request-processing node. It consumes KindRequest
// packets and emits KindResponse packets through the output function wired
// by the topology — directly toward the client under DSR, never back
// through the load balancer.
type Server struct {
	sim   *netsim.Sim
	cfg   Config
	out   func(*netsim.Packet)
	cache *lruCache
	busy  int
	// queue holds requests waiting for a worker, with their arrival times.
	queue []queued
	// batch holds finished responses awaiting an incast flush (Config.Batch).
	batch []*netsim.Packet
	// free recycles service-completion events (each owns a prebuilt
	// callback), so a request in service costs no allocation in steady
	// state. Bounded by Workers.
	free  []*job
	stats Stats
}

// job is a reusable "service time elapsed" event for one request.
type job struct {
	p  *netsim.Packet
	fn func()
}

// newJob takes a recycled job or builds one.
func (s *Server) newJob(p *netsim.Packet) *job {
	var j *job
	if n := len(s.free); n > 0 {
		j = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		j = &job{}
		j.fn = func() {
			p := j.p
			// Recycle before finishing: finish starts the next queued
			// request, which takes a job of its own.
			j.p = nil
			s.free = append(s.free, j)
			s.serviced(p)
		}
	}
	j.p = p
	return j
}

type queued struct {
	p  *netsim.Packet
	at time.Duration
}

// New creates a server. Output must be wired with SetOutput before traffic
// arrives.
func New(sim *netsim.Sim, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Service == nil {
		cfg.Service = Deterministic(100 * time.Microsecond)
	}
	if cfg.Injected == nil {
		cfg.Injected = faults.None
	}
	if cfg.ConnFaults == nil {
		cfg.ConnFaults = faults.NoConnFaults
	}
	if cfg.Dependency != nil && cfg.DependencyFraction <= 0 {
		cfg.DependencyFraction = 1
	}
	if cfg.CacheSize > 0 && cfg.HitService == nil {
		cfg.HitService = Deterministic(10 * time.Microsecond)
	}
	s := &Server{
		sim: sim,
		cfg: cfg,
		stats: Stats{
			Service:   stats.NewDefaultHistogram(),
			QueueWait: stats.NewDefaultHistogram(),
		},
	}
	if cfg.CacheSize > 0 {
		s.cache = newLRUCache(cfg.CacheSize)
	}
	return s
}

// Name returns the configured server name.
func (s *Server) Name() string { return s.cfg.Name }

// SetOutput wires the function that carries responses toward clients.
func (s *Server) SetOutput(out func(*netsim.Packet)) { s.out = out }

// Stats returns a shallow copy of the counters (histograms are shared).
func (s *Server) Stats() Stats { return s.stats }

// HandlePacket implements netsim.Handler. KindOpen packets (SYNs) are
// answered immediately with a SYN-ACK toward the client (kernel handshake
// processing, no worker involvement); other non-request packets are
// dropped — a DSR server never sees ACK-only traffic from the LB in this
// model. The server is the last owner of every packet it is given: it
// releases a request when the response is sent (or the request dropped),
// and anything else at once. Its responses, SYN-ACKs and RSTs are taken
// from the simulator's packet pool.
func (s *Server) HandlePacket(p *netsim.Packet) {
	if p.Kind == netsim.KindOpen || p.Kind == netsim.KindRequest {
		switch s.cfg.ConnFaults.ConnFaultAt(s.sim.Now(), p.Flow.Hash()).Kind {
		case faults.ConnRefuse, faults.ConnReset:
			// RST toward the client over the DSR return path: SYNs are
			// refused, established flows are reset mid-stream. Either way
			// the client learns in one RTT and must reconnect.
			s.stats.Refused++
			s.reply(p, netsim.KindClose)
			return
		case faults.ConnBlackhole:
			// Silent drop: the client sees nothing until its own timeout,
			// and the LB sees the in-band sample stream go quiet.
			s.stats.Blackholed++
			s.sim.ReleasePacket(p)
			return
		}
	}
	if p.Kind == netsim.KindOpen {
		s.reply(p, netsim.KindOpen)
		return
	}
	if p.Kind != netsim.KindRequest {
		s.stats.Dropped++
		s.sim.ReleasePacket(p)
		return
	}
	if s.busy < s.cfg.Workers {
		s.start(p, 0)
		return
	}
	if s.cfg.QueueLimit > 0 && len(s.queue) >= s.cfg.QueueLimit {
		s.stats.Dropped++
		s.sim.ReleasePacket(p)
		return
	}
	s.queue = append(s.queue, queued{p: p, at: s.sim.Now()})
	if len(s.queue) > s.stats.MaxQueue {
		s.stats.MaxQueue = len(s.queue)
	}
}

// reply answers p at once with a 64-byte packet of the given kind (a
// SYN-ACK or an RST) and releases p.
func (s *Server) reply(p *netsim.Packet, kind netsim.Kind) {
	s.emit(s.sim.NewPacket(netsim.Packet{
		Flow:      p.Flow,
		Kind:      kind,
		Size:      64,
		SentAt:    s.sim.Now(),
		ReqSentAt: p.SentAt,
	}))
	s.sim.ReleasePacket(p)
}

// start begins processing p, which waited in queue for wait.
func (s *Server) start(p *netsim.Packet, wait time.Duration) {
	s.busy++
	now := s.sim.Now()
	svc := s.cfg.Service
	if s.cache != nil && p.Key != 0 {
		if s.cache.touch(p.Key) {
			s.stats.Hits++
			svc = s.cfg.HitService
		} else {
			s.stats.Misses++
		}
	}
	d := svc.Sample(s.sim.Rand())
	if d < 0 {
		d = 0
	}
	d += s.cfg.Injected.DelayAt(now)
	s.stats.Service.Record(d)
	s.stats.QueueWait.Record(wait)
	s.sim.After(d, s.newJob(p).fn)
}

// serviced runs when p's local processing time has elapsed.
func (s *Server) serviced(p *netsim.Packet) {
	if s.cfg.Dependency != nil && s.sim.Rand().Float64() < s.cfg.DependencyFraction {
		// The local worker blocks on the downstream call, exactly as
		// a synchronous RPC fan-out would.
		s.cfg.Dependency.Call(func() { s.finish(p) })
		return
	}
	s.finish(p)
}

func (s *Server) finish(p *netsim.Packet) {
	s.stats.Served++
	resp := s.sim.NewPacket(netsim.Packet{
		Flow:      p.Flow,
		Kind:      netsim.KindResponse,
		Op:        p.Op,
		Seq:       p.Seq,
		Key:       p.Key,
		Size:      responseSize,
		SentAt:    s.sim.Now(),
		ReqSentAt: p.SentAt,
	})
	s.sim.ReleasePacket(p)
	s.send(resp)
	s.busy--
	if len(s.queue) > 0 {
		next := s.queue[0]
		s.queue = s.queue[1:]
		s.start(next.p, s.sim.Now()-next.at)
	}
}

// send emits one response, holding it for an incast flush when the batch
// schedule is in force. The flush timer is armed by the batch's first
// response, so a window's burst size is whatever finished during it.
func (s *Server) send(resp *netsim.Packet) {
	if s.cfg.Batch != nil {
		if d := s.cfg.Batch.DelayAt(s.sim.Now()); d > 0 {
			s.batch = append(s.batch, resp)
			if len(s.batch) == 1 {
				s.sim.After(d, s.flushBatch)
			}
			return
		}
	}
	s.emit(resp)
}

// flushBatch releases every held response back-to-back.
func (s *Server) flushBatch() {
	b := s.batch
	s.batch = nil
	for _, r := range b {
		s.emit(r)
	}
}

// emit hands a packet to the output, or releases it when none is wired.
func (s *Server) emit(resp *netsim.Packet) {
	if s.out != nil {
		s.out(resp)
	} else {
		s.sim.ReleasePacket(resp)
	}
}
