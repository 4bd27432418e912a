// Package lbproxy is the live userspace counterpart of the simulated
// dataplane: a layer-4 TCP load balancer whose measurement pipeline is fed
// exclusively by client→server byte arrivals.
//
// A userspace TCP proxy cannot do true direct server return — it must relay
// response bytes — but the paper's constraint is about what the measurement
// sees, and that is preserved structurally: the response direction is
// relayed with no timestamps taken, while every request-direction read feeds
// the per-flow estimator exactly as the simulated LB feeds it per packet.
// This is the substitution DESIGN.md documents for the Cilium/XDP dataplane
// (repro band: userspace prototype).
//
// # Connection lifecycle
//
// On Linux a connection lives on one acceptor shard's event loop from
// accept4 to close, as one state machine on raw fds (netpoll_linux.go, whose
// header tabulates the states). Elsewhere a goroutine per connection relays
// it with plain copies (relay_fallback.go) — no pooling, no splice, no
// congestion sampling.
//
// # Concurrency model
//
// The data plane and the control plane are split RCU-style around a
// control.Controller, mirroring a per-CPU dataplane feeding one controller:
//
//   - Per-flow estimator state lives in a core.ShardedFlowTable
//     (GOMAXPROCS lock-striped shards by default), so concurrent
//     connections' request-direction reads only contend when their flows
//     hash to the same shard. Each flow's key is hashed exactly once, at
//     accept; the hash is reused for routing, flow-shard selection, and
//     sample aggregation. No global lock is taken on the read path.
//   - Routing reads an immutable control.Snapshot through an atomic
//     pointer: for table-based policies (maglev, latency-aware,
//     proportional) a new connection's pick — including health-eject
//     fallback — is a pure read, no mutex, no channel, zero allocations.
//     Stateful policies (roundrobin, leastconn, p2c) fall back to a mutex
//     around the policy.
//   - Packet-rate latency samples are folded into the Controller's
//     per-shard, cache-line-padded accumulators and merged into the policy
//     once per control tick (Config.ControlInterval). Aggregation is
//     lossless — nothing is shed under load — so routing state lags the
//     freshest sample by at most one control interval.
//   - control.Policy implementations stay single-threaded (their
//     documented contract): the Controller serializes every policy call.
//     Connection-rate calls (FlowClosed, stateful Picks) are applied
//     synchronously under its mutex.
//   - All Stats counters are atomics; Stats() returns a deep copy built
//     from them, never aliasing mutable state.
//   - Idle-flow sweeping uses ShardedFlowTable.SweepNext, one shard per
//     tick, so no sweep ever stalls the whole table.
package lbproxy

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"inbandlb/internal/auditlog"
	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/lbproxy/dialpool"
	"inbandlb/internal/packet"
)

// Config parameterizes the proxy.
type Config struct {
	// Backends are the server addresses, in policy backend-index order. On
	// Linux a host name is resolved once, in New; one that does not resolve
	// is New's error.
	Backends []string
	// Policy routes new connections; latency-aware policies receive the
	// estimator's samples. Required. The proxy serializes all calls into
	// it (see the package comment), so it needs no internal locking.
	Policy control.Policy
	// FlowTable configures per-connection estimators.
	FlowTable core.FlowTableConfig
	// Shards is the lock-stripe width for both the flow table and the
	// controller's sample aggregator (they stripe on the same flow hash),
	// rounded up to a power of two. Zero defaults to runtime.GOMAXPROCS(0).
	Shards int
	// ControlInterval is the controller tick period: how often aggregated
	// latency samples are merged into the policy and the routing snapshot
	// is republished. It bounds how stale routing can be relative to the
	// newest sample. Zero defaults to 2 ms.
	ControlInterval time.Duration
	// SweepInterval is the period of the incremental idle-flow sweeper
	// (one shard per tick). Zero defaults to 1 s; negative disables it.
	SweepInterval time.Duration
	// DialTimeout bounds backend connects. Defaults to 2 s.
	DialTimeout time.Duration
	// BufferSize is the relay read buffer: one per event-loop shard on Linux,
	// where a read that fills it sends the rest of the burst down the
	// splice(2) path, and one per relay direction elsewhere. Defaults to
	// 32 KiB.
	BufferSize int
	// HealthInterval enables active health probes (TCP dial) at this
	// period, jittered ±10% so probes across instances do not synchronize.
	// Probe results flip ejection only after consecutive-result thresholds
	// (HealthFailThreshold / HealthRecoverThreshold), so one lost SYN does
	// not flap routing. Zero disables probing — with passive detection
	// enabled (Detector) probes are a backstop, not the primary signal.
	HealthInterval time.Duration
	// HealthTimeout bounds each probe dial. Defaults to min(1s,
	// HealthInterval).
	HealthTimeout time.Duration
	// HealthFailThreshold is how many consecutive probe failures eject a
	// backend; HealthRecoverThreshold how many consecutive successes
	// readmit it. Defaults 3 and 2.
	HealthFailThreshold    int
	HealthRecoverThreshold int
	// Detector configures passive in-band failure detection in the
	// controller: dial errors, relay resets, and per-tick latency
	// aggregates eject without waiting for a probe, and recovery re-admits
	// through half-open trials and slow-start. Zero value disables it.
	Detector control.DetectorConfig
	// IdleTimeout bounds how long a relay direction may sit idle (no bytes)
	// before the connection is torn down, so a blackholed backend cannot
	// pin a connection forever. A server-side idle expiry is reported to the
	// passive detector as a relay failure. Zero disables deadlines.
	IdleTimeout time.Duration
	// DrainTimeout is the grace period Close gives in-flight relays before
	// force-closing them. Zero force-closes immediately (the legacy
	// behavior).
	DrainTimeout time.Duration
	// Acceptors is the number of event-loop shards on Linux: each gets its
	// own SO_REUSEPORT listener socket (the kernel hashes incoming SYNs
	// across their accept queues), its own loop, and its own dial-pool
	// stripe. Zero or 1 means one shard on a plain listener. Off Linux one
	// goroutine accepts whatever the value.
	Acceptors int
	// PoolIdle enables backend connection pooling when > 0 (Linux only): up
	// to PoolIdle idle connections are kept per backend (probed live at
	// checkout) so a client connection does not always pay a fresh connect.
	// Zero disables pooling, preserving the historical conn-per-client
	// behavior, including immediate FIN propagation to the backend on client
	// EOF.
	PoolIdle int
	// PoolMaxAge evicts pooled connections this long after they first
	// entered the pool. Zero means no age cap.
	PoolMaxAge time.Duration
	// PoolQuiesce is the response-direction silence window after a clean
	// client EOF that marks a pooled exchange as over: any response byte
	// re-arms it, a full window of silence recycles the backend connection
	// into the pool. It trades a small tail latency on connection teardown
	// for dial elimination; clients that half-close and then expect
	// responses slower than this window should not enable pooling.
	// Defaults to 2 ms when pooling is enabled.
	PoolQuiesce time.Duration
	// CongestionSignals enables live transport-distress sampling on Linux:
	// every relayed backend connection's TCP_INFO is polled on a fixed
	// cadence and retransmission growth is fed to the controller's
	// congestion channel (the same one the simulator's packet tracker
	// feeds), so a congested backend can be weighed down or ejected before
	// its latency median moves. Arm the detector thresholds via
	// Detector.CongestionPerTick et al.; sampling without them still
	// surfaces counters in Stats. No-op off Linux and on kernels where
	// TCP_INFO fails (latched, like splice).
	CongestionSignals bool
	// CongestionSampleInterval is the TCP_INFO polling cadence (default
	// 25 ms — one getsockopt per backend conn per tick, far below the
	// distress timescales the detector integrates over).
	CongestionSampleInterval time.Duration
	// Audit receives every control-plane decision (snapshot publishes,
	// weight changes, detector transitions, manual flips, config reloads)
	// as hash-chained records. Use an auditlog.Log for the production
	// async sink; the admin handler's /decisions endpoint reads its tail.
	// Nil disables decision auditing.
	Audit auditlog.Sink
}

// Stats are cumulative proxy counters. Every accepted connection ends in
// exactly one of three buckets — relayed through some backend
// (PerBackend), failed every dial attempt (DialErrors), or dropped for
// lack of any admitted backend (Dropped) — so the accounting identity
//
//	Accepted == sum(PerBackend) + DialErrors + Dropped
//
// holds once in-flight connections settle (always after Close).
type Stats struct {
	Accepted uint64
	Active   int64
	// DialErrors counts connections that failed to reach any backend: the
	// routed dial failed and the one-shot failover either had no target or
	// failed too. A connection saved by failover is not a DialError — it
	// lands in PerBackend (for the rescue backend) and in Failovers.
	DialErrors uint64
	// Dropped counts connections discarded because no backend admitted
	// any traffic (whole pool ejected).
	Dropped uint64
	// Samples counts estimator outputs; SamplesDelivered those merged into
	// the policy by controller ticks. SamplesDropped is always zero —
	// shard aggregation is lossless — and is kept so the accounting
	// identity Samples == SamplesDelivered + SamplesDropped (which holds
	// after Close; while relays are hot, up to one tick's worth of samples
	// is in flight in the aggregator) reads the same as before.
	Samples          uint64
	SamplesDelivered uint64
	SamplesDropped   uint64
	Fallbacks        uint64   // connections rerouted away from an ejected backend
	Failovers        uint64   // connections rescued by the post-dial-error retry
	PerBackend       []uint64 // connections routed per backend
	Down             []bool   // per backend: admits no traffic (probe or passive)
	Health           []string // per backend: passive-detector state name
	// Relay syscall accounting (one counter bump per kernel call): reads
	// and writes through the relay buffer, splice(2) calls on the zero-copy
	// path. strace without strace — benchmarks report these per op.
	RelayReads, RelayWrites, RelaySplices uint64
	// Dial-pool counters (all zero with pooling disabled): checkout
	// hits/misses, conns the checkout probe found dead, pooled conns that
	// failed their first write (accounted as dial failures), and conns
	// recycled back into the pool after a quiesced exchange.
	PoolHits, PoolMisses, PoolDead, PoolFirstWriteFails, PoolRecycled uint64
	// Congestion-signal counters (zero unless Config.CongestionSignals):
	// CongSamples counts successful TCP_INFO reads, CongRetrans the total
	// retransmitted segments attributed to backends through them.
	CongSamples, CongRetrans uint64
	// Netpoll holds per-shard event-loop counters (nil off Linux).
	Netpoll []NetpollShardStats
	// AcceptErrors counts accept failures the acceptors backed off from and
	// retried (EMFILE, ENFILE, ENOBUFS, ...). ECONNABORTED — a client that
	// reset before its connection was accepted — is retried at once and not
	// counted.
	AcceptErrors uint64
	// ConnectsInflight is the number of backend connects in progress right
	// now; ConnectTimeouts counts those that DialTimeout ended.
	ConnectsInflight int64
	ConnectTimeouts  uint64
}

// NetpollShardStats are one poller shard's counters: epoll_wait wakeups,
// timing-wheel fires, and currently registered fds.
type NetpollShardStats struct {
	Wakeups       uint64 `json:"wakeups"`
	TimerFires    uint64 `json:"timer_fires"`
	RegisteredFDs int64  `json:"registered_fds"`
}

// Proxy is a running load balancer instance.
type Proxy struct {
	cfg   Config
	addr  net.Addr // bound address; nil before Listen
	flows *core.ShardedFlowTable
	ctrl  *control.Controller
	pool  *dialpool.Pool // nil unless pooling runs
	start time.Time

	// dataplane is the platform's connection machinery: the event-loop
	// shards on Linux, listeners and the force-close set elsewhere.
	dataplane

	accepted        atomic.Uint64
	acceptErrors    atomic.Uint64
	connecting      atomic.Int64
	connectTimeouts atomic.Uint64
	active          atomic.Int64
	dialErrors      atomic.Uint64
	dropped         atomic.Uint64
	samples         atomic.Uint64
	fallbacks       atomic.Uint64
	failovers       atomic.Uint64
	perBackend      []atomic.Uint64
	down            []atomic.Bool // probe layer's own view (streak bookkeeping)
	stop            chan struct{}

	// Relay syscall and pool accounting; see Stats.RelayReads et al.
	sysReads            atomic.Uint64
	sysWrites           atomic.Uint64
	sysSplices          atomic.Uint64
	poolFirstWriteFails atomic.Uint64
	poolRecycled        atomic.Uint64
	congSamples         atomic.Uint64
	congRetrans         atomic.Uint64

	closed atomic.Bool
	relays sync.WaitGroup // admitted connections not yet torn down
}

// New creates a proxy.
func New(cfg Config) (*Proxy, error) {
	if cfg.Policy == nil {
		return nil, errors.New("lbproxy: policy required")
	}
	if len(cfg.Backends) != cfg.Policy.NumBackends() {
		return nil, fmt.Errorf("lbproxy: %d backends for %d policy slots",
			len(cfg.Backends), cfg.Policy.NumBackends())
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.BufferSize <= 0 {
		cfg.BufferSize = 32 << 10
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = time.Second
	}
	if cfg.HealthInterval > 0 && cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
		if cfg.HealthTimeout > cfg.HealthInterval {
			cfg.HealthTimeout = cfg.HealthInterval
		}
	}
	if cfg.HealthFailThreshold <= 0 {
		cfg.HealthFailThreshold = 3
	}
	if cfg.HealthRecoverThreshold <= 0 {
		cfg.HealthRecoverThreshold = 2
	}
	if cfg.Acceptors < 1 {
		cfg.Acceptors = 1
	}
	if cfg.PoolIdle > 0 && cfg.PoolQuiesce <= 0 {
		cfg.PoolQuiesce = 2 * time.Millisecond
	}
	if cfg.CongestionSignals && cfg.CongestionSampleInterval <= 0 {
		cfg.CongestionSampleInterval = 25 * time.Millisecond
	}
	flows, err := core.NewShardedFlowTable(cfg.FlowTable, cfg.Shards)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:        cfg,
		flows:      flows,
		start:      time.Now(),
		perBackend: make([]atomic.Uint64, len(cfg.Backends)),
		down:       make([]atomic.Bool, len(cfg.Backends)),
		stop:       make(chan struct{}),
	}
	if err := p.initDataplane(); err != nil {
		return nil, err
	}
	// The controller stripes its sample aggregator like the flow table and
	// ticks on the proxy's monotonic clock, so sample timestamps and merge
	// timestamps share a timebase.
	p.ctrl = control.NewController(cfg.Policy, control.ControllerConfig{
		Shards:   flows.Shards(),
		Interval: cfg.ControlInterval,
		Now:      p.now,
		Detector: cfg.Detector,
		Audit:    cfg.Audit,
	})
	return p, nil
}

// Stats returns a snapshot of the counters. The snapshot is a deep copy
// assembled from atomics; it never aliases the proxy's mutable state, so
// callers may read it while accepts, relays, and health probes proceed.
func (p *Proxy) Stats() Stats {
	st := Stats{
		Accepted:         p.accepted.Load(),
		Active:           p.active.Load(),
		DialErrors:       p.dialErrors.Load(),
		Dropped:          p.dropped.Load(),
		Samples:          p.samples.Load(),
		SamplesDelivered: p.ctrl.Delivered(),
		SamplesDropped:   p.ctrl.Dropped(),
		Fallbacks:        p.fallbacks.Load(),
		Failovers:        p.failovers.Load(),
		PerBackend:       make([]uint64, len(p.perBackend)),
		Down:             make([]bool, len(p.perBackend)),
		Health:           make([]string, len(p.perBackend)),

		RelayReads:          p.sysReads.Load(),
		RelayWrites:         p.sysWrites.Load(),
		RelaySplices:        p.sysSplices.Load(),
		PoolFirstWriteFails: p.poolFirstWriteFails.Load(),
		PoolRecycled:        p.poolRecycled.Load(),
		CongSamples:         p.congSamples.Load(),
		CongRetrans:         p.congRetrans.Load(),
		Netpoll:             p.netpollStats(),
		AcceptErrors:        p.acceptErrors.Load(),
		ConnectsInflight:    p.connecting.Load(),
		ConnectTimeouts:     p.connectTimeouts.Load(),
	}
	if p.pool != nil {
		ps := p.pool.Stats()
		st.PoolHits = ps.Hits
		st.PoolMisses = ps.Misses
		st.PoolDead = ps.DeadOnCheckout
	}
	for i := range p.perBackend {
		st.PerBackend[i] = p.perBackend[i].Load()
		// Down reflects what routing sees — manual probe vetoes AND
		// passive ejections — not just the probe loop's own bookkeeping.
		st.Down[i] = p.ctrl.Ejected(i)
		st.Health[i] = p.ctrl.HealthState(i).String()
	}
	return st
}

// Listen binds addr — Config.Acceptors listener shards on Linux (one
// SO_REUSEPORT socket each), a single listener elsewhere — and hands the
// sockets to the dataplane.
func (p *Proxy) Listen(addr string) error {
	ls, err := listenShards(addr, p.cfg.Acceptors)
	if err != nil {
		return err
	}
	p.addr = ls[0].Addr()
	return p.adopt(ls)
}

// Addr returns the bound address (nil before Listen). All listener shards
// share one address.
func (p *Proxy) Addr() net.Addr { return p.addr }

// Serve starts the control loops and admits connections until Close.
func (p *Proxy) Serve() error {
	if p.addr == nil {
		return errors.New("lbproxy: Serve before Listen")
	}
	p.ctrl.Start()
	if p.cfg.HealthInterval > 0 {
		go p.probeLoop()
	}
	if p.cfg.SweepInterval > 0 {
		go p.sweepLoop()
	}
	return p.serve()
}

// nextAcceptBackoff is the pause after one more consecutive accept failure:
// 5 ms doubling to 1 s.
func nextAcceptBackoff(prev time.Duration) time.Duration {
	return min(max(2*prev, 5*time.Millisecond), time.Second)
}

// ListenAndServe combines Listen and Serve.
func (p *Proxy) ListenAndServe(addr string) error {
	if err := p.Listen(addr); err != nil {
		return err
	}
	return p.Serve()
}

// Close stops the proxy: it stops accepting, gives in-flight relays up to
// Config.DrainTimeout to finish on their own (graceful drain), force-closes
// whatever remains, and runs a final controller tick so every aggregated
// latency sample is merged into the policy (post-Close Stats satisfy
// Samples == SamplesDelivered + SamplesDropped and the Accepted identity).
func (p *Proxy) Close() error {
	if p.closed.Swap(true) {
		p.ctrl.Close() // idempotent; runs the final flush tick
		return nil
	}
	close(p.stop)
	p.stopAccepting() // from here no connection is admitted: relays only ever leave
	if p.cfg.DrainTimeout > 0 {
		drained := make(chan struct{})
		go func() {
			p.relays.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(p.cfg.DrainTimeout):
		}
	}
	// Ends every relay still open, with its samples flushed into the
	// aggregator before the controller's final tick below.
	p.stopRelays()
	if p.pool != nil {
		p.pool.Close()
	}
	p.ctrl.Close()
	return nil
}

// now returns monotonic time since proxy start, the estimator clock.
func (p *Proxy) now() time.Duration { return time.Since(p.start) }

// flowKeyFor derives the estimator flow key from the connection 4-tuple.
func flowKeyFor(conn net.Conn) packet.FlowKey {
	key := packet.FlowKey{Proto: packet.ProtoTCP}
	key.SrcIP, key.SrcPort = ip4Port(conn.RemoteAddr())
	key.DstIP, key.DstPort = ip4Port(conn.LocalAddr())
	return key
}

// ip4Port splits an address into the flow key's IPv4 + port. A *net.TCPAddr
// (every accepted socket) converts directly; anything else takes the string
// round trip.
func ip4Port(a net.Addr) (ip [4]byte, port uint16) {
	var ap netip.AddrPort
	if ta, ok := a.(*net.TCPAddr); ok {
		ap = ta.AddrPort()
	} else if parsed, err := netip.ParseAddrPort(a.String()); err == nil {
		ap = parsed
	}
	return addrPort4(ap)
}

// addrPort4 is the flow key's form of an address: a 4-in-6 mapped address is
// unmapped, one with no IPv4 form keeps a zero IP.
func addrPort4(ap netip.AddrPort) (ip [4]byte, port uint16) {
	if addr := ap.Addr().Unmap(); addr.Is4() {
		ip = addr.As4()
	}
	return ip, ap.Port()
}

// route picks the backend for a new flow. Health ejection is applied inline:
// for table-based policies it is a pure snapshot read; for stateful ones the
// controller undoes the original pick's occupancy accounting before falling
// back, so nothing leaks when the pick lands on an ejected backend. Returns
// -1, having counted the connection as Dropped, when the whole pool is
// ejected (or the policy misbehaved). charged reports whether the policy
// holds an open-flow debit for backend: fallback and failover targets are
// never charged, so the end-of-connection FlowClosed must be skipped for
// them or occupancy goes negative.
func (p *Proxy) route(hash uint64, key packet.FlowKey) (backend int, charged bool) {
	backend, fellBack := p.ctrl.RouteHashed(hash, key, p.now())
	if backend < 0 || backend >= len(p.cfg.Backends) {
		p.dropped.Add(1)
		return -1, false
	}
	if fellBack {
		p.fallbacks.Add(1)
	}
	return backend, !fellBack
}

// dialFailed is the accounting of one failed attempt to reach backend — a
// refused or timed-out connect, or a pooled connection dying on first write.
// The failure goes to the passive detector; if it was the connection's routed
// attempt, the policy's open-flow debit is undone and the one-shot failover
// target returned. -1 means the connection is terminally unreachable: the
// failover attempt itself failed, or there is no target (the caller counts a
// DialError).
func (p *Proxy) dialFailed(backend int, wasFailover bool, charged *bool) (alt int) {
	p.ctrl.ReportDialError(backend, p.now())
	if wasFailover {
		return -1
	}
	if *charged {
		p.ctrl.FlowClosed(backend, p.now())
		*charged = false
	}
	return p.ctrl.FailoverTarget(backend)
}

// reportRelayErr forwards an abnormal server-side relay failure to the
// passive detector. Clean EOFs are normal teardown; net.ErrClosed means the
// proxy itself tore the connection down.
func (p *Proxy) reportRelayErr(backend int, err error) {
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || p.closed.Load() {
		return
	}
	p.ctrl.ReportRelayError(backend, p.now())
}

// observe feeds one request-direction chunk arrival into the flow's
// estimator shard and, when a latency sample pops out, into the
// controller's matching aggregator stripe. Both sides stripe on the same
// precomputed hash, so a relay touches one shard's cache lines end to end.
// A spliced chunk fires it once, like a chunk read into the buffer: the
// estimator sees the same arrival timestamps whether or not the payload
// ever enters userspace.
func (p *Proxy) observe(hash uint64, key packet.FlowKey, backend int) {
	p.observeAt(hash, key, backend, p.now())
}

// observeAt is observe with an explicit arrival time: a pooled connection's
// first chunk is timestamped when it is read but attributed only after the
// write settles (the backend may change if the pooled connection dies on
// first write).
func (p *Proxy) observeAt(hash uint64, key packet.FlowKey, backend int, now time.Duration) {
	sample, ok := p.flows.ObserveHashed(hash, key, now)
	if ok {
		p.samples.Add(1)
		p.ctrl.ObserveSharded(hash, backend, now, sample)
	}
}

// probeLoop actively dials each backend roughly every HealthInterval
// (jittered ±10% so many proxies' probes do not synchronize) and flips its
// ejection bit only after HealthFailThreshold consecutive failures or
// HealthRecoverThreshold consecutive successes — one lost SYN no longer
// flaps routing. State changes go to the controller, which republishes the
// routing snapshot immediately — ejections take effect on the next
// accepted connection, not the next control tick.
func (p *Proxy) probeLoop() {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	fails := make([]int, len(p.cfg.Backends))
	oks := make([]int, len(p.cfg.Backends))
	timer := time.NewTimer(p.jitteredProbePeriod(rng))
	defer timer.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-timer.C:
		}
		timer.Reset(p.jitteredProbePeriod(rng))
		for i, addr := range p.cfg.Backends {
			conn, err := net.DialTimeout("tcp", addr, p.cfg.HealthTimeout)
			if err != nil {
				oks[i] = 0
				if fails[i]++; fails[i] >= p.cfg.HealthFailThreshold && !p.down[i].Load() {
					p.down[i].Store(true)
					p.ctrl.SetEjected(i, true)
				}
				continue
			}
			_ = conn.Close()
			fails[i] = 0
			if oks[i]++; oks[i] >= p.cfg.HealthRecoverThreshold && p.down[i].Load() {
				p.down[i].Store(false)
				p.ctrl.SetEjected(i, false)
			}
		}
	}
}

// jitteredProbePeriod spreads probe rounds over HealthInterval ±10%.
func (p *Proxy) jitteredProbePeriod(rng *rand.Rand) time.Duration {
	base := float64(p.cfg.HealthInterval)
	return time.Duration(base * (0.9 + 0.2*rng.Float64()))
}

// sweepLoop incrementally expires idle flows, one shard per tick, so
// connections that vanished without a clean close (and thus without
// Forget) do not pin estimator state forever.
func (p *Proxy) sweepLoop() {
	t := time.NewTicker(p.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.flows.SweepNext(p.now())
			if p.pool != nil {
				p.pool.Sweep() // one stripe per tick, like the flow table
			}
		}
	}
}
