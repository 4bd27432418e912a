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
//   - Per-connection estimator state lives in the connection: the event
//     loop's npRelay, or the fallback relay's goroutine. It is created at
//     the connection's first request chunk and dropped at teardown, and its
//     one writer is the loop (or goroutine) relaying the connection's
//     requests, so it sits in no map and takes no lock. Each flow's key is
//     hashed exactly once, at accept, to route it.
//   - Routing reads an immutable control.Snapshot through an atomic
//     pointer: for table-based policies (maglev, latency-aware,
//     proportional) a new connection's pick — including health-eject
//     fallback — is a pure read, no mutex, no channel, zero allocations.
//     Stateful policies (roundrobin, leastconn, p2c, wlc) fall back to a
//     mutex around the policy.
//   - Occupancy is the dataplane's own count: an atomic open-flow count per
//     backend, raised when route admits a connection, moved by a failover
//     and released at teardown. New binds it into the policy through
//     Controller.BindOccupancy, so leastconn, p2c and wlc read it under
//     the Controller's mutex when they pick. Closing a connection touches
//     only that atomic, so with a table policy and the passive detector
//     off a loop's steady state takes no Controller lock at all. With
//     several acceptors, two shards' picks can read the same count before
//     either raises it.
//   - Packet-rate latency samples are folded into the Controller's
//     per-shard, cache-line-padded accumulators — each event-loop shard
//     writes its own stripe — and merged into the policy once per control
//     tick (Config.ControlInterval). Aggregation is lossless — nothing is
//     shed under load — so routing state lags the freshest sample by at
//     most one control interval.
//   - control.Policy implementations stay single-threaded (their
//     documented contract): the Controller serializes every policy call.
//     Stateful Picks are applied synchronously under its mutex.
//   - All Stats counters are atomics; Stats() returns a deep copy built
//     from them, never aliasing mutable state.
//   - Nothing sweeps estimators: one whose connection sat silent longer
//     than core.EstimatorIdleReset starts its ladder over at the next chunk,
//     exactly as a fresh flow would.
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
	// ControlInterval is the controller tick period: how often aggregated
	// latency samples are merged into the policy and the routing snapshot
	// is republished. It bounds how stale routing can be relative to the
	// newest sample. Zero defaults to 2 ms.
	ControlInterval time.Duration
	// DialTimeout bounds backend connects. Defaults to 2 s.
	DialTimeout time.Duration
	// HealthInterval enables active health probes (TCP dial) at this
	// period, jittered ±10% so probes across instances do not synchronize.
	// Probe results flip ejection only after consecutive-result thresholds
	// (3 failures eject, 2 successes readmit), so one lost SYN does not
	// flap routing. Each probe dial is bounded by min(1 s, HealthInterval).
	// Zero disables probing — with passive detection
	// enabled (Detector) probes are a backstop, not the primary signal.
	HealthInterval time.Duration
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
	// across their accept queues), its own loop, its own dial-pool stripe
	// and its own stripe of the controller's sample aggregator. Zero or 1
	// means one shard on a plain listener. Off Linux one goroutine accepts
	// whatever the value.
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
	// Audit receives every control-plane decision (snapshot publishes,
	// weight changes, detector transitions, manual flips, config reloads)
	// as hash-chained records. Use an auditlog.Log for the production
	// async sink; the admin handler's /decisions endpoint reads its tail.
	// Nil disables decision auditing.
	Audit auditlog.Sink
}

const (
	// relayBufferSize is the relay read buffer: one per event-loop shard on
	// Linux, where a read that fills it sends the rest of the burst down the
	// splice(2) path, and one per relay direction elsewhere.
	relayBufferSize = 32 << 10
	// healthTimeout bounds each probe dial, or HealthInterval does if shorter.
	healthTimeout = time.Second
	// congSampleInterval is the TCP_INFO polling cadence: one getsockopt per
	// backend connection per tick, far below the distress timescales the
	// detector integrates over.
	congSampleInterval = 25 * time.Millisecond
)

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
	// the policy by controller ticks. Shard aggregation is lossless, so the
	// two are equal after Close; while relays are hot, up to one tick's
	// worth of samples is in flight in the aggregator.
	Samples          uint64
	SamplesDelivered uint64
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
	estimators      atomic.Int64 // connections holding a live estimator
	fallbacks       atomic.Uint64
	failovers       atomic.Uint64
	perBackend      []atomic.Uint64
	openFlows       []atomic.Int64 // per backend: connections routed there and not yet torn down
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
	if cfg.Acceptors < 1 {
		cfg.Acceptors = 1
	}
	if cfg.PoolIdle > 0 && cfg.PoolQuiesce <= 0 {
		cfg.PoolQuiesce = 2 * time.Millisecond
	}
	p := &Proxy{
		cfg:        cfg,
		start:      time.Now(),
		perBackend: make([]atomic.Uint64, len(cfg.Backends)),
		openFlows:  make([]atomic.Int64, len(cfg.Backends)),
		stop:       make(chan struct{}),
	}
	if err := p.initDataplane(); err != nil {
		return nil, err
	}
	// The controller's sample aggregator has one stripe per event-loop
	// shard, and it ticks on the proxy's monotonic clock, so sample
	// timestamps and merge timestamps share a timebase.
	p.ctrl = control.NewController(cfg.Policy, control.ControllerConfig{
		Shards:   cfg.Acceptors,
		Interval: cfg.ControlInterval,
		Now:      p.now,
		Detector: cfg.Detector,
		Audit:    cfg.Audit,
	})
	p.ctrl.BindOccupancy(func(b int) int { return int(p.openFlows[b].Load()) })
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
		// Down reflects what routing sees: probe vetoes AND passive ejections.
		h := p.ctrl.Health(i)
		st.Down[i] = h.Ejected()
		st.Health[i] = h.State.String()
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
	return p.serve()
}

// nextAcceptBackoff is the pause after one more consecutive accept failure:
// 5 ms doubling to 1 s.
func nextAcceptBackoff(prev time.Duration) time.Duration {
	return min(max(2*prev, 5*time.Millisecond), time.Second)
}

// Close stops the proxy: it stops accepting, gives in-flight relays up to
// Config.DrainTimeout to finish on their own (graceful drain), force-closes
// whatever remains, and runs a final controller tick so every aggregated
// latency sample is merged into the policy (post-Close Stats satisfy
// Samples == SamplesDelivered and the Accepted identity).
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

// flowKeyFor derives the routing flow key from the connection 4-tuple.
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
// unmapped, and one with no IPv4 form is folded into four bytes by XOR of its
// four 32-bit words, so distinct IPv6 peers hash apart.
func addrPort4(ap netip.AddrPort) (ip [4]byte, port uint16) {
	addr := ap.Addr().Unmap()
	if addr.Is4() {
		return addr.As4(), ap.Port()
	}
	for i, b := range addr.As16() {
		ip[i%4] ^= b
	}
	return ip, ap.Port()
}

// route picks the backend for a new flow and counts the flow open there
// until its teardown releases it (p.openFlows). Health ejection is applied
// inline: for table-based policies it is a pure snapshot read. Returns -1,
// having counted the connection as Dropped and opened nothing, when the
// whole pool is ejected (or the policy misbehaved).
func (p *Proxy) route(key packet.FlowKey) int {
	backend, fellBack := p.ctrl.Route(key, p.now())
	if backend < 0 || backend >= len(p.cfg.Backends) {
		p.dropped.Add(1)
		return -1
	}
	if fellBack {
		p.fallbacks.Add(1)
	}
	p.openFlows[backend].Add(1)
	return backend
}

// dialFailed is the accounting of one failed attempt to reach backend — a
// refused or timed-out connect, or a pooled connection dying on first write.
// The failure goes to the passive detector; if it was the connection's routed
// attempt, the one-shot failover target is returned and the connection's
// open count moves there. -1 means the connection is terminally unreachable:
// the failover attempt itself failed, or there is no target (the caller
// counts a DialError). The count then stays at backend for the teardown to
// release.
func (p *Proxy) dialFailed(backend int, wasFailover bool) (alt int) {
	p.ctrl.ReportDialError(backend, p.now())
	if wasFailover {
		return -1
	}
	if alt = p.ctrl.FailoverTarget(backend); alt >= 0 {
		p.openFlows[backend].Add(-1)
		p.openFlows[alt].Add(1)
	}
	return alt
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

// observe feeds one request-direction chunk, arrived at now, into the
// connection's estimator and, when a latency sample pops out, into the
// controller's aggregator stripe. The first chunk creates the estimator; a
// chunk after more than core.EstimatorIdleReset of silence starts its ladder
// over, as a fresh flow's would. A spliced chunk fires it once, like a chunk
// read into the buffer: the estimator sees the same arrival timestamps
// whether or not the payload ever enters userspace. The estimator is written
// only by the goroutine that relays the connection's requests (its shard's
// loop on Linux).
func (p *Proxy) observe(f *core.FlowEstimator, stripe uint64, backend int, now time.Duration) {
	if !f.Live() {
		p.estimators.Add(1)
	}
	if sample, ok := f.Observe(now); ok {
		p.samples.Add(1)
		p.ctrl.ObserveSharded(stripe, backend, now, sample)
	}
}

// forget ends a closing connection's estimator, if it ever made one.
func (p *Proxy) forget(f *core.FlowEstimator) {
	if f.Live() {
		f.Reset()
		p.estimators.Add(-1)
	}
}

// probeLoop actively dials each backend roughly every HealthInterval
// (jittered ±10% so many proxies' probes do not synchronize) and reports
// each result to the controller, whose probe streaks set or lift the
// backend's veto (Controller.ReportProbe) and republish the routing
// snapshot immediately — ejections take effect on the next accepted
// connection, not the next control tick.
func (p *Proxy) probeLoop() {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	timeout := min(healthTimeout, p.cfg.HealthInterval)
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
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err == nil {
				_ = conn.Close()
			}
			p.ctrl.ReportProbe(i, err == nil)
		}
	}
}

// jitteredProbePeriod spreads probe rounds over HealthInterval ±10%.
func (p *Proxy) jitteredProbePeriod(rng *rand.Rand) time.Duration {
	base := float64(p.cfg.HealthInterval)
	return time.Duration(base * (0.9 + 0.2*rng.Float64()))
}
