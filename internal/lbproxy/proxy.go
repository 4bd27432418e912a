// Package lbproxy is the live userspace counterpart of the simulated
// dataplane: a layer-4 TCP load balancer whose measurement pipeline is fed
// exclusively by client→server byte arrivals.
//
// A userspace TCP proxy cannot do true direct server return — it must relay
// response bytes — but the paper's constraint is about what the measurement
// sees, and that is preserved structurally: response-direction relaying
// happens in a plain copy loop with no timestamps taken, while every
// request-direction read feeds the per-flow estimator exactly as the
// simulated LB feeds it per packet. This is the substitution DESIGN.md
// documents for the Cilium/XDP dataplane (repro band: userspace prototype).
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
//
// The DSR constraint is unchanged: response-direction relaying remains
// timestamp-free.
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
	// Backends are the server addresses, in policy backend-index order.
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
	// DialTimeout bounds backend dials. Defaults to 2 s.
	DialTimeout time.Duration
	// BufferSize is the relay buffer size. Defaults to 32 KiB.
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
	// Dial overrides the backend dial function (net.DialTimeout on "tcp"
	// by default). Tests and chaos harnesses inject faults.ChaosDialer
	// here; it also carries health-probe dials so the same fault schedule
	// governs both.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// IdleTimeout bounds how long a relay direction may sit idle (no bytes)
	// before the connection is torn down, so a blackholed backend cannot
	// pin goroutines forever. A server-side idle expiry is reported to the
	// passive detector as a relay failure. Zero disables deadlines.
	IdleTimeout time.Duration
	// DrainTimeout is the grace period Close gives in-flight relays before
	// force-closing them. Zero force-closes immediately (the legacy
	// behavior).
	DrainTimeout time.Duration
	// Acceptors is the number of parallel accept loops. On Linux each loop
	// gets its own SO_REUSEPORT listener socket, so the kernel hashes
	// incoming SYNs across independent accept queues; elsewhere the loops
	// share one listener. The acceptor index doubles as the connection's
	// dial-pool stripe, keeping a connection's accept→checkout→checkin
	// path on one stripe's cache lines. Zero or 1 means the historical
	// single-acceptor, plain-Listen behavior.
	Acceptors int
	// Splice enables the zero-copy splice(2) relay on Linux: response
	// bytes (and request bytes after the first-chunk observation) move
	// socket→pipe→socket without entering userspace. Non-TCP connections,
	// non-Linux builds, and kernels that refuse splice fall back to the
	// pooled-buffer copy path transparently. Estimator semantics are
	// unchanged — every request-direction chunk arrival is still
	// timestamped, it just is not copied.
	Splice bool
	// Netpoll enables the event-driven dataplane on Linux (cmd/lbproxy turns
	// it on by default): one epoll readiness loop per acceptor shard owns
	// every connection from accept4 to close as a compact state machine on
	// raw fds (no goroutine and no net.Conn per connection), with dial, idle
	// and drain deadlines on a per-shard timing wheel. A Dial hook, a
	// backend address that is not an IP literal, or a dial pool (PoolIdle >
	// 0) keeps accept and dial on goroutines, which hand each connected pair
	// to the loop; a dial pool together with one of the other two, non-Linux
	// builds, kernels without epoll (latched on ENOSYS), and connections
	// without raw-fd access (chaos wrappers, test pipes) stay on the
	// goroutine-per-connection path — Dataplane and
	// Stats.NetpollFallbacks say when. Estimator semantics are unchanged:
	// every request-direction chunk is observed exactly as a Read on the
	// goroutine path would be.
	Netpoll bool
	// PoolIdle enables backend connection pooling when > 0: up to PoolIdle
	// idle connections are kept per backend (probed live at checkout) so a
	// client connection does not always pay a fresh dial. Zero disables
	// pooling, preserving the historical conn-per-client behavior,
	// including immediate FIN propagation to the backend on client EOF.
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
// holds once in-flight handlers settle (always after Close).
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
	// and writes on the userspace copy path, splice(2) calls on the
	// zero-copy path (readiness probes included). strace without strace —
	// benchmarks report these per op.
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
	// Netpoll holds per-shard poller counters when the event-driven
	// dataplane is active; nil otherwise. NetpollFallbacks counts connections
	// it could not take (an end without raw-fd access) and that ran on the
	// goroutine relay instead.
	Netpoll          []NetpollShardStats
	NetpollFallbacks uint64
	// AcceptErrors counts Accept failures the acceptors backed off from and
	// retried (EMFILE, ECONNABORTED, ...).
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
	cfg       Config
	addr      net.Addr       // bound address; nil before Listen
	listeners []net.Listener // goroutine admit: one per SO_REUSEPORT shard (len 1 otherwise)

	flows *core.ShardedFlowTable
	ctrl  *control.Controller
	pool  *dialpool.Pool // nil unless Config.PoolIdle > 0
	np    []*npShard     // event-loop shards; nil unless Config.Netpoll works here
	npErr error          // why Config.Netpoll did not bring the shards up
	// goAdmit says why goroutines accept and dial although the shards are
	// up; empty when the loops admit connections themselves.
	goAdmit string
	start   time.Time

	// bufs recycles relay buffers (up to two per connection,
	// Config.BufferSize each) so connection churn does not make the
	// allocator the bottleneck. It holds *[]byte to keep Put/Get
	// themselves allocation-free. Relays on the splice path never touch it.
	bufs sync.Pool

	accepted        atomic.Uint64
	acceptErrors    atomic.Uint64
	connecting      atomic.Int64
	connectTimeouts atomic.Uint64
	npFallbacks     atomic.Uint64
	active          atomic.Int64
	dialErrors      atomic.Uint64
	dropped         atomic.Uint64
	samples         atomic.Uint64
	fallbacks       atomic.Uint64
	failovers       atomic.Uint64
	perBackend      []atomic.Uint64
	down            []atomic.Bool // probe layer's own view (streak bookkeeping)
	stop            chan struct{}

	// Syscall-diet accounting; see Stats.RelayReads et al.
	sysReads            atomic.Uint64
	sysWrites           atomic.Uint64
	sysSplices          atomic.Uint64
	poolFirstWriteFails atomic.Uint64
	poolRecycled        atomic.Uint64

	// Congestion-signal registry (nil unless Config.CongestionSignals):
	// live backend conns sampled for TCP_INFO by congLoop.
	congMu      sync.Mutex
	cong        map[net.Conn]*congEntry
	congSamples atomic.Uint64
	congRetrans atomic.Uint64

	closed atomic.Bool
	wg     sync.WaitGroup // accepted connections still on a goroutine
	relays sync.WaitGroup // connections owned by a poller shard
	connMu sync.Mutex
	open   map[net.Conn]struct{} // goroutine-owned conns, for Close's force-close sweep
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
		open:       make(map[net.Conn]struct{}),
	}
	if cfg.CongestionSignals {
		p.cong = make(map[net.Conn]*congEntry)
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
	// The pool is keyed to this proxy's BufferSize: every buffer it hands
	// out has exactly that capacity, so relays never re-slice.
	size := cfg.BufferSize
	p.bufs.New = func() any {
		b := make([]byte, size)
		return &b
	}
	if cfg.PoolIdle > 0 {
		p.pool = dialpool.New(dialpool.Config{
			Backends:          len(cfg.Backends),
			Stripes:           cfg.Acceptors,
			MaxIdlePerBackend: cfg.PoolIdle,
			MaxAge:            cfg.PoolMaxAge,
		})
	}
	if cfg.Netpoll {
		p.npErr = p.netpollInit() // on error p.np stays nil: goroutine dataplane
	}
	return p, nil
}

// Dataplane names the relay new connections run on — "netpoll" or
// "goroutine" — and what keeps it short of the whole event dataplane: why
// the relay is on goroutines, or, with the event relay up, why accept and
// dial still are ("goroutine admit: ..."). "netpoll" with no reason means
// connections live on the loops from accept to close.
func (p *Proxy) Dataplane() (mode, reason string) {
	switch {
	case len(p.np) > 0:
		return "netpoll", p.goAdmit
	case p.npErr != nil:
		return "goroutine", p.npErr.Error()
	}
	return "goroutine", "netpoll disabled"
}

// poolQuiesce is the response-silence window that closes a pooled
// exchange; see Config.PoolQuiesce.
func (p *Proxy) poolQuiesce() time.Duration { return p.cfg.PoolQuiesce }

// getBuf takes a relay buffer from the pool (allocating only when the pool
// is empty); putBuf returns it for the next connection.
func (p *Proxy) getBuf() *[]byte  { return p.bufs.Get().(*[]byte) }
func (p *Proxy) putBuf(b *[]byte) { p.bufs.Put(b) }

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
		NetpollFallbacks:    p.npFallbacks.Load(),
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

// dial opens one backend connection through the configured dial hook.
func (p *Proxy) dial(addr string, timeout time.Duration) (net.Conn, error) {
	if p.cfg.Dial != nil {
		return p.cfg.Dial(addr, timeout)
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// loopAdmits reports whether the poller shards accept and connect
// themselves (see Config.Netpoll).
func (p *Proxy) loopAdmits() bool { return len(p.np) > 0 && p.goAdmit == "" }

// Listen binds addr — Config.Acceptors listener shards on Linux (one
// SO_REUSEPORT socket each), a single listener elsewhere.
func (p *Proxy) Listen(addr string) error {
	ls, err := listenShards(addr, p.cfg.Acceptors)
	if err != nil {
		return err
	}
	p.addr = ls[0].Addr()
	if p.loopAdmits() {
		return p.netpollAdopt(ls)
	}
	p.listeners = ls
	return nil
}

// Addr returns the bound address (nil before Listen). All listener shards
// share one address.
func (p *Proxy) Addr() net.Addr { return p.addr }

// Serve accepts and relays connections until Close. Where the poller shards
// admit, each registers its listener on its own loop and Serve only waits;
// otherwise it runs Config.Acceptors accept loops in parallel, each owning
// one listener shard (or a share of the single fallback listener) and
// passing its index down as the connection's shard and dial-pool stripe.
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
	if p.cong != nil {
		go p.congLoop()
	}
	if err := p.netpollStart(); err != nil {
		return err
	}
	if p.loopAdmits() {
		<-p.stop
		return nil
	}
	n := p.cfg.Acceptors
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			errCh <- p.acceptLoop(p.listeners[i%len(p.listeners)], i)
		}(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errCh; err != nil && first == nil {
			first = err
			// One shard failing takes the proxy down coherently rather
			// than serving on a subset of accept queues.
			for _, l := range p.listeners {
				_ = l.Close()
			}
		}
	}
	return first
}

// acceptLoop accepts from one listener shard until it closes. Any other
// Accept error (EMFILE, ECONNABORTED, ...) is counted and retried after a
// 5 ms→1 s backoff: a proxy that holds thousands of fds will run out of
// them some day, and that must cost a pause, not the acceptor.
func (p *Proxy) acceptLoop(lis net.Listener, idx int) error {
	var backoff time.Duration
	for {
		conn, err := lis.Accept()
		if err != nil {
			if p.closed.Load() {
				return nil
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
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
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(conn, idx)
		}()
	}
}

// nextAcceptBackoff is the pause after one more consecutive accept failure:
// 5 ms doubling to 1 s, for both acceptors.
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
	var err error
	for _, l := range p.listeners {
		if cerr := l.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	p.netpollStopAccept() // from here no shard admits: relays only ever leave
	if p.cfg.DrainTimeout > 0 {
		drained := make(chan struct{})
		go func() {
			p.wg.Wait() // first: handoffs (relays.Add) happen under wg
			p.relays.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(p.cfg.DrainTimeout):
		}
	}
	p.connMu.Lock()
	for c := range p.open {
		_ = c.Close()
	}
	p.connMu.Unlock()
	p.wg.Wait()
	// Netpoll relays are owned by the pollers, not wg or the sweep above:
	// every handoff Post happened-before wg.Wait returned and the shards
	// stopped admitting above, so stopping the pollers here finalizes every
	// relay (idle and still-connecting ones included) with all samples
	// flushed into the aggregator before the controller's final tick below.
	p.netpollStop()
	if p.pool != nil {
		p.pool.Close()
	}
	p.ctrl.Close()
	return err
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
// refused or timed-out connect, or a pooled connection dying on first write
// — for both admit drivers. The failure goes to the passive detector; if it
// was the connection's routed attempt, the policy's open-flow debit is
// undone and the one-shot failover target returned. -1 means the connection
// is terminally unreachable: the failover attempt itself failed, or there
// is no target (the caller counts a DialError).
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

// dialBackend is the goroutine driver of a backend dial: the routed attempt,
// then the one-shot failover. Returns the connection and the backend it
// reached, or (nil, -1) with the connection counted in DialErrors.
func (p *Proxy) dialBackend(backend int, charged *bool) (net.Conn, int) {
	for failover := false; backend >= 0; failover = true {
		p.connecting.Add(1)
		server, err := p.dial(p.cfg.Backends[backend], p.cfg.DialTimeout)
		p.connecting.Add(-1)
		if err == nil {
			if failover {
				p.failovers.Add(1)
			}
			return server, backend
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			p.connectTimeouts.Add(1)
		}
		backend = p.dialFailed(backend, failover, charged)
	}
	p.dialErrors.Add(1) // terminal: no backend accepted the dial
	return nil, -1
}

// track adds c to the set Close force-closes. A connection that raced the
// sweep is closed here, so no work starts that Close will never see.
func (p *Proxy) track(c net.Conn) {
	p.connMu.Lock()
	p.open[c] = struct{}{}
	p.connMu.Unlock()
	if p.closed.Load() {
		_ = c.Close()
	}
}

func (p *Proxy) untrack(c net.Conn) {
	p.connMu.Lock()
	delete(p.open, c)
	p.connMu.Unlock()
}

// retire closes a tracked connection this goroutine is done with.
func (p *Proxy) retire(c net.Conn) {
	_ = c.Close()
	p.untrack(c)
}

// handle is the goroutine admit: route one accepted connection, acquire a
// backend connection, and hand the pair to the acceptor's poller shard — or,
// without one, relay it here. A burst of accepts keeps one of these
// goroutines per connection blocked in the backend dial, so the frame stays
// small; everything the goroutine relay needs lives in relayBlocking.
func (p *Proxy) handle(client net.Conn, acceptor int) {
	// Tracked before anything can block on it.
	p.track(client)
	key := flowKeyFor(client)
	hash := key.Hash() // hashed once; reused for routing, sharding, sampling
	backend, charged := p.route(hash, key)
	if backend < 0 {
		p.retire(client)
		return
	}

	// Acquire a backend connection: pooled checkout first (probed live at
	// checkout), otherwise a fresh dial with the one-shot failover.
	var (
		server   net.Conn
		born     time.Time
		fromPool bool
	)
	if p.pool != nil {
		server, born, fromPool = p.pool.Get(backend, acceptor)
	}
	if server == nil {
		if server, backend = p.dialBackend(backend, &charged); server == nil {
			p.retire(client)
			return
		}
	}
	if p.netpollHandoff(client, server, backend, acceptor, hash, key, charged, fromPool, born) {
		return
	}
	if len(p.np) > 0 {
		p.npFallbacks.Add(1)
	}
	p.track(server)
	// Congestion sampling follows the backend connection from here until
	// its relay's teardown takes the final sample.
	p.congRegister(server, backend, hash)
	p.relayBlocking(client, server, backend, acceptor, hash, key, charged, fromPool, born)
	p.retire(client)
}

// relayBlocking is the goroutine-per-connection relay: this goroutine runs
// the request direction, a second one the response direction.
func (p *Proxy) relayBlocking(client, server net.Conn, backend, acceptor int,
	hash uint64, key packet.FlowKey, charged, fromPool bool, born time.Time) {
	// Pooled-connection validation: relay the first client chunk through
	// userspace before committing counters. The checkout probe proved the
	// socket open, but the backend can die between checkout and first use
	// — a pooled connection failing its first write here is accounted
	// exactly like a failed dial (ReportDialError, fresh redial, then the
	// failover path), so the
	//
	//	Accepted == sum(PerBackend) + DialErrors + Dropped
	//
	// identity holds with the dead pooled conn never reaching PerBackend.
	var (
		pending   []byte // first chunk read but not yet written
		preBuf    *[]byte
		firstDone bool  // first chunk fully relayed (observed + written)
		firstErr  error // terminal result of the validation read, if any
	)
	if fromPool {
		preBuf = p.getBuf()
		defer p.putBuf(preBuf)
		p.armIdle(client)
		n, rerr := client.Read(*preBuf)
		p.sysReads.Add(1)
		firstErr = rerr
		if n > 0 {
			pending = (*preBuf)[:n]
			ts := p.now() // arrival time, attributed after the write settles
			p.sysWrites.Add(1)
			if _, werr := server.Write(pending); werr != nil {
				p.untrack(server)
				p.congFinal(server)
				_ = server.Close()
				p.poolFirstWriteFails.Add(1)
				p.ctrl.ReportDialError(backend, ts)
				fromPool, born = false, time.Time{}
				// One fresh dial to the same backend — a pooled conn's death
				// on first write is often stale news — then the failover.
				if server, backend = p.dialBackend(backend, &charged); server == nil {
					return
				}
				p.track(server)
				p.congRegister(server, backend, hash)
				// The swapped connection still owes the first chunk: the
				// request loop writes `pending` before relaying.
			} else {
				firstDone = true
				pending = nil
			}
			p.observeAt(hash, key, backend, ts)
		}
	}

	p.ctrl.ReportDialSuccess(backend)
	p.perBackend[backend].Add(1)
	p.active.Add(1)
	defer p.active.Add(-1)
	defer p.untrack(server)

	st := &relay{p: p, client: client, server: server, backend: backend, hash: hash, key: key}

	// Response direction: a blind relay (spliced when possible). No
	// timestamps feed measurement here — the estimator must work without
	// seeing this traffic, as under DSR. (Idle deadlines are liveness
	// bounds, not measurement.)
	respDone := make(chan struct{})
	go func() {
		st.runResponse()
		close(respDone)
	}()

	// Request direction, in this goroutine: every chunk arrival is a
	// client→server event whose timestamp feeds the in-band estimator.
	// Lock-free up to shard striping: no proxy-global mutex is taken here.
	st.runRequest(firstDone, pending, firstErr)
	<-respDone

	// Final congestion sample before the conn can be recycled: retrans
	// growth in the last sampling window is charged to *this* exchange's
	// flow, and a pooled conn re-enters the registry fresh on checkout.
	p.congFinal(server)
	p.flows.ForgetHashed(hash, key)
	if charged {
		p.ctrl.FlowClosed(backend, p.now())
	}
	// Retire or recycle the backend connection. Recycling hands it to the
	// pool open — the next checkout's probe re-verifies it.
	if st.recycled.Load() && !st.aborted.Load() && !p.closed.Load() &&
		p.pool != nil && p.pool.Put(backend, acceptor, server, born) {
		p.poolRecycled.Add(1)
	} else {
		_ = server.Close()
	}
}

// armIdle sets the connection's read deadline IdleTimeout into the future,
// bounding how long a relay direction can sit byteless.
func (p *Proxy) armIdle(c net.Conn) {
	if p.cfg.IdleTimeout > 0 {
		_ = c.SetReadDeadline(time.Now().Add(p.cfg.IdleTimeout))
	}
}

// reportRelayErr forwards an abnormal server-side relay failure to the
// passive detector. Clean EOFs are normal teardown; net.ErrClosed means the
// proxy itself (or the peer goroutine) tore the connection down.
func (p *Proxy) reportRelayErr(backend int, err error) {
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || p.closed.Load() {
		return
	}
	p.ctrl.ReportRelayError(backend, p.now())
}

// observe feeds one request-direction chunk arrival into the flow's
// estimator shard and, when a latency sample pops out, into the
// controller's matching aggregator stripe. Both sides stripe on the same
// precomputed hash, so a relay goroutine touches one shard's cache lines
// end to end. On the splice path this fires once per readiness event —
// the same granularity as one Read on the copy path — so the estimator
// sees identical arrival timestamps without the payload ever entering
// userspace.
func (p *Proxy) observe(hash uint64, key packet.FlowKey, backend int) {
	p.observeAt(hash, key, backend, p.now())
}

// observeAt is observe with an explicit arrival time: the pooled
// validation phase timestamps the first chunk when it is read but
// attributes it only after the write settles (the backend may change if
// the pooled connection dies on first write).
func (p *Proxy) observeAt(hash uint64, key packet.FlowKey, backend int, now time.Duration) {
	sample, ok := p.flows.ObserveHashed(hash, key, now)
	if ok {
		p.samples.Add(1)
		p.ctrl.ObserveSharded(hash, backend, now, sample)
	}
}

// closeWrite half-closes the write side when the transport supports it,
// propagating EOF to the peer like a forwarded FIN.
func closeWrite(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
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
			conn, err := p.dial(addr, p.cfg.HealthTimeout)
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
