//go:build linux

package lbproxy

import (
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"strconv"
	"syscall"
	"time"

	"inbandlb/internal/core"
	"inbandlb/internal/lbproxy/dialpool"
	"inbandlb/internal/netpoll"
	"inbandlb/internal/netpoll/rawsys"
	"inbandlb/internal/packet"
)

// The dataplane: each acceptor shard owns one internal/netpoll poller (an
// edge-triggered epoll loop plus a timing wheel) and a connection lives on
// that loop from its first syscall to its last, as one compact heap-allocated
// state machine (npRelay) — no goroutine, no net.Conn, no runtime-poller
// entry. The machine, state × event:
//
//	state        event                                  next         accounting
//	(accept4)    no backend admits                      closed       Dropped
//	(accept4)    routed; the dial pool has a socket     unproven     PoolHits
//	(accept4)    routed; no pooled socket               connecting
//	connecting   EPOLLOUT with SO_ERROR 0               established  PerBackend (Failovers on the failover)
//	connecting   refused, DialTimeout (wheel), EMFILE   connecting   dialFailed: detector, the one failover, open count moved
//	connecting   the failover fails too, or no target   closed       DialErrors
//	unproven     first request chunk written            established  PerBackend
//	unproven     first request write fails              connecting   PoolFirstWriteFails; same backend, then the failover
//	unproven     client EOF before a byte               established  PerBackend, then as a clean client EOF
//	unproven     reset, idle bound, Close               closed       PerBackend: never found wanting
//	established  clean EOF one way, FIN forwarded       half-closed
//	established  clean client EOF, pooling on           quiescing    FIN held back, PoolQuiesce on the response timer
//	half-closed  clean EOF the other way                closed
//	quiescing    response byte                          quiescing    grace re-armed
//	quiescing    grace passes in silence                closed       PoolRecycled: the backend socket goes back to the pool
//	any          read/write error, idle bound, Close    closed       backend-side failures to the passive detector
//
// While connecting only the backend fd is registered; the client fd joins the
// epoll set once the backend is connected, and registration reports whatever
// the client sent meanwhile (FIN included) as its first event. An unproven
// relay is the mirror image: only the client fd is registered — a stale
// pooled socket's noise must not reach the response pump — until its first
// request chunk's write has validated the socket. A pooled socket that dies on
// that write takes the relay, chunk in hand (req.pend, its arrival time in
// firstAt), through connecting like any other. closed is finalize, the single
// teardown point: exactly one of PerBackend/DialErrors for every admitted
// connection.
//
// All relay state is owned by the poller's loop goroutine — readiness
// callbacks, posted tasks, and wheel timers are serialized there — so the
// state machine uses plain fields, no locks, no atomics. The loop also holds
// the only descriptor of every socket it drives: teardown is shutdown(2) and
// close(2), and close alone takes an fd out of the epoll set. (The dial pool
// holds net.Conns — its API is shared with the benchmark's probes — so a
// checkout duplicates the pooled socket's descriptor and closes the net.Conn,
// and a recycle wraps a duplicate as a net.Conn and takes the loop's own out
// of the epoll set by hand.)
//
// The drain rule: a message costs two syscalls per direction. Edge-triggered
// epoll raises a new edge for whatever arrives after a read, so a read that
// comes back shorter than the buffer has drained the socket and the pump
// parks without asking again for an EAGAIN. Two cases still read on: a full
// read (more may be queued — and a full buffer says bulk, so the rest of the
// burst is spliced, until EAGAIN: a short splice proves nothing, the pipe
// may have run out of slots, not the socket out of bytes), and a hang-up
// seen on the source (netpoll.Event.Hangup): a FIN queued together with the
// last bytes raises no further edge, so the pump reads to EOF.
//
// Loop-owned resources: every chunk passes through the shard's one read
// buffer or its one splice pipe. Only a blocked write leaves anything with a
// connection — the unwritten tail is copied out, or the pipe holding it is
// detached and the shard takes a fresh one — so an idle connection pins its
// npRelay (a few hundred bytes) and two registered fds, nothing else.
//
// Estimator semantics: every request-direction chunk (one read or one
// splice) is observed once by the relay's own estimator (npRelay.est), and
// the response direction stays timestamp-free.
//
// Syscalls: every call the loop makes on these fds goes through rawsys, as a
// raw nonblocking syscall that never enters the scheduler; EINTR is retried
// where a call can see it. The pooled path (PoolIdle > 0) is the known
// exception until the dial pool moves onto raw fds: checkout,
// recycleServer, fdConn and poolSweep still reach the socket through the
// pool's net.Conn or an os.File. TestEventLoopSyscallsStayRaw keeps it that
// way and names those four.

const (
	// npPumpBudget bounds chunks moved per pump invocation so one hot
	// connection cannot starve its shard; an exhausted pump reposts itself
	// (edge-triggered epoll will not re-fire for data that already arrived).
	npPumpBudget = 32
	// npAcceptBudget bounds connections admitted per acceptor turn the same
	// way: a SYN flood waits in the backlog while the shard's relays run.
	npAcceptBudget = 32
	// poolSweepPeriod is the cadence of each shard's dial-pool age sweep:
	// one pool stripe per tick, on the shard's wheel.
	poolSweepPeriod = time.Second
)

// dataplane is the Linux half of Proxy: one shard per acceptor, and the
// backends in the form connect(2) takes, by backend index (read-only once
// built, so the shards share them).
type dataplane struct {
	np       []*npShard
	backends []rawsys.Sockaddr
}

// npShard pairs one poller with what its loop goroutine owns: the listening
// socket, the set of live relays (shutdown must finalize idle ones, which
// will never see another event), the read buffer, and the splice pipe (nil
// until first used, and again whenever a blocked write walks off with it).
type npShard struct {
	p    *Proxy
	idx  int // acceptor index: the dial pool's stripe
	pol  *netpoll.Poller
	live map[*npRelay]struct{}
	buf  []byte
	pipe *spipe

	lfd       int     // listening socket; -1 without one
	localIP   [4]byte // the flow key's destination half, when the
	localPort uint16  // listener is bound to one address
	localAny  bool    // wildcard listener: ask each accepted socket
	acceptFn  func()  // s.accept, bound once for Post and the wheel
	accept4   func(lfd int) (int, netip.AddrPort, error)
	backoff   time.Duration  // current accept-error pause
	retry     *netpoll.Timer // re-arms accept after an error: the edge will not
	congTimer *netpoll.Timer // TCP_INFO sampling cadence
	poolTimer *netpoll.Timer // dial-pool age sweep cadence
}

// npRelay is the per-connection state machine. Every field is loop-owned.
type npRelay struct {
	p        *Proxy
	shard    *npShard
	cfd, sfd int // client and backend sockets; sfd is -1 between connect attempts
	backend  int
	est      core.FlowEstimator // created by the first request chunk

	connecting bool // sfd is registered and its connect has not settled
	failover   bool // this connect is the one-shot failover attempt
	counted    bool // backend connected: committed to PerBackend/Active
	clientOn   bool // cfd is registered
	finalized  bool

	// Dial pool only (Config.PoolIdle > 0).
	unproven    bool          // sfd came from the pool and has not taken a write yet
	reuseWanted bool          // clean client EOF: the response side is in its quiesce grace
	recycled    bool          // the grace passed in silence: sfd goes back to the pool
	born        time.Time     // when sfd first entered the pool (zero: dialed for this relay)
	firstAt     time.Duration // arrival of the chunk req.pend holds across a revalidation connect

	cong congEntry // TCP_INFO delta state for sfd (Config.CongestionSignals)

	req, resp npDir
}

// npDir is one relay direction's pump state.
type npDir struct {
	rel       *npRelay
	src, dst  int  // fds, set once the backend is connected
	observe   bool // request direction: chunk arrivals feed the estimator
	done      bool
	hup       bool // src's peer hung up: a short read no longer means drained
	moved     bool // any byte ever spliced on this stream (fallback gate)
	splice    bool // splice still eligible for this direction
	waitWrite bool // parked on dst EPOLLOUT

	pend   []byte // tail a blocked write left behind (this direction's own copy)
	pp     *spipe // the shard's pipe, detached with inPipe bytes a blocked write left in it
	inPipe int

	// idle is this direction's deadline on the wheel: the idle bound while
	// relaying and, on the request direction, DialTimeout while connecting.
	idle *netpoll.Timer
}

// initDataplane resolves the backends and creates one poller per acceptor
// shard (and the dial pool, with PoolIdle > 0). A kernel without epoll is
// New's error: there is no other dataplane here.
func (p *Proxy) initDataplane() error {
	targets, err := resolveBackends(p.cfg.Backends)
	if err != nil {
		return err
	}
	for _, ta := range targets {
		p.backends = append(p.backends, rawsys.NewSockaddr(ta.AddrPort(), zoneID(ta.Zone)))
	}
	for i := 0; i < p.cfg.Acceptors; i++ {
		pol, err := netpoll.New()
		if err != nil {
			for _, s := range p.np {
				_ = s.pol.Close()
			}
			return fmt.Errorf("lbproxy: %w", err)
		}
		s := &npShard{p: p, idx: i, pol: pol, live: make(map[*npRelay]struct{}),
			buf: make([]byte, relayBufferSize), lfd: -1,
			accept4: func(lfd int) (int, netip.AddrPort, error) {
				return rawsys.Accept4(lfd, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			}}
		s.acceptFn = s.accept
		p.np = append(p.np, s)
	}
	if p.cfg.PoolIdle > 0 {
		p.pool = dialpool.New(dialpool.Config{
			Backends:          len(p.cfg.Backends),
			Stripes:           p.cfg.Acceptors,
			MaxIdlePerBackend: p.cfg.PoolIdle,
			MaxAge:            p.cfg.PoolMaxAge,
		})
	}
	return nil
}

// resolveBackends resolves every backend address once: an IP literal as it
// is, a host name through the resolver (its first address, IPv4 preferred).
// An address that does not resolve is New's error.
func resolveBackends(addrs []string) ([]*net.TCPAddr, error) {
	out := make([]*net.TCPAddr, len(addrs))
	for i, a := range addrs {
		ta, err := net.ResolveTCPAddr("tcp", a)
		if err != nil {
			return nil, fmt.Errorf("lbproxy: backend %q: %w", a, err)
		}
		if ta.Zone != "" && zoneID(ta.Zone) == 0 {
			return nil, fmt.Errorf("lbproxy: backend %q: no interface %q", a, ta.Zone)
		}
		if ta.IP == nil { // ":port" is this host, as for net.Dial
			ta.IP = net.IPv4zero
		}
		out[i] = ta
	}
	return out, nil
}

// zoneID is the interface index an IPv6 zone names (by name or number), 0
// for none or one that does not exist.
func zoneID(zone string) uint32 {
	if n, err := strconv.ParseUint(zone, 10, 32); err == nil {
		return uint32(n)
	}
	if ifi, err := net.InterfaceByName(zone); err == nil {
		return uint32(ifi.Index)
	}
	return 0
}

// adopt moves the listening sockets onto the shards: each loop gets a
// duplicate descriptor and the net.Listener is closed, which takes the
// socket out of the runtime poller and leaves the duplicate its only handle.
// TCP_NODELAY and keep-alive are set here once — accepted sockets inherit
// them — matching what package net gives every connection it accepts.
func (p *Proxy) adopt(ls []net.Listener) (err error) {
	for i, l := range ls {
		s := p.np[i]
		tl, ok := l.(*net.TCPListener)
		if !ok {
			err = fmt.Errorf("lbproxy: listener %T has no descriptor", l)
			break
		}
		if s.lfd, err = dupFD(tl); err != nil {
			break
		}
		setConnOpts(s.lfd)
		s.localIP, s.localPort = ip4Port(l.Addr())
		s.localAny = tl.Addr().(*net.TCPAddr).IP.IsUnspecified()
	}
	for _, l := range ls {
		_ = l.Close()
	}
	if err != nil {
		p.stopAccepting() // give back the descriptors already adopted
	}
	return err
}

// serve runs each shard's start-up on its loop — the listener joins the
// epoll set (a connection already queued is its first event), and the
// congestion sampler and the pool's age sweep are armed — and then waits for
// Close: the loops do the rest.
func (p *Proxy) serve() error {
	errc := make(chan error, len(p.np))
	for _, s := range p.np {
		s := s
		if !s.pol.Post(func() { errc <- s.start() }) {
			errc <- nil // closed already
		}
	}
	for range p.np {
		if err := <-errc; err != nil {
			return err
		}
	}
	<-p.stop
	return nil
}

func (s *npShard) start() error {
	if s.p.cfg.CongestionSignals && s.congTimer == nil {
		s.congTimer = s.pol.AfterFunc(congSampleInterval, s.congTick)
	}
	if s.p.pool != nil && s.p.cfg.PoolMaxAge > 0 && s.poolTimer == nil {
		s.poolTimer = s.pol.AfterFunc(poolSweepPeriod, s.poolSweep)
	}
	if s.lfd < 0 {
		return nil
	}
	return s.pol.Register(s.lfd, func(netpoll.Event) { s.accept() })
}

// stopAccepting closes every shard's listener on its loop and waits for
// that: once it returns no connection is admitted, and the fd number is free
// for reuse only after its callback slot is empty.
func (p *Proxy) stopAccepting() {
	for _, s := range p.np {
		s := s
		done := make(chan struct{})
		if s.pol.Post(func() {
			if s.lfd >= 0 {
				s.pol.CloseFD(s.lfd)
				s.lfd = -1
			}
			if s.retry != nil {
				s.pol.StopTimer(s.retry)
			}
			close(done)
		}) {
			<-done
		}
	}
}

// stopRelays finalizes every live relay (idle ones never get another event,
// so shutdown must visit them) and closes the pollers. Runs after the shards
// stopped admitting and before ctrl.Close, so the final controller flush sees
// every sample.
func (p *Proxy) stopRelays() {
	for _, s := range p.np {
		s := s
		s.pol.Post(func() {
			for rel := range s.live {
				rel.finalize()
			}
			if s.pipe != nil {
				putPipe(s.pipe)
				s.pipe = nil
			}
		})
		_ = s.pol.Close()
	}
}

// netpollStats snapshots per-shard poller counters.
func (p *Proxy) netpollStats() []NetpollShardStats {
	out := make([]NetpollShardStats, len(p.np))
	for i, s := range p.np {
		st := s.pol.Stats()
		out[i] = NetpollShardStats{
			Wakeups:       st.Wakeups,
			TimerFires:    st.TimerFires,
			RegisteredFDs: st.Registered,
		}
	}
	return out
}

// accept admits connections from the shard's listener until it runs dry
// (EAGAIN) or the turn's budget is spent (then it reposts itself: the edge
// that brought it here will not come again). ECONNABORTED — a client that
// reset while queued — is retried at once, like EINTR. Any other error —
// EMFILE, ENFILE, ENOBUFS — is counted and retried from the wheel after a
// 5 ms→1 s backoff, because an edge-triggered listener whose queue stays
// non-empty raises no new edge either: a proxy that holds thousands of fds
// will run out of them some day, and that must cost a pause, not the
// acceptor.
func (s *npShard) accept() {
	p := s.p
	for budget := npAcceptBudget; budget > 0 && s.lfd >= 0; budget-- {
		fd, peer, err := s.accept4(s.lfd)
		switch err {
		case nil:
		case syscall.EINTR, syscall.ECONNABORTED:
			continue
		case syscall.EAGAIN:
			return
		default:
			p.acceptErrors.Add(1)
			s.backoff = nextAcceptBackoff(s.backoff)
			if s.retry == nil {
				s.retry = s.pol.AfterFunc(s.backoff, s.acceptFn)
			} else {
				s.pol.ResetTimer(s.retry, s.backoff)
			}
			return
		}
		s.backoff = 0
		p.accepted.Add(1)
		s.admit(fd, peer)
	}
	if s.lfd >= 0 {
		s.pol.Post(s.acceptFn)
	}
}

// admit routes one accepted socket and starts its relay: on a pooled backend
// socket if the dial pool has one, else with a backend connect.
func (s *npShard) admit(cfd int, peer netip.AddrPort) {
	p := s.p
	key := packet.FlowKey{Proto: packet.ProtoTCP, DstIP: s.localIP, DstPort: s.localPort}
	key.SrcIP, key.SrcPort = addrPort4(peer)
	if s.localAny {
		if local, err := rawsys.Getsockname(cfd); err == nil {
			key.DstIP, key.DstPort = addrPort4(local)
		}
	}
	backend := p.route(key)
	if backend < 0 {
		s.pol.CloseFD(cfd)
		return
	}
	p.relays.Add(1)
	rel := &npRelay{p: p, shard: s, cfd: cfd, sfd: -1, backend: backend}
	rel.req = npDir{rel: rel, observe: true, splice: true}
	rel.resp = npDir{rel: rel, splice: true}
	s.live[rel] = struct{}{}
	if !rel.checkout() {
		rel.connect(backend)
	}
}

// checkout starts the relay unproven on an idle backend socket from the dial
// pool, if it has one — its probe is a one-shot nonblocking read, so it runs
// on the loop. The relay takes a duplicate of the pooled socket's descriptor
// and the pool's net.Conn is closed.
func (rel *npRelay) checkout() bool {
	pool := rel.p.pool
	if pool == nil {
		return false
	}
	c, born, ok := pool.Get(rel.backend, rel.shard.idx)
	if !ok {
		return false
	}
	sfd := -1
	if sc, ok := c.(syscall.Conn); ok {
		sfd, _ = dupFD(sc)
	}
	_ = c.Close()
	if sfd < 0 {
		return false
	}
	rel.sfd, rel.unproven, rel.born = sfd, true, born
	rel.req.src, rel.req.dst = rel.cfd, rel.sfd
	if rel.registerClient() {
		rel.req.rearmIdle()
	}
	return true
}

// Go's TCP keep-alive defaults, which package net applies to every
// connection it dials or accepts.
const keepAliveSecs = 15

// setConnOpts gives a socket what package net would have: TCP_NODELAY and
// keep-alive probes. Best effort — a socket without them still relays.
func setConnOpts(fd int) {
	_ = rawsys.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	_ = rawsys.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1)
	_ = rawsys.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, keepAliveSecs)
	_ = rawsys.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, keepAliveSecs)
}

// dupFD returns a close-on-exec duplicate of c's descriptor. File status
// flags live on the open file description, so the duplicate is nonblocking
// like the original.
func dupFD(c syscall.Conn) (fd int, err error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return -1, err
	}
	if cerr := rc.Control(func(orig uintptr) { fd, err = dupRaw(int(orig)) }); cerr != nil {
		return -1, cerr
	}
	return fd, err
}

func dupRaw(fd int) (int, error) { return rawsys.Fcntl(fd, syscall.F_DUPFD_CLOEXEC, 0) }

// fdConn is dupFD's inverse: a net.Conn on a duplicate of fd, which stays
// the caller's. (Two duplicates are made on the way — an os.File cannot be
// told to let go of a descriptor, and net.FileConn makes its own.)
func fdConn(fd int) (net.Conn, error) {
	dup, err := dupRaw(fd)
	if err != nil {
		return nil, err
	}
	f := os.NewFile(uintptr(dup), "backend")
	defer f.Close()
	return net.FileConn(f)
}

// connect starts a nonblocking connect to backend. Completion — at once or
// later, it makes no difference — arrives as the fd's first writable event;
// DialTimeout rides the request direction's wheel timer until then.
func (rel *npRelay) connect(backend int) {
	rel.backend = backend
	sa := &rel.p.backends[backend]
	fd, err := rawsys.Socket(sa.Family(), syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, syscall.IPPROTO_TCP)
	if err == nil {
		rel.sfd = fd
		setConnOpts(fd)
		// EINTR on a nonblocking connect: the handshake goes on regardless.
		if err = rawsys.Connect(fd, sa); err == syscall.EINPROGRESS || err == syscall.EINTR {
			err = nil
		}
	}
	if err == nil {
		err = rel.shard.pol.Register(fd, rel.onServerEvent)
	}
	if err != nil {
		rel.connectFailed() // refused outright, or out of fds / epoll watches
		return
	}
	rel.connecting = true
	rel.p.connecting.Add(1)
	rel.req.arm(rel.p.cfg.DialTimeout)
}

// onConnect settles a connect: writable (error conditions report as that
// too) with SO_ERROR clear means connected.
func (rel *npRelay) onConnect(ev netpoll.Event) {
	if !ev.Writable {
		return
	}
	if soerr, err := rawsys.GetsockoptInt(rel.sfd, syscall.SOL_SOCKET, syscall.SO_ERROR); err != nil || soerr != 0 {
		rel.connectFailed()
		return
	}
	rel.established()
}

// connectFailed gives up on the current backend socket and runs the shared
// failed-dial accounting: one failover connect if there is a target, else
// the connection ends (in DialErrors — finalize counts what never connected).
func (rel *npRelay) connectFailed() {
	rel.dropServer()
	alt := rel.p.dialFailed(rel.backend, uint64(rel.shard.idx), rel.failover)
	if alt < 0 {
		rel.finalize()
		return
	}
	rel.failover = true
	rel.connect(alt)
}

// settled leaves the connecting state — gauge, DialTimeout timer — and
// reports whether the relay was in it.
func (rel *npRelay) settled() bool {
	if !rel.connecting {
		return false
	}
	rel.connecting = false
	rel.p.connecting.Add(-1)
	rel.req.stopTimer()
	return true
}

// dropServer closes the backend socket, if any.
func (rel *npRelay) dropServer() {
	rel.settled()
	if rel.sfd >= 0 {
		rel.shard.pol.CloseFD(rel.sfd)
		rel.sfd = -1
	}
}

// established is the point of no return: the backend is connected (or a
// pooled socket proved itself), so the connection lands in PerBackend and the
// live gauges, both fds are in the epoll set, and the pumps take over. No
// first pump: registration reports an fd that is already readable — hang-up
// bit included — as its first event.
func (rel *npRelay) established() {
	p, pol := rel.p, rel.shard.pol
	registered := rel.settled() // a connect registered sfd itself; a pooled socket is not yet
	if rel.failover {
		p.failovers.Add(1)
	}
	// A pooled connection's replacement: the chunk that found the old one
	// dead is still owed, and was held back from the estimator until the
	// backend it goes to was known.
	revalidated := len(rel.req.pend) > 0
	if revalidated {
		rel.observe(rel.firstAt)
	}
	rel.commit()
	rel.req.src, rel.req.dst = rel.cfd, rel.sfd
	rel.resp.src, rel.resp.dst = rel.sfd, rel.cfd
	if !registered {
		if err := pol.Register(rel.sfd, rel.onServerEvent); err != nil {
			rel.finalize() // epoll pressure
			return
		}
	}
	if !rel.registerClient() {
		return
	}
	rel.req.rearmIdle()
	rel.resp.rearmIdle()
	if revalidated {
		rel.req.pump() // the held chunk, then whatever the client sent during the connect
	}
}

// commit lands the connection in PerBackend and the live gauges, and reports
// the completed dial to the detector through the shard's sample stripe.
func (rel *npRelay) commit() {
	p := rel.p
	p.ctrl.ObserveConn(uint64(rel.shard.idx), rel.backend, true)
	p.perBackend[rel.backend].Add(1)
	p.active.Add(1)
	rel.counted = true
	rel.cong = congEntry{backend: rel.backend}
}

// registerClient puts the client fd into the epoll set, once. False: the
// relay died of epoll pressure.
func (rel *npRelay) registerClient() bool {
	if !rel.clientOn {
		if err := rel.shard.pol.Register(rel.cfd, rel.onClientEvent); err != nil {
			rel.finalize()
			return false
		}
		rel.clientOn = true
	}
	return true
}

func (rel *npRelay) onClientEvent(ev netpoll.Event) { rel.onEvent(ev, &rel.req, &rel.resp) }

func (rel *npRelay) onServerEvent(ev netpoll.Event) {
	if rel.connecting {
		rel.onConnect(ev)
		return
	}
	rel.onEvent(ev, &rel.resp, &rel.req)
}

// onEvent handles readiness on one end: in reads from it, out writes to it.
func (rel *npRelay) onEvent(ev netpoll.Event, in, out *npDir) {
	if ev.Hangup {
		in.hup = true // sticky: nothing arrives after a FIN, so nothing re-raises it
	}
	if ev.Writable && out.waitWrite {
		out.pump()
	}
	if ev.Readable {
		in.pump()
	}
}

// pump is the readiness engine for one direction: flush whatever write was
// blocked, then move chunks until the socket is drained (see the drain rule
// above), EOF, error, a blocked write, or budget exhaustion (then repost —
// ET delivers no reminder edges).
func (d *npDir) pump() {
	rel := d.rel
	if d.done || rel.finalized || rel.connecting || !d.flushPending() {
		return // connecting: a revalidation's client events wait for established
	}
	bulk := false // a read filled the buffer: the rest of this burst is spliced
	for budget := npPumpBudget; budget > 0; budget-- {
		var more bool
		if bulk && d.splice && spliceAvailable() {
			more = d.pumpSplice()
		} else {
			more, bulk = d.pumpCopy()
		}
		if !more || d.done || rel.finalized {
			return
		}
	}
	rel.shard.pol.Post(d.pump)
}

// pumpSplice moves one zero-copy chunk src→pipe→dst. Returns false when the
// pump must stop (EAGAIN, blocked, EOF, error); switching splice off (first
// splice says "not here", or no pipe to be had) returns true so the copy
// loop takes over from a clean stream.
func (d *npDir) pumpSplice() bool {
	sh := d.rel.shard
	if sh.pipe == nil {
		if sh.pipe = getPipe(); sh.pipe == nil {
			d.splice = false // fd exhaustion: copy path
			return true
		}
	}
	n, errno := d.spliceNB(d.src, sh.pipe.w, spliceChunk)
	switch {
	case errno == syscall.EAGAIN:
		return false
	case errno != nil:
		if !d.moved && spliceFallbackErrno(errno) {
			if errno == syscall.ENOSYS || errno == syscall.EPERM {
				spliceBroken.Store(true)
			}
			d.splice = false
			return true // nothing consumed
		}
		d.srcFailed(errno)
		return false
	case n == 0:
		d.srcEOF()
		return false
	}
	d.moved = true
	d.chunkArrived()
	left, err := d.drainPipe(sh.pipe, n)
	if left > 0 {
		// Bytes a pipe holds are unrecoverable: it leaves the shard with
		// them, and comes back (or is destroyed) once they are settled.
		d.pp, sh.pipe, d.inPipe = sh.pipe, nil, left
		if err != nil {
			d.dstFailed(err)
			return false
		}
		d.waitWrite = true
		return false
	}
	return true
}

// pumpCopy moves one chunk src→dst through the shard's buffer. more=false
// when the pump must stop; full reports a read that filled the buffer.
func (d *npDir) pumpCopy() (more, full bool) {
	buf := d.rel.shard.buf
	n, err := d.rawRead(buf)
	switch {
	case err == syscall.EAGAIN:
		return false, false
	case err == io.EOF:
		d.srcEOF()
		return false, false
	case err != nil:
		d.srcFailed(err)
		return false, false
	}
	full = n == len(buf)
	if d.observe && d.rel.unproven {
		more = d.validateChunk(buf[:n])
	} else {
		d.chunkArrived()
		more = d.writeChunk(buf[:n])
	}
	return more && (full || d.hup), full // the drain rule
}

// validateChunk relays a pooled connection's first request chunk: the write
// is the connection's validation, and the chunk is attributed to the
// estimator only once it settles (the backend changes if the pooled
// connection turns out dead).
func (d *npDir) validateChunk(b []byte) bool {
	rel, p := d.rel, d.rel.p
	ts := p.now()
	rel.unproven = false
	n, blocked, err := d.rawWrite(b)
	if err != nil {
		rel.revalidate(b, ts)
		return false
	}
	rel.observe(ts)
	if rel.established(); rel.finalized {
		return false
	}
	if blocked {
		d.strand(b[n:])
	}
	return !blocked
}

// revalidate replaces a pooled connection that died on its first write. The
// death is accounted like a failed dial, then the relay goes through
// connecting as a fresh one would — the same backend first (a pooled
// connection's death is often stale news), then the one-shot failover — with
// the chunk parked in req.pend and the pumps parked on rel.connecting.
func (rel *npRelay) revalidate(chunk []byte, ts time.Duration) {
	p := rel.p
	p.poolFirstWriteFails.Add(1)
	p.ctrl.ObserveConn(uint64(rel.shard.idx), rel.backend, false)
	rel.born, rel.firstAt = time.Time{}, ts
	rel.req.strand(chunk)
	rel.dropServer()
	rel.connect(rel.backend)
}

// chunkArrived timestamps a request-direction arrival into the estimator
// (once per chunk, read or spliced) and re-arms this direction's deadline.
func (d *npDir) chunkArrived() {
	if d.observe {
		d.rel.observe(d.rel.p.now())
	}
	d.rearmIdle()
}

// observe feeds one request chunk, arrived at now, into the relay's
// estimator; its samples go to the aggregator stripe of the relay's shard.
func (rel *npRelay) observe(now time.Duration) {
	rel.p.observe(&rel.est, uint64(rel.shard.idx), rel.backend, now)
}

// writeChunk forwards a userspace chunk, parking on EPOLLOUT if dst blocks.
func (d *npDir) writeChunk(b []byte) bool {
	n, blocked, err := d.rawWrite(b)
	if err != nil {
		d.dstFailed(err)
		return false
	}
	if blocked {
		d.strand(b[n:])
	}
	return !blocked
}

// strand keeps the tail a blocked write left behind. It is copied out: b
// aliases the shard's buffer, which the next connection's read will reuse.
func (d *npDir) strand(tail []byte) {
	d.pend = append(d.pend[:0], tail...)
	d.waitWrite = true
}

// flushPending resumes whatever a previous pump left blocked: first the
// splice pipe, then the userspace tail. True means the direction is clear
// to read again.
func (d *npDir) flushPending() bool {
	if d.inPipe > 0 {
		left, err := d.drainPipe(d.pp, d.inPipe)
		d.inPipe = left
		if err != nil {
			d.dstFailed(err)
			return false
		}
		if left > 0 {
			return false
		}
		d.releasePipe()
	}
	if len(d.pend) > 0 {
		n, blocked, err := d.rawWrite(d.pend)
		d.pend = d.pend[n:]
		if err != nil {
			d.dstFailed(err)
			return false
		}
		if blocked {
			return false
		}
		d.pend = nil
	}
	d.waitWrite = false
	return true
}

// drainPipe splices n bytes pp→dst and returns how many are left in the
// pipe: all moved, dst pushed back (EAGAIN, err nil), or dst failed.
func (d *npDir) drainPipe(pp *spipe, n int) (left int, err error) {
	for n > 0 {
		m, errno := d.spliceNB(pp.r, d.dst, n)
		switch {
		case errno == syscall.EAGAIN:
			return n, nil
		case errno != nil:
			return n, errno
		case m <= 0:
			return n, io.ErrUnexpectedEOF
		}
		n -= m
	}
	return 0, nil
}

// spliceNB is one counted nonblocking splice(2), EINTR-retried.
func (d *npDir) spliceNB(rfd, wfd, n int) (int, error) {
	d.rel.p.sysSplices.Add(1)
	for {
		m, err := rawsys.Splice(rfd, wfd, n, spliceFlags)
		if err != syscall.EINTR {
			return m, err
		}
	}
}

// rawRead does one nonblocking read (EINTR-retried). EAGAIN comes back as
// the error: park until the next readiness edge.
func (d *npDir) rawRead(buf []byte) (int, error) {
	d.rel.p.sysReads.Add(1)
	for {
		n, errno := rawsys.Read(d.src, buf)
		switch {
		case errno == syscall.EINTR:
			continue
		case errno != nil:
			return 0, errno
		case n <= 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

// rawWrite writes as much of b as dst accepts without blocking. Returns
// bytes written and whether the socket pushed back (EAGAIN) first.
func (d *npDir) rawWrite(b []byte) (total int, blocked bool, err error) {
	for total < len(b) {
		d.rel.p.sysWrites.Add(1) // before the call: the peer may read Stats the moment the bytes land
		n, errno := rawsys.Write(d.dst, b[total:])
		switch {
		case errno == syscall.EINTR:
			continue
		case errno == syscall.EAGAIN:
			return total, true, nil
		case errno != nil:
			return total, false, errno
		case n <= 0:
			return total, false, io.ErrUnexpectedEOF
		}
		total += n
	}
	return total, false, nil
}

// releasePipe settles a detached pipe: one still holding bytes (teardown
// mid-drain) is destroyed, a drained one goes back to the shard, or to the
// pool if the shard has taken another meanwhile.
func (d *npDir) releasePipe() {
	switch sh := d.rel.shard; {
	case d.pp == nil:
		return
	case d.inPipe > 0:
		d.pp.destroy()
	case sh.pipe == nil:
		sh.pipe = d.pp
	default:
		putPipe(d.pp)
	}
	d.pp, d.inPipe = nil, 0
}

// srcEOF handles a clean EOF, preserving the half-close contract: the FIN is
// forwarded and the other direction keeps relaying until its own EOF. With a
// dial pool a client's FIN is held back instead: the response direction gets
// the PoolQuiesce grace to stay silent, and then the backend socket is
// recycled rather than closed (a backend's own EOF means it is dead — no
// recycling from that side).
func (d *npDir) srcEOF() {
	rel := d.rel
	if d.observe && rel.unproven {
		// The client finished without sending a byte: the pooled socket was
		// never tested. Commit it; the response may still be owed.
		rel.unproven = false
		if rel.established(); rel.finalized {
			return
		}
	}
	d.done = true
	d.stopTimer()
	if d.observe && rel.p.pool != nil && !rel.resp.done && !rel.p.closed.Load() {
		rel.reuseWanted = true
		rel.resp.rearmIdle() // now the quiesce grace
	} else {
		_ = rawsys.Shutdown(d.dst, syscall.SHUT_WR)
	}
	rel.maybeFinish()
}

// srcFailed handles a read-side failure. Response-direction read failures
// are backend evidence for the passive detector; request-direction ones are
// client-side noise.
func (d *npDir) srcFailed(err error) {
	rel := d.rel
	if !d.observe {
		rel.p.reportRelayErr(rel.backend, uint64(rel.shard.idx), err)
	}
	rel.finalize()
}

// dstFailed handles a write-side failure. Request-direction write failures
// hit the backend (detector evidence); response-direction ones hit the
// client.
func (d *npDir) dstFailed(err error) {
	rel := d.rel
	if d.observe {
		rel.p.reportRelayErr(rel.backend, uint64(rel.shard.idx), err)
	}
	rel.finalize()
}

func (rel *npRelay) maybeFinish() {
	if rel.req.done && rel.resp.done {
		rel.finalize()
	}
}

// rearmIdle (re-)arms this direction's deadline: the idle bound if one is
// configured, or — response direction after a clean client EOF — the
// PoolQuiesce grace.
func (d *npDir) rearmIdle() {
	to := d.rel.p.cfg.IdleTimeout
	if !d.observe && d.rel.reuseWanted {
		to = d.rel.p.cfg.PoolQuiesce
	}
	if to > 0 {
		d.arm(to)
	}
}

// arm sets this direction's wheel timer to fire onTimeout after to.
func (d *npDir) arm(to time.Duration) {
	if d.idle == nil {
		d.idle = d.rel.shard.pol.AfterFunc(to, d.onTimeout)
	} else {
		d.rel.shard.pol.ResetTimer(d.idle, to)
	}
}

func (d *npDir) stopTimer() {
	if d.idle != nil {
		d.rel.shard.pol.StopTimer(d.idle)
	}
}

// onTimeout fires for a connect that outlived DialTimeout, an elapsed
// quiesce grace, or an expired idle deadline.
func (d *npDir) onTimeout() {
	rel := d.rel
	switch {
	case rel.finalized || d.done:
		return
	case rel.connecting:
		rel.p.connectTimeouts.Add(1)
		rel.connectFailed()
		return
	case !d.observe && rel.reuseWanted:
		if len(d.pend) > 0 || d.inPipe > 0 {
			d.rearmIdle() // response tail still on its way to the client
			return
		}
		// A full PoolQuiesce of silence after the client's clean EOF: the
		// exchange is over and the backend socket is drained.
		rel.recycled = true
		_ = rawsys.Shutdown(rel.cfd, syscall.SHUT_WR)
		d.done = true
		rel.maybeFinish()
		return
	case !d.observe:
		// Backend went silent past the idle bound: detector evidence.
		rel.p.reportRelayErr(rel.backend, uint64(rel.shard.idx), os.ErrDeadlineExceeded)
	}
	rel.finalize()
}

// finalize is the single teardown point: idempotent, loop-only. It releases
// what a blocked write left with the relay, settles the accounting identity
// (exactly one of PerBackend/DialErrors for every admitted connection),
// releases the connection's open count, drops the estimator, and closes
// both fds.
func (rel *npRelay) finalize() {
	if rel.finalized {
		return
	}
	rel.finalized = true
	p := rel.p
	delete(rel.shard.live, rel)
	for _, d := range []*npDir{&rel.req, &rel.resp} {
		d.done = true
		d.stopTimer()
		d.pend = nil
		d.releasePipe()
	}
	p.forget(&rel.est)
	p.openFlows[rel.backend].Add(-1)
	if rel.unproven {
		// Ended before its first byte (idle bound, reset, shutdown): the
		// pooled socket was never found wanting, so this is a relayed
		// connection, not a failed dial.
		rel.commit()
	}
	if rel.counted {
		p.active.Add(-1)
		rel.congSample() // retransmissions of the last sampling window
	} else {
		p.dialErrors.Add(1) // terminal: no backend was reached (or the proxy closed first)
	}
	if rel.recycled {
		rel.recycleServer()
	}
	rel.dropServer()
	rel.shard.pol.CloseFD(rel.cfd)
	p.relays.Done()
}

// recycleServer checks the drained backend socket into the dial pool, which
// holds net.Conns: the pool gets a duplicate descriptor wrapped as one, and
// the loop's own — closed by the caller — leaves the epoll set by hand,
// since closing it no longer closes the socket.
func (rel *npRelay) recycleServer() {
	p := rel.p
	if p.closed.Load() || rel.sfd < 0 {
		return
	}
	c, err := fdConn(rel.sfd)
	if err != nil {
		return
	}
	rel.shard.pol.Unregister(rel.sfd)
	if p.pool.Put(rel.backend, rel.shard.idx, c, rel.born) {
		p.poolRecycled.Add(1)
	}
}

// congTick samples TCP_INFO on every connected backend socket of the shard
// — loop-owned fds and entries, so no registry and no lock — and re-arms.
func (s *npShard) congTick() {
	for rel := range s.live {
		rel.congSample()
	}
	s.pol.ResetTimer(s.congTimer, congSampleInterval)
}

func (rel *npRelay) congSample() {
	if !rel.p.cfg.CongestionSignals || !rel.counted || rel.sfd < 0 {
		return
	}
	if total, _, ok := tcpInfoFD(rel.sfd); ok {
		rel.p.congCharge(&rel.cong, uint64(rel.shard.idx), total)
	}
}

// poolSweep evicts PoolMaxAge-expired idle connections from one dial-pool
// stripe and re-arms.
func (s *npShard) poolSweep() {
	s.p.pool.Sweep()
	s.pol.ResetTimer(s.poolTimer, poolSweepPeriod)
}
