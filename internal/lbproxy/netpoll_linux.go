//go:build linux

package lbproxy

import (
	"io"
	"net"
	"os"
	"syscall"
	"time"

	"inbandlb/internal/netpoll"
	"inbandlb/internal/packet"
)

// Event-driven dataplane: with Config.Netpoll, each acceptor shard owns one
// internal/netpoll poller (an edge-triggered epoll loop plus a timing wheel),
// and every relayed connection becomes one compact heap-allocated state
// machine (npRelay) instead of two blocked goroutines. The per-connection
// states mirror the goroutine path exactly:
//
//	awaiting-first-byte ──client chunk──▶ relaying (validation write for
//	   │                                  pooled conns; first-byte
//	   │ idle timer                       observation + estimator sample)
//	   ▼
//	teardown ◀─error/idle─ relaying ──clean client EOF──▶ draining
//	                           │                             │ quiesce
//	                           └──clean server EOF──▶ FIN    ▼ silence
//	                               to client, drain      recycle into pool
//
// All relay state is owned by the poller's loop goroutine — readiness
// callbacks, posted tasks, and wheel timers are serialized there — so the
// state machine uses plain fields, no locks, no atomics. The relay also owns
// both sockets outright: the handoff takes them out of the proxy's
// force-close set and only finalize (on the loop) closes them, so the loop
// makes its nonblocking read/write/splice calls straight on the cached fds
// with no per-call guard against a concurrent Close.
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
// Estimator equivalence: every request-direction chunk (one read or one
// splice — the same granularity as one Read on the goroutine path) fires
// ObserveHashed once, the first one after the pooled path's validation
// write settles, and the response direction stays timestamp-free. Teardown
// settles the same accounting as the goroutine relay: exactly one of
// PerBackend/DialErrors per handed-off connection, FlowClosed only while
// charged, ForgetHashed always.

// npPumpBudget bounds chunks moved per pump invocation so one hot connection
// cannot starve its shard; an exhausted pump reposts itself (edge-triggered
// epoll will not re-fire for data that already arrived).
const npPumpBudget = 32

// npShard pairs one poller with what its loop goroutine owns: the set of
// live relays (shutdown must finalize idle ones, which will never see
// another event), the read buffer, and the splice pipe (nil until first
// used, and again whenever a blocked write walks off with it).
type npShard struct {
	pol  *netpoll.Poller
	live map[*npRelay]struct{}
	buf  []byte
	pipe *spipe
}

// npEnd is one side of a relay: the connection and its fd.
type npEnd struct {
	conn       net.Conn
	fd         int
	registered bool
}

// newNPEnd wraps a connection for raw readiness-driven I/O. Only *net.TCPConn
// qualifies — chaos wrappers and pipe test conns make the caller fall back to
// the goroutine path.
func newNPEnd(c net.Conn) (npEnd, bool) {
	e := npEnd{conn: c, fd: -1}
	if tc, ok := c.(*net.TCPConn); ok {
		if rc, err := tc.SyscallConn(); err == nil {
			_ = rc.Control(func(fd uintptr) { e.fd = int(fd) }) // fails on a closed conn
		}
	}
	return e, e.fd >= 0
}

// npRelay is the per-connection state machine. Every field is loop-owned.
type npRelay struct {
	p          *Proxy
	shard      *npShard
	cEnd, sEnd npEnd // sEnd.conn is nil while a revalidation redial is in flight
	backend    int
	acceptor   int
	hash       uint64
	key        packet.FlowKey
	born       time.Time

	fromPool        bool
	charged         bool // policy holds an open-flow debit for backend
	counted         bool // committed to PerBackend/Active
	validated       bool // pooled first-write verdict settled (or not pooled)
	revalidating    bool // redial helper goroutine in flight; pumps are parked
	reuseWanted     bool // clean client EOF with the server pool-eligible
	recycled        bool // quiesce elapsed in silence: server conn poolable
	finalized       bool
	dialErrTerminal bool // revalidation exhausted every backend: DialErrors bucket

	req, resp npDir
}

// npDir is one relay direction's pump state.
type npDir struct {
	rel       *npRelay
	src, dst  *npEnd
	observe   bool // request direction: chunk arrivals feed the estimator
	done      bool
	hup       bool // src's peer hung up: a short read no longer means drained
	moved     bool // any byte ever spliced on this stream (fallback gate)
	splice    bool // splice still eligible for this direction
	waitWrite bool // parked on dst EPOLLOUT

	pend   []byte // tail a blocked write left behind (this direction's own copy)
	pp     *spipe // the shard's pipe, detached with inPipe bytes a blocked write left in it
	inPipe int

	idle *netpoll.Timer // idle deadline / quiesce grace on the wheel
}

// netpollInit creates one poller per acceptor shard. Any failure (including
// the process-wide ENOSYS latch) is returned, leaving p.np nil and the proxy
// on the goroutine-per-connection dataplane.
func (p *Proxy) netpollInit() error {
	if !netpoll.Available() {
		return netpoll.ErrUnsupported
	}
	shards := make([]*npShard, 0, p.cfg.Acceptors)
	for i := 0; i < p.cfg.Acceptors; i++ {
		pol, err := netpoll.New(netpoll.Config{})
		if err != nil {
			for _, s := range shards {
				_ = s.pol.Close()
			}
			return err
		}
		shards = append(shards, &npShard{pol: pol, live: make(map[*npRelay]struct{}),
			buf: make([]byte, p.cfg.BufferSize)})
	}
	p.np = shards
	return nil
}

// netpollStop finalizes every live relay (idle ones never get another event,
// so shutdown must visit them) and closes the pollers. Runs after wg.Wait —
// every handoff Post happened-before this — and before ctrl.Close, so the
// final controller flush sees every sample.
func (p *Proxy) netpollStop() {
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

// netpollStats snapshots per-shard poller counters (nil when the event
// dataplane is off).
func (p *Proxy) netpollStats() []NetpollShardStats {
	if len(p.np) == 0 {
		return nil
	}
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

// netpollHandoff moves a routed connection pair onto the acceptor's poller
// shard. Returns false when the event path cannot take it (netpoll off,
// non-TCP ends from chaos wrappers or tests, proxy closing) — the caller
// continues on the goroutine path with nothing consumed. On true, ownership
// of both connections and all remaining accounting belongs to the poller
// loop.
func (p *Proxy) netpollHandoff(client, server net.Conn, backend, acceptor int,
	hash uint64, key packet.FlowKey, charged, fromPool bool, born time.Time) bool {
	if len(p.np) == 0 {
		return false
	}
	cEnd, ok := newNPEnd(client)
	if !ok {
		return false
	}
	sEnd, ok := newNPEnd(server)
	if !ok {
		return false
	}
	// Both conns leave the force-close set: from here the loop is their only
	// closer, which is what makes raw syscalls on the cached fds safe. Once
	// Close has begun its sweep may already have closed them — stay out.
	p.connMu.Lock()
	if p.closed.Load() {
		p.connMu.Unlock()
		return false
	}
	delete(p.open, client)
	delete(p.open, server)
	p.connMu.Unlock()
	p.relays.Add(1)

	shard := p.np[acceptor%len(p.np)]
	rel := &npRelay{
		p: p, shard: shard, cEnd: cEnd, sEnd: sEnd,
		backend: backend, acceptor: acceptor, hash: hash, key: key,
		born: born, fromPool: fromPool, charged: charged,
		validated: !fromPool,
	}
	splice := p.cfg.Splice && spliceAvailable()
	rel.req = npDir{rel: rel, src: &rel.cEnd, dst: &rel.sEnd, observe: true, splice: splice}
	rel.resp = npDir{rel: rel, src: &rel.sEnd, dst: &rel.cEnd, splice: splice}
	shard.pol.Post(rel.start)
	return true
}

// start runs on the loop: registers fds and commits accounting for
// non-pooled conns (pooled ones commit when validation settles, like the
// goroutine relay does). No first pump: registration reports an fd that is
// already readable — hang-up bit included — as its first event.
func (rel *npRelay) start() {
	rel.shard.live[rel] = struct{}{}
	if !rel.fromPool {
		rel.commit(rel.backend)
	}
	if err := rel.shard.pol.Register(rel.cEnd.fd, rel.onClientEvent); err != nil {
		rel.finalize() // epoll pressure
		return
	}
	rel.cEnd.registered = true
	if !rel.fromPool && !rel.registerServer() {
		return
	}
	rel.req.rearmIdle()
}

// registerServer attaches the server end to the poller. For pooled conns
// this is deferred until validation settles, so a stale pooled socket's
// noise cannot reach the response pump before the goroutine path would have
// started its response loop. Returns false if the relay died.
func (rel *npRelay) registerServer() bool {
	if rel.sEnd.registered {
		return true
	}
	if err := rel.shard.pol.Register(rel.sEnd.fd, rel.onServerEvent); err != nil {
		rel.finalize()
		return false
	}
	rel.sEnd.registered = true
	rel.resp.rearmIdle()
	return true
}

func (rel *npRelay) onClientEvent(ev netpoll.Event) { rel.onEvent(ev, &rel.req, &rel.resp) }
func (rel *npRelay) onServerEvent(ev netpoll.Event) { rel.onEvent(ev, &rel.resp, &rel.req) }

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

// commit lands the connection in PerBackend and the live gauges — the same
// point of no return as the goroutine relay's post-validation counter block.
func (rel *npRelay) commit(backend int) {
	p := rel.p
	rel.backend = backend
	p.ctrl.ReportDialSuccess(backend)
	p.perBackend[backend].Add(1)
	p.active.Add(1)
	rel.counted = true
}

// pump is the readiness engine for one direction: flush whatever write was
// blocked, then move chunks until the socket is drained (see the drain rule
// above), EOF, error, a blocked write, or budget exhaustion (then repost —
// ET delivers no reminder edges).
func (d *npDir) pump() {
	rel := d.rel
	if d.done || rel.finalized || rel.revalidating || !d.flushPending() {
		return
	}
	bulk := false // a read filled the buffer: the rest of this burst is spliced
	for budget := npPumpBudget; budget > 0; budget-- {
		var more bool
		if bulk && d.splice && spliceAvailable() {
			more = d.pumpSplice()
		} else {
			more, bulk = d.pumpCopy()
		}
		if !more || d.done || rel.finalized || rel.revalidating {
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
	n, errno := d.spliceNB(d.src.fd, sh.pipe.w, spliceChunk)
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
	if rel := d.rel; d.observe && rel.fromPool && !rel.validated {
		more = d.validateChunk(buf[:n])
	} else {
		d.chunkArrived()
		more = d.writeChunk(buf[:n])
	}
	return more && (full || d.hup), full // the drain rule
}

// validateChunk relays a pooled connection's first request chunk: the write
// is the connection's validation, and the first-byte observation is
// attributed only once it settles (the backend changes if the pooled conn
// turns out dead), exactly as on the goroutine path.
func (d *npDir) validateChunk(b []byte) bool {
	rel := d.rel
	p := rel.p
	ts := p.now() // arrival time, attributed after the write settles
	d.rearmIdle()
	n, blocked, err := d.rawWrite(b)
	if err != nil {
		rel.beginRevalidate(b, ts)
		return false
	}
	rel.validated = true
	p.observeAt(rel.hash, rel.key, rel.backend, ts)
	rel.commit(rel.backend)
	if !rel.registerServer() {
		return false
	}
	if blocked {
		d.strand(b[n:])
	}
	return !blocked
}

// chunkArrived timestamps a request-direction arrival into the estimator
// (once per chunk — identical granularity to one Read on the goroutine
// path) and re-arms this direction's deadline.
func (d *npDir) chunkArrived() {
	rel := d.rel
	if d.observe {
		rel.p.observe(rel.hash, rel.key, rel.backend)
	}
	d.rearmIdle()
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
		m, errno := d.spliceNB(pp.r, d.dst.fd, n)
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
		m, errno := syscall.Splice(rfd, nil, wfd, nil, n, spliceFlags)
		if errno != syscall.EINTR {
			return int(m), errno
		}
	}
}

// rawRead does one nonblocking read (EINTR-retried). EAGAIN comes back as
// the error: park until the next readiness edge.
func (d *npDir) rawRead(buf []byte) (int, error) {
	d.rel.p.sysReads.Add(1)
	for {
		n, errno := syscall.Read(d.src.fd, buf)
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
		n, errno := syscall.Write(d.dst.fd, b[total:])
		d.rel.p.sysWrites.Add(1)
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

// srcEOF handles a clean EOF, preserving the goroutine path's half-close
// contract: client EOF hands the server toward the pool (quiesce grace) or
// forwards the FIN; server EOF forwards the FIN to the client (a pooled
// conn that EOFs is dead — no recycle on this path).
func (d *npDir) srcEOF() {
	rel := d.rel
	d.done = true
	d.stopTimer()
	if d.observe {
		if rel.fromPool && !rel.validated {
			// Client finished without sending a byte: the pooled conn was
			// never tested. Commit like the goroutine path (its relay loops
			// would see immediate EOF after the counters commit).
			rel.validated = true
			rel.commit(rel.backend)
			if !rel.registerServer() {
				return
			}
		}
		if rel.wantRecycle() {
			rel.reuseWanted = true
			rel.resp.rearmIdle() // flips the response deadline to quiesce
		} else {
			closeWrite(rel.sEnd.conn)
		}
	} else {
		closeWrite(rel.cEnd.conn)
	}
	rel.maybeFinish()
}

// srcFailed handles a read-side failure. Response-direction read failures
// are backend evidence for the passive detector (mirroring runResponse);
// request-direction ones are client-side noise.
func (d *npDir) srcFailed(err error) {
	rel := d.rel
	if !d.observe {
		rel.p.reportRelayErr(rel.backend, err)
	}
	rel.finalize()
}

// dstFailed handles a write-side failure. Request-direction write failures
// hit the server (backend evidence, mirroring runRequest's writeSide);
// response-direction ones hit the client.
func (d *npDir) dstFailed(err error) {
	rel := d.rel
	if d.observe {
		rel.p.reportRelayErr(rel.backend, err)
	}
	rel.finalize()
}

// wantRecycle mirrors relay.wantRecycle: offer the drained server conn back
// to the pool unless the response side already died or the proxy is closing.
func (rel *npRelay) wantRecycle() bool {
	return rel.p.pool != nil && !rel.resp.done && !rel.p.closed.Load()
}

func (rel *npRelay) maybeFinish() {
	if rel.req.done && rel.resp.done {
		rel.finalize()
	}
}

// rearmIdle (re-)arms this direction's wheel timer: the idle deadline, or —
// response direction after a clean client EOF — the PoolQuiesce grace.
func (d *npDir) rearmIdle() {
	rel := d.rel
	var to time.Duration
	if !d.observe && rel.reuseWanted {
		to = rel.p.poolQuiesce()
	} else {
		to = rel.p.cfg.IdleTimeout
		if to <= 0 {
			return
		}
	}
	if d.idle == nil {
		d.idle = rel.shard.pol.AfterFunc(to, d.onTimeout)
	} else {
		rel.shard.pol.ResetTimer(d.idle, to)
	}
}

func (d *npDir) stopTimer() {
	if d.idle != nil {
		d.rel.shard.pol.StopTimer(d.idle)
	}
}

// onTimeout fires for an expired idle deadline or an elapsed quiesce grace.
func (d *npDir) onTimeout() {
	rel := d.rel
	if rel.finalized || d.done {
		return
	}
	if !d.observe && rel.reuseWanted {
		if len(d.pend) > 0 || d.inPipe > 0 {
			d.rearmIdle() // response tail still in flight to the client
			return
		}
		// A full PoolQuiesce of silence after the client's clean EOF: the
		// exchange is over and the server connection is drained.
		rel.recycled = true
		closeWrite(rel.cEnd.conn)
		d.done = true
		rel.maybeFinish()
		return
	}
	if !d.observe {
		// Backend went silent past the idle bound: detector evidence, like
		// runResponse's read-deadline expiry.
		rel.p.reportRelayErr(rel.backend, os.ErrDeadlineExceeded)
	}
	rel.finalize()
}

// beginRevalidate handles a pooled connection dying on its first write:
// accounted exactly like a failed dial (ReportDialError, one fresh redial to
// the same backend, then the failover path). The blocking dials run on a
// one-shot helper goroutine — never the poller loop — and the relay stays
// parked (revalidating) until the verdict is posted back. Charge ownership
// moves to the helper so a concurrent teardown cannot double-settle it.
func (rel *npRelay) beginRevalidate(chunk []byte, ts time.Duration) {
	p := rel.p
	rel.revalidating = true
	pending := append([]byte(nil), chunk...)
	p.congFinal(rel.sEnd.conn)
	_ = rel.sEnd.conn.Close() // never registered: pooled ends register post-validation
	rel.sEnd = npEnd{fd: -1}
	p.poolFirstWriteFails.Add(1)
	p.ctrl.ReportDialError(rel.backend, ts)
	rel.fromPool, rel.born = false, time.Time{}
	backend := rel.backend
	charged := rel.charged
	rel.charged = false
	go func() {
		server, newBackend := p.redial(backend, &charged)
		rel.shard.pol.Post(func() {
			rel.finishRevalidate(server, newBackend, charged, pending, ts)
		})
	}()
}

// finishRevalidate resumes (or buries) a relay whose pooled server died on
// first write. Runs on the loop.
func (rel *npRelay) finishRevalidate(server net.Conn, backend int, charged bool,
	pending []byte, ts time.Duration) {
	p := rel.p
	if rel.finalized {
		// Torn down while the helper dialed (idle expiry, client reset,
		// shutdown): settle what the helper still owns.
		if charged {
			p.ctrl.FlowClosed(backend, p.now())
		}
		if server != nil {
			_ = server.Close()
		}
		return
	}
	rel.revalidating = false
	rel.charged = charged
	if server == nil {
		p.dialErrors.Add(1) // terminal: no backend accepted the dial
		rel.dialErrTerminal = true
		rel.finalize()
		return
	}
	var raw bool
	rel.sEnd, raw = newNPEnd(server)
	p.congRegister(server, backend, rel.hash)
	rel.validated = true
	p.observeAt(rel.hash, rel.key, backend, ts)
	rel.commit(backend)
	if !raw {
		// The replacement lacks raw access (chaos wrapper): this relay
		// cannot continue event-driven. It is counted, then retired like an
		// immediate relay failure on the fresh conn.
		rel.finalize()
		return
	}
	// The swapped connection still owes the first chunk.
	n, blocked, err := rel.req.rawWrite(pending)
	if err != nil {
		p.reportRelayErr(backend, err)
		rel.finalize()
		return
	}
	if !rel.registerServer() {
		return
	}
	if blocked {
		rel.req.strand(pending[n:])
		return
	}
	rel.req.rearmIdle()
	rel.req.pump() // client edges that fired during the redial were swallowed
}

// finalize is the single teardown point: idempotent, loop-only. It releases
// what a blocked write left with the relay, unregisters both fds, settles
// the accounting identity (exactly one of PerBackend/DialErrors for every
// handed-off connection; FlowClosed only while charged; ForgetHashed
// always), and retires or recycles the server connection.
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
	for _, e := range []*npEnd{&rel.cEnd, &rel.sEnd} {
		if e.registered {
			rel.shard.pol.Unregister(e.fd)
			e.registered = false
		}
	}
	if !rel.counted && !rel.dialErrTerminal {
		// Relay died before its commit point (register failure, shutdown):
		// the goroutine path would have committed before its loops errored
		// out, so the connection still lands in PerBackend.
		rel.commit(rel.backend)
	}
	p.flows.ForgetHashed(rel.hash, rel.key)
	if rel.charged {
		p.ctrl.FlowClosed(rel.backend, p.now())
		rel.charged = false
	}
	if rel.counted {
		p.active.Add(-1)
	}
	if rel.sEnd.conn != nil {
		p.congFinal(rel.sEnd.conn) // last sample, before the conn can be recycled
		if rel.recycled && !p.closed.Load() && p.pool != nil &&
			p.pool.Put(rel.backend, rel.acceptor, rel.sEnd.conn, rel.born) {
			p.poolRecycled.Add(1)
		} else {
			_ = rel.sEnd.conn.Close()
		}
	}
	_ = rel.cEnd.conn.Close()
	p.relays.Done()
}
