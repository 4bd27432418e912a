package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// mcConn speaks the memcached text protocol over one connection without
// allocating per request: the generator shares two cores with the proxy,
// so its own cost per op is kept small and is reported (workload.cpu_us_per_op).
type mcConn struct {
	c    net.Conn
	r    *bufio.Reader
	wbuf []byte
	rbuf []byte
}

func newMCConn(c net.Conn, maxValue int) *mcConn {
	return &mcConn{
		c:    c,
		r:    bufio.NewReaderSize(c, 64<<10),
		wbuf: make([]byte, 0, maxValue+128),
		rbuf: make([]byte, maxValue+2),
	}
}

// attach points the buffers at a fresh connection, so reconnecting
// workloads do not allocate per connection.
func (m *mcConn) attach(c net.Conn) {
	m.c = c
	m.r.Reset(c)
}

func (m *mcConn) close() {
	if m.c != nil {
		m.c.Close()
		m.c = nil
	}
}

func (m *mcConn) sendGet(key string) (int, error) {
	m.wbuf = append(append(append(m.wbuf[:0], "get "...), key...), "\r\n"...)
	return m.c.Write(m.wbuf)
}

func (m *mcConn) sendSet(key string, value []byte) (int, error) {
	b := append(append(m.wbuf[:0], "set "...), key...)
	b = append(b, " 0 0 "...)
	b = strconv.AppendInt(b, int64(len(value)), 10)
	b = append(append(append(b, "\r\n"...), value...), "\r\n"...)
	m.wbuf = b
	return m.c.Write(b)
}

var errProtocol = errors.New("unexpected memcached response")

// recvGet reads one get response and reports whether the value equals
// want, byte for byte; a miss is a mismatch. n is the bytes read.
func (m *mcConn) recvGet(want []byte) (match bool, n int, err error) {
	line, err := m.r.ReadSlice('\n')
	n = len(line)
	if err != nil {
		return false, n, err
	}
	if bytes.Equal(line, []byte("END\r\n")) {
		return false, n, nil
	}
	if !bytes.HasPrefix(line, []byte("VALUE ")) {
		return false, n, fmt.Errorf("%w: %q", errProtocol, line)
	}
	sz, err := strconv.Atoi(string(bytes.TrimRight(line[bytes.LastIndexByte(line, ' ')+1:], "\r\n")))
	if err != nil || sz < 0 {
		return false, n, fmt.Errorf("%w: %q", errProtocol, line)
	}
	if sz+2 > len(m.rbuf) {
		m.rbuf = make([]byte, sz+2)
	}
	k, err := io.ReadFull(m.r, m.rbuf[:sz+2])
	n += k
	if err != nil {
		return false, n, err
	}
	match = bytes.Equal(m.rbuf[:sz], want)
	line, err = m.r.ReadSlice('\n')
	n += len(line)
	if err != nil {
		return false, n, err
	}
	if !bytes.Equal(line, []byte("END\r\n")) {
		return false, n, fmt.Errorf("%w: %q", errProtocol, line)
	}
	return match, n, nil
}

func (m *mcConn) recvSet() (int, error) {
	line, err := m.r.ReadSlice('\n')
	if err != nil {
		return len(line), err
	}
	if !bytes.Equal(line, []byte("STORED\r\n")) {
		return len(line), fmt.Errorf("%w: %q", errProtocol, line)
	}
	return len(line), nil
}

// command sends one admin line (delay, version) and returns the reply line.
func (m *mcConn) command(line string) (string, error) {
	if _, err := m.c.Write([]byte(line + "\r\n")); err != nil {
		return "", err
	}
	reply, err := m.r.ReadSlice('\n')
	return string(bytes.TrimRight(reply, "\r\n")), err
}

// dataset is the keys of one run and the value each must hold. Both come
// from the seed alone, so every GET can be checked byte for byte whichever
// backend serves it.
type dataset struct {
	keys   []string
	values [][]byte
}

func newDataset(seed int64, n, valueSize int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{keys: make([]string, n), values: make([][]byte, n)}
	for i := range d.keys {
		d.keys[i] = fmt.Sprintf("k%016x", rng.Uint64())
		v := make([]byte, valueSize)
		for j := range v {
			v[j] = 'a' + byte(rng.Intn(26))
		}
		d.values[i] = v
	}
	return d
}

// preload stores every key on one backend, pipelined. corrupt flips one
// byte of each stored value: the smoke test's proof that verification has
// teeth.
func (d *dataset) preload(addr string, corrupt bool) error {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(20 * time.Second))
	m := newMCConn(c, len(d.values[0]))
	w := bufio.NewWriterSize(c, 256<<10)
	errc := make(chan error, 1)
	go func() { // replies are read concurrently so neither side's socket buffer fills
		for range d.keys {
			if _, err := m.recvSet(); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	scratch := make([]byte, 0, len(d.values[0]))
	for i, k := range d.keys {
		v := d.values[i]
		if corrupt {
			scratch = append(scratch[:0], v...)
			scratch[0] ^= 0x01
			v = scratch
		}
		fmt.Fprintf(w, "set %s 0 0 %d\r\n", k, len(v))
		w.Write(v)
		w.WriteString("\r\n")
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("preload %s: %w", addr, err)
	}
	if err := <-errc; err != nil {
		return fmt.Errorf("preload %s: %w", addr, err)
	}
	return nil
}

// loadSpec is the traffic one leg sends: closed loop, conns callers that
// each wait for their reply before sending the next request.
type loadSpec struct {
	addr  string
	conns int
	data  *dataset
	seed  int64
	// An op is reqsPerOp requests. closeAfterOp makes it dial → requests →
	// close (conn_churn); reqsPerConn > 0 reopens the connection after that
	// many requests (the paper's traffic shape), the dial charged to the
	// request that needed it.
	reqsPerOp    int
	closeAfterOp bool
	reqsPerConn  int
	trace        bool // record spans and first/next response latencies
}

// span is one timed interval of a traced op. Spans of one op share its id;
// parent is the name of the span that caused this one ("" for the root).
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the leg began
	End    int64  `json:"end_ns"`
}

type worker struct {
	id   int
	spec *loadSpec
	rng  *rand.Rand
	conn *mcConn // conn.c is nil while disconnected
	reqs int     // requests sent on the current connection
	t0   time.Time
	seq  uint64

	lat       [][]uint32 // per window: op latency, ns
	attempted []int64    // per window
	failed    []int64
	bytes     []int64 // per window: payload bytes sent + received
	first     []uint32
	next      []uint32
	spans     []span
	dialErrs  int64
	mismatch  int64
	firstErr  error
}

func (w *worker) fail(err error) {
	if w.firstErr == nil {
		w.firstErr = err
	}
	w.conn.close()
}

func (w *worker) addSpan(op uint64, name, parent string, start, end time.Time) {
	w.spans = append(w.spans, span{Op: op, Name: name, Parent: parent,
		Start: int64(start.Sub(w.t0)), End: int64(end.Sub(w.t0))})
}

// op runs one op and returns its latency, the payload bytes moved, and
// whether every request in it succeeded and verified.
func (w *worker) op() (time.Duration, int, bool) {
	s := w.spec
	w.seq++
	id := uint64(w.id)<<48 | w.seq
	start := time.Now()
	moved := 0
	for i := 0; i < s.reqsPerOp; i++ {
		reqStart := start
		if i > 0 || s.trace {
			reqStart = time.Now()
		}
		fresh := w.conn.c == nil
		if fresh {
			c, err := net.DialTimeout("tcp", s.addr, 2*time.Second)
			if err != nil {
				w.dialErrs++
				w.fail(err)
				return 0, moved, false
			}
			// One deadline per connection, beyond any leg's length: a
			// stalled proxy fails the op instead of hanging the rig.
			_ = c.SetDeadline(time.Now().Add(60 * time.Second))
			w.conn.attach(c)
			w.reqs = 0
			if s.trace {
				w.addSpan(id, "dial", "txn", reqStart, time.Now())
			}
		}
		k := w.rng.Intn(len(s.data.keys))
		isSet := w.rng.Intn(2) == 0
		var sendStart time.Time
		if s.trace {
			sendStart = time.Now()
		}
		var n int
		var err error
		if isSet {
			n, err = w.conn.sendSet(s.data.keys[k], s.data.values[k])
		} else {
			n, err = w.conn.sendGet(s.data.keys[k])
		}
		moved += n
		if err != nil {
			w.fail(err)
			return 0, moved, false
		}
		var sent time.Time
		if s.trace {
			sent = time.Now()
			w.addSpan(id, "send", "txn", sendStart, sent)
		}
		match := true
		if isSet {
			n, err = w.conn.recvSet()
		} else {
			match, n, err = w.conn.recvGet(s.data.values[k])
		}
		moved += n
		if err != nil {
			w.fail(err)
			return 0, moved, false
		}
		if s.trace {
			done := time.Now()
			w.addSpan(id, "wait_response", "txn", sent, done)
			d := uint32(done.Sub(reqStart))
			if fresh {
				w.first = append(w.first, d)
			} else {
				w.next = append(w.next, d)
			}
		}
		if !match {
			w.mismatch++
			w.fail(fmt.Errorf("value mismatch on key %s", s.data.keys[k]))
			return 0, moved, false
		}
		w.reqs++
		if s.reqsPerConn > 0 && w.reqs >= s.reqsPerConn {
			w.conn.close()
		}
	}
	if s.closeAfterOp {
		w.conn.close()
	}
	end := time.Now()
	if s.trace {
		w.addSpan(id, "txn", "", start, end)
	}
	return end.Sub(start), moved, true
}

// window is what one measurement window saw, all connections merged.
type window struct {
	seconds   float64
	attempted int64
	failed    int64
	bytes     int64
	lat       []uint32 // sorted, ns, successful ops only
	proc      procSample
	procEnd   procSample
	gen       procSample // the generator itself
	genEnd    procSample
	stealPct  float64 // share of the machine's CPU time the host took from this VM
}

func (w *window) ops() int64 { return int64(len(w.lat)) }

// quantileUS reads a quantile of sorted ns latencies, in µs.
func quantileUS(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e3
}

type legResult struct {
	windows  []window
	first    []uint32 // sorted; traced legs only
	next     []uint32
	spans    []span
	dialErrs int64
	mismatch int64
	firstErr error
}

// leg describes how one run of traffic is windowed and what is watched.
type leg struct {
	spec      loadSpec
	warm      time.Duration
	windows   int
	windowLen time.Duration
	pid       int       // process whose /proc accounting brackets each window
	onWindow  func(int) // called at the start of each window, before it is timed
	// place, when set, opens connection i before the leg starts. Workloads
	// on persistent connections use it to put one connection on each
	// backend: where the proxy's flow hash sends a connection depends on its
	// ephemeral port, and two connections sharing a backend run a tenth
	// slower than two that do not.
	place func(i int) (net.Conn, error)
}

// run drives the spec's closed loop through a warm-up and the windows. Ops
// are attributed to the window current when they complete; ops completing
// during warm-up are sent and verified but not counted.
func (l *leg) run() (*legResult, error) {
	var cur atomic.Int32
	cur.Store(-1)
	var stop atomic.Bool
	workers := make([]*worker, l.spec.conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range workers {
		w := &worker{
			id: i, spec: &l.spec, t0: t0,
			conn:      newMCConn(nil, len(l.spec.data.values[0])),
			rng:       rand.New(rand.NewSource(l.spec.seed*1000003 + int64(i))),
			lat:       make([][]uint32, l.windows),
			attempted: make([]int64, l.windows),
			failed:    make([]int64, l.windows),
			bytes:     make([]int64, l.windows),
		}
		workers[i] = w
		if l.place != nil {
			c, err := l.place(i)
			if err != nil {
				for _, o := range workers[:i] {
					o.conn.close()
				}
				return nil, err
			}
			_ = c.SetDeadline(time.Now().Add(60 * time.Second))
			w.conn.attach(c)
		}
	}
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				d, moved, ok := w.op()
				if i := int(cur.Load()); i >= 0 {
					w.attempted[i]++
					w.bytes[i] += int64(moved)
					if ok {
						w.lat[i] = append(w.lat[i], uint32(d))
					} else {
						w.failed[i]++
					}
				}
				if !ok {
					time.Sleep(time.Millisecond) // a refused dial must not spin
				}
			}
			w.conn.close()
		}()
	}

	res := &legResult{windows: make([]window, l.windows)}
	self := os.Getpid()
	var procErr error
	sample := func(pid int) procSample {
		s, err := readProc(pid)
		if err != nil && procErr == nil {
			procErr = err
		}
		return s
	}
	time.Sleep(l.warm)
	for i := 0; i < l.windows; i++ {
		if l.onWindow != nil {
			l.onWindow(i)
		}
		win := &res.windows[i]
		win.proc, win.gen = sample(l.pid), sample(self)
		steal0, total0 := hostJiffies()
		begin := time.Now()
		cur.Store(int32(i))
		time.Sleep(l.windowLen)
		cur.Store(-1) // ops completing between windows are not counted
		win.seconds = time.Since(begin).Seconds()
		win.procEnd, win.genEnd = sample(l.pid), sample(self)
		steal1, total1 := hostJiffies()
		win.stealPct = 100 * ratio(steal1-steal0, total1-total0)
	}
	stop.Store(true)
	wg.Wait()
	if procErr != nil {
		return nil, fmt.Errorf("reading /proc of pid %d: %w", l.pid, procErr)
	}

	for _, w := range workers {
		for i := range res.windows {
			win := &res.windows[i]
			win.attempted += w.attempted[i]
			win.failed += w.failed[i]
			win.bytes += w.bytes[i]
			win.lat = append(win.lat, w.lat[i]...)
		}
		res.first = append(res.first, w.first...)
		res.next = append(res.next, w.next...)
		res.spans = append(res.spans, w.spans...)
		res.dialErrs += w.dialErrs
		res.mismatch += w.mismatch
		if res.firstErr == nil {
			res.firstErr = w.firstErr
		}
	}
	for i := range res.windows {
		slices.Sort(res.windows[i].lat)
	}
	slices.Sort(res.first)
	slices.Sort(res.next)
	return res, nil
}
