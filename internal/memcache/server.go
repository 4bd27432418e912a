// Package memcache implements a small memcached-compatible server and
// client over real TCP sockets (text protocol subset: get/set/delete/
// stats/quit), plus an admin extension (`delay <duration>`) that injects
// artificial per-request processing delay — the live equivalent of the
// paper's 1 ms inflation on one server.
//
// It backs the live prototype (cmd/memcached, cmd/memtier, cmd/lbproxy and
// examples/liveproxy), which demonstrates the in-band estimator on real
// kernel TCP timing rather than simulated time.
package memcache

import (
	"bufio"
	"container/list"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ServerStats are cumulative counters exposed via the `stats` command.
type ServerStats struct {
	Gets      uint64
	Sets      uint64
	Hits      uint64
	Misses    uint64
	Deletes   uint64
	Conns     uint64
	Evictions uint64
	Items     int
}

// Server is a memcached-protocol server.
type Server struct {
	mu    sync.RWMutex
	items map[string]*list.Element
	order *list.List // front = most recently used

	delayNanos atomic.Int64 // artificial per-request delay

	gets, sets, hits, misses, deletes, conns, evictions atomic.Uint64

	lis      net.Listener
	connsMu  sync.Mutex
	open     map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool
	MaxValue int // maximum accepted value size; defaults to 1 MiB
	// MaxItems bounds the store; the least recently used entry is evicted
	// to admit a new key, as real memcached does under memory pressure.
	// Zero means unbounded. Set before serving traffic.
	MaxItems int
}

// entry is the stored form: key is kept for reverse lookup on eviction.
type entry struct {
	key   string
	value []byte
}

// NewServer creates an empty store.
func NewServer() *Server {
	return &Server{
		items:    make(map[string]*list.Element),
		order:    list.New(),
		open:     make(map[net.Conn]struct{}),
		MaxValue: 1 << 20,
	}
}

// SetDelay sets the artificial per-request processing delay.
func (s *Server) SetDelay(d time.Duration) { s.delayNanos.Store(int64(d)) }

// Delay returns the current artificial delay.
func (s *Server) Delay() time.Duration { return time.Duration(s.delayNanos.Load()) }

// Stats returns a snapshot of the counters.
func (s *Server) Stats() ServerStats {
	s.mu.RLock()
	n := len(s.items)
	s.mu.RUnlock()
	return ServerStats{
		Gets:      s.gets.Load(),
		Sets:      s.sets.Load(),
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Deletes:   s.deletes.Load(),
		Conns:     s.conns.Load(),
		Evictions: s.evictions.Load(),
		Items:     n,
	}
}

// Listen binds addr (e.g. "127.0.0.1:11211"). Use Serve to accept.
func (s *Server) Listen(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	return nil
}

// Addr returns the bound address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Serve accepts connections until Close. It returns nil after a clean
// shutdown.
func (s *Server) Serve() error {
	if s.lis == nil {
		return errors.New("memcache: Serve before Listen")
	}
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		// Admission and Close's sweep of the open set are ordered by
		// connsMu: a connection accepted after Close has swept is turned
		// away here, and no Add can race Close's Wait.
		s.connsMu.Lock()
		if s.closed.Load() {
			s.connsMu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns.Add(1)
		s.open[conn] = struct{}{}
		s.wg.Add(1)
		s.connsMu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.connsMu.Lock()
			delete(s.open, conn)
			s.connsMu.Unlock()
		}()
	}
}

// ListenAndServe combines Listen and Serve.
func (s *Server) ListenAndServe(addr string) error {
	if err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// Close stops accepting, closes open connections, and waits for handlers.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	s.connsMu.Lock()
	for c := range s.open {
		_ = c.Close()
	}
	s.connsMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		// Flush-on-idle: responses are only pushed to the socket when the
		// next read would block. A pipelined burst of k requests costs one
		// write syscall instead of k, and the non-pipelined case is
		// unchanged (an empty read buffer means we are about to block, so
		// the pending response flushes exactly where it always did).
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
		req, err := readRequest(r, s.MaxValue)
		if err != nil {
			var perr *protocolError
			if errors.As(err, &perr) {
				fmt.Fprintf(w, "CLIENT_ERROR %s\r\n", perr.msg)
				continue
			}
			// Push out responses already produced for this burst before
			// abandoning the connection on a torn frame.
			_ = w.Flush()
			return
		}

		if d := s.Delay(); d > 0 && req.verb != "delay" {
			time.Sleep(d)
		}

		switch req.verb {
		case "get", "gets":
			s.cmdGet(w, req.args)
		case "set":
			s.cmdSet(w, req)
		case "delete":
			s.cmdDelete(w, req.args)
		case "stats":
			s.cmdStats(w)
		case "delay":
			s.cmdDelay(w, req.args)
		case "version":
			fmt.Fprintf(w, "VERSION inbandlb-0.1\r\n")
		case "quit":
			_ = w.Flush()
			return
		default:
			fmt.Fprintf(w, "ERROR\r\n")
		}
	}
}

func (s *Server) cmdGet(w *bufio.Writer, keys [][]byte) {
	for _, k := range keys {
		s.gets.Add(1)
		s.mu.Lock()
		el, ok := s.items[string(k)]
		var v []byte
		if ok {
			s.order.MoveToFront(el)
			v = el.Value.(*entry).value
		}
		s.mu.Unlock()
		if ok {
			s.hits.Add(1)
			fmt.Fprintf(w, "VALUE %s 0 %d\r\n", k, len(v))
			_, _ = w.Write(v)
			_, _ = w.WriteString("\r\n")
		} else {
			s.misses.Add(1)
		}
	}
	_, _ = w.WriteString("END\r\n")
}

// cmdSet stores the already-parsed request (readRequest validated the
// header and consumed the data block).
func (s *Server) cmdSet(w *bufio.Writer, req *request) {
	s.sets.Add(1)
	key := string(req.args[0])
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		el.Value.(*entry).value = req.data
		s.order.MoveToFront(el)
	} else {
		if s.MaxItems > 0 && s.order.Len() >= s.MaxItems {
			if oldest := s.order.Back(); oldest != nil {
				s.order.Remove(oldest)
				delete(s.items, oldest.Value.(*entry).key)
				s.evictions.Add(1)
			}
		}
		s.items[key] = s.order.PushFront(&entry{key: key, value: req.data})
	}
	s.mu.Unlock()
	fmt.Fprintf(w, "STORED\r\n")
}

func (s *Server) cmdDelete(w *bufio.Writer, args [][]byte) {
	if len(args) < 1 {
		fmt.Fprintf(w, "CLIENT_ERROR bad command line\r\n")
		return
	}
	s.deletes.Add(1)
	key := string(args[0])
	s.mu.Lock()
	el, ok := s.items[key]
	if ok {
		s.order.Remove(el)
		delete(s.items, key)
	}
	s.mu.Unlock()
	if ok {
		fmt.Fprintf(w, "DELETED\r\n")
	} else {
		fmt.Fprintf(w, "NOT_FOUND\r\n")
	}
}

func (s *Server) cmdStats(w *bufio.Writer) {
	st := s.Stats()
	fmt.Fprintf(w, "STAT cmd_get %d\r\n", st.Gets)
	fmt.Fprintf(w, "STAT cmd_set %d\r\n", st.Sets)
	fmt.Fprintf(w, "STAT get_hits %d\r\n", st.Hits)
	fmt.Fprintf(w, "STAT get_misses %d\r\n", st.Misses)
	fmt.Fprintf(w, "STAT total_connections %d\r\n", st.Conns)
	fmt.Fprintf(w, "STAT curr_items %d\r\n", st.Items)
	fmt.Fprintf(w, "STAT evictions %d\r\n", st.Evictions)
	fmt.Fprintf(w, "STAT injected_delay_us %d\r\n", s.Delay().Microseconds())
	_, _ = w.WriteString("END\r\n")
}

// cmdDelay handles the admin extension: "delay 1ms" injects per-request
// delay; "delay 0" clears it.
func (s *Server) cmdDelay(w *bufio.Writer, args [][]byte) {
	if len(args) != 1 {
		fmt.Fprintf(w, "CLIENT_ERROR usage: delay <duration>\r\n")
		return
	}
	d, err := time.ParseDuration(string(args[0]))
	if err != nil || d < 0 {
		fmt.Fprintf(w, "CLIENT_ERROR bad duration\r\n")
		return
	}
	s.SetDelay(d)
	fmt.Fprintf(w, "OK\r\n")
}
