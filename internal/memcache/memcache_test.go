package memcache

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer runs a server on an ephemeral loopback port.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })
	return s, s.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestSetGetDelete(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)

	if _, ok, err := c.Get("missing"); err != nil || ok {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
	if err := c.Set("k1", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("k1")
	if err != nil || !ok {
		t.Fatalf("hit: ok=%v err=%v", ok, err)
	}
	if string(v) != "hello world" {
		t.Errorf("value = %q", v)
	}
	if ok, err := c.Delete("k1"); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if ok, err := c.Delete("k1"); err != nil || ok {
		t.Fatalf("double delete: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := c.Get("k1"); ok {
		t.Error("deleted key still present")
	}
}

func TestBinaryValueRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)
	val := make([]byte, 4096)
	for i := range val {
		val[i] = byte(i)
	}
	// Values containing \r\n must survive (length-prefixed reads).
	val[100], val[101] = '\r', '\n'
	if err := c.Set("bin", val); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get("bin")
	if err != nil || !ok {
		t.Fatal(err)
	}
	if len(got) != len(val) {
		t.Fatalf("len = %d, want %d", len(got), len(val))
	}
	for i := range val {
		if got[i] != val[i] {
			t.Fatalf("byte %d = %#02x, want %#02x", i, got[i], val[i])
		}
	}
}

func TestStatsAndVersion(t *testing.T) {
	srv, addr := startServer(t)
	c := dialT(t, addr)
	_ = c.Set("a", []byte("1"))
	_, _, _ = c.Get("a")
	_, _, _ = c.Get("b")
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["cmd_set"] != "1" || stats["cmd_get"] != "2" || stats["get_hits"] != "1" || stats["get_misses"] != "1" {
		t.Errorf("stats = %v", stats)
	}
	if v, err := c.Version(); err != nil || !strings.Contains(v, "inbandlb") {
		t.Errorf("version = %q err=%v", v, err)
	}
	if srv.Stats().Conns != 1 {
		t.Errorf("conns = %d", srv.Stats().Conns)
	}
}

func TestDelayInjection(t *testing.T) {
	srv, addr := startServer(t)
	c := dialT(t, addr)
	if err := c.InjectDelay(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if srv.Delay() != 20*time.Millisecond {
		t.Fatalf("server delay = %v", srv.Delay())
	}
	start := time.Now()
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Errorf("request took %v, want >= 20ms injected", el)
	}
	// Clearing works and the delay command itself is not delayed.
	if err := c.InjectDelay(0); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 10*time.Millisecond {
		t.Errorf("request took %v after clearing delay", el)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr, time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			key := "k" + string(rune('a'+id))
			for i := 0; i < 50; i++ {
				if err := c.Set(key, []byte{byte(i)}); err != nil {
					errs <- err
					return
				}
				v, ok, err := c.Get(key)
				if err != nil || !ok || v[0] != byte(i) {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestProtocolErrors(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(s string) string {
		if _, err := conn.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 256)
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf[:n])
	}
	if got := send("bogus\r\n"); !strings.HasPrefix(got, "ERROR") {
		t.Errorf("bogus command: %q", got)
	}
	if got := send("set x 0 0\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Errorf("short set: %q", got)
	}
	if got := send("set x 0 0 -5\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Errorf("negative size: %q", got)
	}
	if got := send("delay nonsense\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Errorf("bad delay: %q", got)
	}
	if got := send("delete\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Errorf("short delete: %q", got)
	}
}

func TestQuitAndClose(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("quit\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("connection still open after quit")
	}
	_ = conn.Close()
}

func TestServerCloseIdempotent(t *testing.T) {
	s, _ := startServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiGet(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)
	_ = c.Set("x", []byte("1"))
	// The server supports multi-key get; the simple client reads the last
	// value. Exercise via raw protocol.
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("get x missing x\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	n, _ := conn.Read(buf)
	out := string(buf[:n])
	if strings.Count(out, "VALUE x") != 2 || !strings.HasSuffix(out, "END\r\n") {
		t.Errorf("multi-get response: %q", out)
	}
}

func TestPipelinedOperations(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)

	// Queue a burst of sets, then drain responses in order.
	const n = 10
	for i := 0; i < n; i++ {
		if err := c.SendSet("pk"+string(rune('0'+i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.RecvSet(); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}

	// Pipeline gets: hits and a miss interleaved, FIFO responses.
	if err := c.SendGet("pk0"); err != nil {
		t.Fatal(err)
	}
	if err := c.SendGet("missing"); err != nil {
		t.Fatal(err)
	}
	if err := c.SendGet("pk5"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.RecvGet()
	if err != nil || !ok || v[0] != 0 {
		t.Fatalf("pipelined get 1: %v %v %v", v, ok, err)
	}
	if _, ok, err := c.RecvGet(); err != nil || ok {
		t.Fatalf("pipelined miss: ok=%v err=%v", ok, err)
	}
	v, ok, err = c.RecvGet()
	if err != nil || !ok || v[0] != 5 {
		t.Fatalf("pipelined get 3: %v %v %v", v, ok, err)
	}
}

func TestLRUEviction(t *testing.T) {
	s := NewServer()
	s.MaxItems = 3
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })
	c := dialT(t, s.Addr().String())

	for _, k := range []string{"a", "b", "c"} {
		if err := c.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" becomes the LRU victim when "d" arrives.
	if _, ok, _ := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	if err := c.Set("d", []byte("d")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok, _ := c.Get(k); !ok {
			t.Errorf("%s missing after eviction", k)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Items != 3 {
		t.Errorf("evictions=%d items=%d, want 1/3", st.Evictions, st.Items)
	}
	// Overwriting an existing key must not evict.
	if err := c.Set("a", []byte("a2")); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Evictions != 1 {
		t.Error("overwrite caused an eviction")
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["curr_items"] != "3" || stats["evictions"] != "1" {
		t.Errorf("stats output: %v", stats)
	}
}

func TestMaxValueRejected(t *testing.T) {
	s := NewServer()
	s.MaxValue = 16
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })
	c := dialT(t, s.Addr().String())
	if err := c.Set("small", []byte("ok")); err != nil {
		t.Fatalf("small value rejected: %v", err)
	}
	err := c.Set("big", make([]byte, 64))
	if err == nil {
		t.Fatal("oversized value accepted")
	}
	if !strings.Contains(err.Error(), "CLIENT_ERROR") {
		t.Errorf("err = %v, want CLIENT_ERROR", err)
	}
}

// TestServerCloseWhileAccepting: Close racing a stream of new connections
// returns promptly and leaves no connection open behind it. A connection
// Serve admits after Close took its snapshot of the open set must be turned
// away, not tracked: nothing would close it, and Close would wait for its
// handler until the client hung up. (Under -race this also checks that
// Serve's WaitGroup Add cannot run concurrently with Close's Wait.)
func TestServerCloseWhileAccepting(t *testing.T) {
	for i := 0; i < 20; i++ {
		s := NewServer()
		if err := s.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go func() { _ = s.Serve() }()
		addr := s.Addr().String()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					c, err := net.DialTimeout("tcp", addr, time.Second)
					if err != nil {
						continue
					}
					defer c.Close() // held open: only the server may end it
				}
			}()
		}
		time.Sleep(2 * time.Millisecond)
		closed := make(chan struct{})
		go func() { _ = s.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Close still waiting on a connection it never closed", i)
		}
		close(stop)
		wg.Wait()
	}
}
