//go:build linux

package lbproxy

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/memcache"
)

// withoutSplice runs the rest of the test on the copy path: the latch a
// kernel that refuses splice(2) sets. Every burst then goes through the read
// buffer, however full the reads.
func withoutSplice(t *testing.T) {
	t.Helper()
	was := spliceBroken.Swap(true)
	t.Cleanup(func() { spliceBroken.Store(was) })
}

// TestProxySpliceRelayMemcache proves the zero-copy path relays real
// protocol traffic correctly and that it actually ran (splice syscalls
// observed) where the platform supports it.
func TestProxySpliceRelayMemcache(t *testing.T) {
	backend, baddr := startBackend(t)
	// Service time must clear the δ₁ = 64 µs ladder floor or raw-loopback
	// gaps merge into one batch and sampling depends on scheduling jitter
	// (EXPERIMENTS.md "Known limitation: the ladder floor").
	backend.SetDelay(400 * time.Microsecond)
	proxy, paddr := startProxyCfg(t, Config{
		Backends: []string{baddr},
		Policy:   control.NewRoundRobin(1),
		// Smaller than the 4 KiB values below: a read that fills the buffer
		// sends the rest of the burst down the splice path.
		BufferSize: 1 << 10,
	})

	cli, err := memcache.Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_ = cli.SetDeadline(time.Now().Add(5 * time.Second))
	big := strings.Repeat("v", 4096)
	for i := 0; i < 10; i++ {
		if err := cli.Set("k", []byte(big)); err != nil {
			t.Fatal(err)
		}
		v, ok, err := cli.Get("k")
		if err != nil || !ok || string(v) != big {
			t.Fatalf("get %d: ok=%v err=%v len=%d", i, ok, err, len(v))
		}
	}
	// Sample delivery is asynchronous to the relay; give it a moment to land.
	var st Stats
	deadline := time.Now().Add(2 * time.Second)
	for {
		st = proxy.Stats()
		if st.Samples > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Samples == 0 {
		t.Error("no estimator samples on the splice path")
	}
	if spliceAvailable() && st.RelaySplices == 0 {
		t.Error("splice enabled and available, but no splice syscalls recorded")
	}
	assertIdentity(t, st)
}

// TestProxyHalfClose pins CloseWrite propagation through the relay, with
// splice available and latched off: a client that half-closes after its
// request must still receive the full response, then EOF.
func TestProxyHalfClose(t *testing.T) {
	for _, mode := range []struct {
		name   string
		splice bool
	}{{"splice", true}, {"fallback", false}} {
		t.Run(mode.name, func(t *testing.T) {
			if !mode.splice {
				withoutSplice(t)
			}
			_, baddr := startBackend(t)
			_, paddr := startProxyCfg(t, Config{
				Backends: []string{baddr},
				Policy:   control.NewRoundRobin(1),
			})
			conn, err := net.DialTimeout("tcp", paddr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write([]byte("set hk 0 0 2\r\nhi\r\n")); err != nil {
				t.Fatal(err)
			}
			// Half-close: FIN follows the request; the backend must still
			// see the bytes and the response must still come back.
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			resp, err := bufio.NewReader(conn).ReadString('\n')
			if err != nil || strings.TrimSpace(resp) != "STORED" {
				t.Fatalf("response %q err=%v", resp, err)
			}
			// And then EOF, once the backend finishes and closes.
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) && err == nil {
				t.Error("expected EOF after half-closed exchange")
			}
		})
	}
}

// TestProxyPooledConnReuse drives two sequential client sessions and
// asserts the second one rides the first one's backend connection.
func TestProxyPooledConnReuse(t *testing.T) {
	_, baddr := startBackend(t)
	proxy, paddr := startProxyCfg(t, Config{
		Backends:    []string{baddr},
		Policy:      control.NewRoundRobin(1),
		PoolIdle:    2,
		PoolQuiesce: 5 * time.Millisecond,
	})

	exchange := func(key, val string) {
		cli, err := memcache.Dial(paddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		_ = cli.SetDeadline(time.Now().Add(5 * time.Second))
		if err := cli.Set(key, []byte(val)); err != nil {
			t.Fatal(err)
		}
		v, ok, err := cli.Get(key)
		if err != nil || !ok || string(v) != val {
			t.Fatalf("get %q: ok=%v err=%v", key, ok, err)
		}
	}

	exchange("a", "1")
	// The first session's backend conn recycles after PoolQuiesce silence.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().PoolRecycled == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if proxy.Stats().PoolRecycled == 0 {
		t.Fatal("first session's backend conn never recycled")
	}
	exchange("b", "2")

	st := proxy.Stats()
	if st.PoolHits == 0 {
		t.Errorf("second session did not reuse the pooled conn: %+v", st)
	}
	assertIdentity(t, st)
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}
	st = proxy.Stats()
	if st.Samples != st.SamplesDelivered+st.SamplesDropped {
		t.Errorf("sample identity broken: %d != %d + %d",
			st.Samples, st.SamplesDelivered, st.SamplesDropped)
	}
}

// plantDeadPooledConn puts a real TCP connection into the pool for backend 0
// whose write side is already shut down: the checkout probe sees a quiet,
// open socket (EAGAIN — healthy), but the first relay write fails with
// EPIPE.
func plantDeadPooledConn(t *testing.T, proxy *Proxy) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lis.Close() })
	c, err := net.DialTimeout("tcp", lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if !proxy.pool.Put(0, 0, c, time.Time{}) {
		t.Fatal("could not plant pooled conn")
	}
}

// TestProxyPooledDeadBackend is the revalidation table: a pooled connection
// that fails its first write must be accounted exactly like a failed dial —
// one redial to the same backend, then the existing failover path — with
// the Accepted identity intact in every outcome. The redial is the relay's
// own connecting state, on the loop, with the first chunk parked in the
// relay until it settles.
func TestProxyPooledDeadBackend(t *testing.T) {
	pooledDeadBackendTable(t, 0, "v")
}

// pooledDeadBackendTable runs the revalidation table with the given read
// buffer size (0: the default) and a first request that stores value.
func pooledDeadBackendTable(t *testing.T, bufSize int, value string) {
	cases := []struct {
		name string
		// backends: "live" is replaced by a real memcached, "dead" by a
		// refusing address. The failing pooled conn is planted for backend 0.
		backends      []string
		wantErr       bool   // client exchange fails
		wantDialErrs  uint64 // terminal dial errors
		wantFailovers uint64
		wantBackend   int // backend that must serve the rescued exchange (-1 none)
	}{
		{
			name:     "redial same backend succeeds",
			backends: []string{"live"},
			wantErr:  false, wantDialErrs: 0, wantFailovers: 0, wantBackend: 0,
		},
		{
			name:     "backend down, failover rescues",
			backends: []string{"dead", "live"},
			wantErr:  false, wantDialErrs: 0, wantFailovers: 1, wantBackend: 1,
		},
		{
			name:     "all backends down, terminal dial error",
			backends: []string{"dead", "dead"},
			wantErr:  true, wantDialErrs: 1, wantFailovers: 0, wantBackend: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addrs := make([]string, len(tc.backends))
			for i, kind := range tc.backends {
				if kind == "live" {
					_, addrs[i] = startBackend(t)
				} else {
					addrs[i] = deadAddr(t)
				}
			}
			proxy, paddr := startProxyCfg(t, Config{
				Backends: addrs,
				// RoundRobin picks backend 0 for the first connection.
				Policy:     control.NewRoundRobin(len(addrs)),
				PoolIdle:   2,
				BufferSize: bufSize,
			})
			plantDeadPooledConn(t, proxy)

			cli, err := memcache.Dial(paddr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			_ = cli.SetDeadline(time.Now().Add(5 * time.Second))
			setErr := cli.Set("k", []byte(value))
			if (setErr != nil) != tc.wantErr {
				t.Fatalf("set err = %v, wantErr = %v", setErr, tc.wantErr)
			}
			if !tc.wantErr { // the rescued request arrived whole
				if v, ok, err := cli.Get("k"); err != nil || !ok || string(v) != value {
					t.Fatalf("get after rescue: ok=%v err=%v len=%d, want %d bytes", ok, err, len(v), len(value))
				}
			}
			_ = cli.Close()

			// Let the relay settle (it may still be tearing down).
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) && proxy.Stats().Active > 0 {
				time.Sleep(2 * time.Millisecond)
			}
			st := proxy.Stats()
			if st.PoolFirstWriteFails != 1 {
				t.Errorf("poolFirstWriteFails = %d, want 1", st.PoolFirstWriteFails)
			}
			if st.DialErrors != tc.wantDialErrs {
				t.Errorf("dialErrors = %d, want %d", st.DialErrors, tc.wantDialErrs)
			}
			if st.Failovers != tc.wantFailovers {
				t.Errorf("failovers = %d, want %d", st.Failovers, tc.wantFailovers)
			}
			if tc.wantBackend >= 0 && st.PerBackend[tc.wantBackend] != 1 {
				t.Errorf("perBackend = %v, want conn on backend %d", st.PerBackend, tc.wantBackend)
			}
			assertIdentity(t, st)
		})
	}
}

// TestProxyPooledProbeDiscardsClosedConn: a pooled connection that is
// already closed must be discarded by the checkout probe, falling back to
// a fresh dial — the client never notices.
func TestProxyPooledProbeDiscardsClosedConn(t *testing.T) {
	_, baddr := startBackend(t)
	proxy, paddr := startProxyCfg(t, Config{
		Backends: []string{baddr},
		Policy:   control.NewRoundRobin(1),
		PoolIdle: 2,
	})
	// Plant a real-but-closed TCP conn.
	c, err := net.DialTimeout("tcp", baddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !proxy.pool.Put(0, 0, c, time.Time{}) {
		t.Fatal("checkin failed")
	}
	_ = c.Close()

	cli, err := memcache.Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_ = cli.SetDeadline(time.Now().Add(5 * time.Second))
	if err := cli.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	st := proxy.Stats()
	if st.PoolDead != 1 {
		t.Errorf("poolDead = %d, want 1", st.PoolDead)
	}
	if st.PoolFirstWriteFails != 0 {
		t.Errorf("first-write fails = %d, want 0 (probe should have caught it)", st.PoolFirstWriteFails)
	}
	assertIdentity(t, st)
}

// TestProxyMultiAcceptor runs the full syscall-diet configuration —
// REUSEPORT acceptor shards, splice, pooling — under concurrent clients.
func TestProxyMultiAcceptor(t *testing.T) {
	const nBackends = 2
	backends := make([]string, nBackends)
	for i := range backends {
		_, backends[i] = startBackend(t)
	}
	proxy, paddr := startProxyCfg(t, Config{
		Backends:  backends,
		Policy:    control.NewRoundRobin(nBackends),
		Acceptors: 4,
		PoolIdle:  4,
	})
	if len(proxy.np) != 4 {
		t.Errorf("acceptor shards = %d, want 4", len(proxy.np))
	}

	const clients = 16
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			cli, err := memcache.Dial(paddr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			_ = cli.SetDeadline(time.Now().Add(5 * time.Second))
			for s := 0; s < 5; s++ {
				if err := cli.Set("mk", []byte("mv")); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := proxy.Stats()
	if st.Accepted != clients {
		t.Errorf("accepted = %d, want %d", st.Accepted, clients)
	}
	assertIdentity(t, st)
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}
	st = proxy.Stats()
	if st.Samples != st.SamplesDelivered+st.SamplesDropped || st.SamplesDropped != 0 {
		t.Errorf("sample identity: %d != %d + %d",
			st.Samples, st.SamplesDelivered, st.SamplesDropped)
	}
}
