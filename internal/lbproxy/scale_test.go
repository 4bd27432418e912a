//go:build linux

package lbproxy

import (
	"flag"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/testbed"
)

// stressConns gates the concurrent-connection scale stresses. 0 skips
// them (the default: the tests pin tens of thousands of fds and are
// meant for explicit runs, e.g. `go test -run ConnScale
// -stress.conns=100000`). Whatever is requested is capped to what
// RLIMIT_NOFILE can actually hold (testbed.MaxProxiedConns).
var stressConns = flag.Int("stress.conns", 0, "target concurrent connections for the ConnScaleStress tests (0 = skip; capped by RLIMIT_NOFILE/4)")

// TestProxyConnScaleStress holds N concurrent connections open through
// the full dataplane at once — acceptor shards' event loops and the sharded
// estimator path — then tears everything down and checks the books balance
// exactly:
//
//   - every connection was accepted, routed, and observed (Accepted ==
//     sum(PerBackend), one estimator observation each),
//   - zero estimator samples lost (Samples == SamplesDelivered, dropped 0),
//   - Active returns to 0.
//
// Clients dial from rotating loopback source addresses (127.0.0.2-9) so
// the ephemeral-port space per (src,dst) tuple is never the binding
// constraint; in this harness the fd rlimit is.
//
// O(acceptor shards) poller goroutines own every relay, so the test also
// asserts the goroutine count stays far below the connection count while
// the fleet is parked.
func TestProxyConnScaleStress(t *testing.T) {
	if *stressConns == 0 {
		t.Skip("scale stress: set -stress.conns=N to run")
	}
	target := *stressConns
	if max := testbed.MaxProxiedConns(); target > max {
		t.Logf("capping -stress.conns=%d to %d (RLIMIT_NOFILE/4 with headroom)", target, max)
		target = max
	}

	// Hold backends: accept, swallow the greeting, keep the conn open.
	const nBackends = 4
	backends, stopBackends, err := testbed.StartHoldBackends(nBackends)
	if err != nil {
		t.Fatal(err)
	}
	defer stopBackends()

	proxy, err := New(Config{
		Backends:  backends,
		Policy:    control.NewRoundRobin(nBackends),
		Shards:    4,
		Acceptors: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = proxy.Serve() }()
	defer proxy.Close()
	paddr := proxy.Addr().String()

	// Establish the fleet: each connection sends one greeting so the
	// estimator observes its first byte and the relay then parks.
	// baseGoroutines is the pre-fleet floor; the hold backends add one
	// swallow-loop goroutine per proxied connection on top of it, which the
	// goroutine budget check below subtracts back out.
	baseGoroutines := runtime.NumGoroutine()
	greeting := []byte("hold 0123456789abcdef 0123456789abcdef\r\n")
	conns := make([]net.Conn, 0, target)
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	start := time.Now()
	for i := 0; i < target; i++ {
		d := testbed.RotatingDialer(i, 5*time.Second)
		c, err := d.Dial("tcp", paddr)
		if err != nil {
			t.Fatalf("dial %d/%d: %v", i, target, err)
		}
		conns = append(conns, c)
		if _, err := c.Write(greeting); err != nil {
			t.Fatalf("greeting %d/%d: %v", i, target, err)
		}
	}
	setup := time.Since(start)

	// All of them must be admitted, validated, and counted as active.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().Active < int64(target) {
		time.Sleep(20 * time.Millisecond)
	}
	st := proxy.Stats()
	goroutines := runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("held %d conns: setup %.1fs (%.0f conns/s), %d goroutines, %.1f MiB heap, stats %+v",
		target, setup.Seconds(), float64(target)/setup.Seconds(),
		goroutines, float64(ms.HeapInuse)/(1<<20),
		struct {
			Accepted, Samples, DialErrors, Dropped uint64
			Active                                 int64
		}{
			st.Accepted, st.Samples, st.DialErrors, st.Dropped, st.Active})
	t.Logf("netpoll shards: %+v", st.Netpoll)
	// The event loop's whole point: the fleet is parked on epoll, not on
	// 2N relay goroutine stacks. The in-process hold backends pin one
	// goroutine per connection; everything above that is the proxy's share,
	// which must be O(shards), not O(conns).
	relayGoroutines := goroutines - baseGoroutines - target
	t.Logf("proxy-side goroutines beyond backends: %d (two per connection would pin ~%d)",
		relayGoroutines, 2*target)
	if target >= 1000 && relayGoroutines > target/10 {
		t.Errorf("the fleet pinned %d proxy goroutines for %d conns, want O(shards)",
			relayGoroutines, target)
	}
	var reg int64
	for _, sh := range st.Netpoll {
		reg += sh.RegisteredFDs
	}
	if reg < int64(target) {
		t.Errorf("registered fds = %d across shards, want >= %d", reg, target)
	}
	if st.Active != int64(target) {
		t.Fatalf("active = %d, want %d", st.Active, target)
	}
	if st.Accepted != uint64(target) || st.DialErrors != 0 || st.Dropped != 0 {
		t.Fatalf("admission stats off: %+v", st)
	}
	var routed uint64
	for _, n := range st.PerBackend {
		routed += n
	}
	if routed != uint64(target) {
		t.Fatalf("routed %d != %d (perBackend %v)", routed, target, st.PerBackend)
	}
	// One observation per flow yields no inter-arrival sample; send a
	// second round of greetings so every flow crosses a batch boundary and
	// produces one.
	for i, c := range conns {
		if _, err := c.Write(greeting); err != nil {
			t.Fatalf("second greeting %d/%d: %v", i, target, err)
		}
	}
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().Samples < uint64(target) {
		time.Sleep(20 * time.Millisecond)
	}
	if s := proxy.Stats().Samples; s < uint64(target) {
		t.Fatalf("samples = %d, want >= %d (one batch-boundary sample per conn)", s, target)
	}

	// Teardown: close every client; relays must notice and drain.
	for _, c := range conns {
		_ = c.Close()
	}
	conns = conns[:0]
	deadline = time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().Active > 0 {
		time.Sleep(50 * time.Millisecond)
	}
	if a := proxy.Stats().Active; a != 0 {
		t.Fatalf("active = %d after closing all clients", a)
	}
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}
	st = proxy.Stats()
	if st.Samples != st.SamplesDelivered+st.SamplesDropped || st.SamplesDropped != 0 {
		t.Errorf("estimator sample loss at scale: samples %d, delivered %d, dropped %d",
			st.Samples, st.SamplesDelivered, st.SamplesDropped)
	}
	if testing.Verbose() {
		fmt.Printf("scale teardown clean: %d conns, %d samples, 0 dropped\n", target, st.Samples)
	}
}
