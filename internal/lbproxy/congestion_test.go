//go:build linux

package lbproxy

import (
	"fmt"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/memcache"
	"inbandlb/internal/packet"
)

// TestSampleTCPInfo exercises the raw getsockopt path on a real loopback
// socket: the read must succeed (unless a sandbox latched it broken) and
// report a sane cumulative counter, and a descriptor that is not a TCP
// socket, or not open, must fail the sample without latching the
// process-wide flag.
func TestSampleTCPInfo(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		c, err := lis.Accept()
		if err == nil {
			defer c.Close()
			buf := make([]byte, 16)
			_, _ = c.Read(buf)
		}
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}

	rc, err := conn.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var (
		total, rtt uint32
		ok         bool
	)
	_ = rc.Control(func(fd uintptr) { total, rtt, ok = tcpInfoFD(int(fd)) })
	if !ok {
		if !tcpInfoAvailable() {
			t.Skip("TCP_INFO latched broken in this environment")
		}
		t.Fatal("tcpInfoFD failed on a live TCP socket")
	}
	// A fresh loopback conn has retransmitted nothing; the kernel may or
	// may not have an RTT estimate yet, so only sanity-bound it.
	if total != 0 {
		t.Errorf("fresh conn total_retrans = %d, want 0", total)
	}
	if rtt > 60e6 {
		t.Errorf("rtt = %dµs, implausible for loopback", rtt)
	}

	var pipe [2]int
	if err := syscall.Pipe(pipe[:]); err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(pipe[0])
	defer syscall.Close(pipe[1])
	for name, fd := range map[string]int{"a pipe": pipe[0], "no descriptor": -1} {
		if _, _, ok := tcpInfoFD(fd); ok {
			t.Errorf("tcpInfoFD accepted %s", name)
		}
		if !tcpInfoAvailable() {
			t.Errorf("%s latched tcpInfoBroken", name)
		}
	}
}

// TestCongChargeDelta pins the sampler's delta accounting: the first
// sample primes the baseline (a pooled conn's prior history is never
// charged), later samples forward only the growth, and a flat counter
// forwards nothing.
func TestCongChargeDelta(t *testing.T) {
	p, err := New(Config{
		Backends:          []string{"127.0.0.1:1", "127.0.0.1:2"},
		Policy:            control.NewRoundRobin(2),
		CongestionSignals: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	e := &congEntry{backend: 1, hash: 42}
	p.congCharge(e, 7) // primes: 7 retransmits before this relay are history
	p.congCharge(e, 7) // flat: nothing to forward
	p.congCharge(e, 12)

	if got := p.congSamples.Load(); got != 3 {
		t.Errorf("congSamples = %d, want 3", got)
	}
	if got := p.congRetrans.Load(); got != 5 {
		t.Errorf("congRetrans = %d, want 5 (12-7, baseline never charged)", got)
	}
	st := p.Stats()
	if st.CongSamples != 3 || st.CongRetrans != 5 {
		t.Errorf("Stats cong counters = %d/%d, want 3/5", st.CongSamples, st.CongRetrans)
	}
}

// TestProxyBackendChurn is the accounting-identity-under-churn test: while
// clients pour through a Maglev proxy, one backend is passively ejected and
// restored, and another has its listener torn down and rebound mid-run. The
// invariants:
//
//   - Accepted == sum(PerBackend) + DialErrors + Dropped holds exactly
//     after Close — churn may fail or reroute connections but never loses
//     one from the ledger;
//   - Maglev's disruption bound: ejecting backend E remaps only E's hash
//     space — every flow routed to a surviving backend before the churn
//     routes identically during it, and the full pre-churn routing returns
//     bit-for-bit after restore.
func TestProxyBackendChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket churn test")
	}
	const nBackends = 4
	backends := make([]string, nBackends)
	servers := make([]*memcache.Server, nBackends)
	for i := range backends {
		servers[i], backends[i] = startBackend(t)
	}

	maglev, err := control.NewMaglevStatic([]string{"b0", "b1", "b2", "b3"}, 1021)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := New(Config{
		Backends:        backends,
		Policy:          maglev,
		ControlInterval: time.Millisecond,
		FlowTable:       core.FlowTableConfig{IdleTimeout: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = proxy.Serve() }()
	t.Cleanup(func() { _ = proxy.Close() })
	paddr := proxy.Addr().String()

	// Routing probe: a fixed population of synthetic flows, routed through
	// the controller exactly as accepted connections are. Maglev is
	// table-based, so RouteHashed is a pure snapshot read.
	const nFlows = 2000
	route := func() [nFlows]int {
		var out [nFlows]int
		for i := 0; i < nFlows; i++ {
			key := packet.FlowKey{Proto: packet.ProtoTCP, SrcPort: uint16(i + 1), DstPort: 9}
			key.SrcIP = [4]byte{10, 0, byte(i >> 8), byte(i)}
			b, _ := proxy.ctrl.RouteHashed(key.Hash(), key, proxy.now())
			out[i] = b
		}
		return out
	}
	before := route()

	// Client load across the whole churn window.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cli, err := memcache.Dial(paddr, time.Second)
				if err != nil {
					continue // accept queue churn; the ledger still counts it
				}
				_ = cli.SetDeadline(time.Now().Add(2 * time.Second))
				_ = cli.Set(fmt.Sprintf("k-%d-%d", w, i), []byte("v"))
				_ = cli.Close()
			}
		}(w)
	}

	// Churn 1: passive ejection of backend 2. Only its flows may remap.
	const ejected = 2
	proxy.ctrl.SetEjected(ejected, true)
	time.Sleep(50 * time.Millisecond)
	during := route()
	moved := 0
	for i := range before {
		if before[i] == ejected {
			if during[i] == ejected {
				t.Fatalf("flow %d still routed to ejected backend", i)
			}
			moved++
			continue
		}
		if during[i] != before[i] {
			t.Fatalf("disruption bound violated: flow %d moved %d -> %d though backend %d is healthy",
				i, before[i], during[i], before[i])
		}
	}
	if moved == 0 {
		t.Fatal("no probe flows routed to the ejected backend; probe population too small")
	}

	// Churn 2: backend 1's listener goes down and comes back on the same
	// address — mid-run dial errors and failovers, then recovery.
	downAddr := backends[1]
	_ = servers[1].Close()
	time.Sleep(50 * time.Millisecond)
	restarted := memcache.NewServer()
	if err := restarted.Listen(downAddr); err != nil {
		t.Fatalf("rebind %s: %v", downAddr, err)
	}
	go func() { _ = restarted.Serve() }()
	t.Cleanup(func() { _ = restarted.Close() })

	// Restore: the pre-churn routing must return exactly.
	proxy.ctrl.SetEjected(ejected, false)
	time.Sleep(50 * time.Millisecond)
	after := route()
	if after != before {
		t.Fatal("routing did not return to the pre-churn table after restore")
	}

	close(stop)
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().Active > 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}

	st := proxy.Stats()
	var routed uint64
	for _, n := range st.PerBackend {
		routed += n
	}
	if st.Accepted != routed+st.DialErrors+st.Dropped {
		t.Errorf("accepted %d != routed %d + dial errors %d + dropped %d",
			st.Accepted, routed, st.DialErrors, st.Dropped)
	}
	if st.Accepted == 0 || routed == 0 {
		t.Errorf("churn test relayed nothing: accepted=%d routed=%d", st.Accepted, routed)
	}
	if st.Active != 0 {
		t.Errorf("active = %d after drain, want 0", st.Active)
	}
}

// TestProxyCongestionSignalsStress turns the live TCP_INFO sampler loose
// under the race detector: a fast sampling cadence on every shard's wheel
// races final samples at teardown, connection churn, pooled-socket
// recycling, and detector flapping. The assertions are structural —
// counters sane and the accounting identity exact — because loopback
// produces no real retransmissions to detect.
func TestProxyCongestionSignalsStress(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket stress test")
	}
	// Pooling on: the final sample must race pool recycling too (a socket
	// alternates between a loop's fd and the pool's net.Conn). Either way
	// each shard samples its own sockets from its wheel.
	for _, poolIdle := range []int{4, 0} {
		t.Run(fmt.Sprintf("pool-idle-%d", poolIdle), func(t *testing.T) { congestionStress(t, poolIdle) })
	}
}

func congestionStress(t *testing.T, poolIdle int) {
	const nBackends = 3
	backends := make([]string, nBackends)
	for i := range backends {
		_, backends[i] = startBackend(t)
	}

	proxy, err := New(Config{
		Backends:                 backends,
		Policy:                   control.NewRoundRobin(nBackends),
		ControlInterval:          time.Millisecond,
		PoolIdle:                 poolIdle,
		CongestionSignals:        true,
		CongestionSampleInterval: time.Millisecond,
		FlowTable:                core.FlowTableConfig{IdleTimeout: 100 * time.Millisecond},
		Detector: control.DetectorConfig{
			Enabled:           true,
			CongestionPerTick: 1,
			CongestionTicks:   3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = proxy.Serve() }()
	t.Cleanup(func() { _ = proxy.Close() })
	paddr := proxy.Addr().String()

	// Detector flapping in the background: ejection republishes snapshots
	// while the sampler attributes congestion to shifting backends.
	flapStop := make(chan struct{})
	var flapWg sync.WaitGroup
	flapWg.Add(1)
	go func() {
		defer flapWg.Done()
		for i := 0; ; i++ {
			select {
			case <-flapStop:
				return
			default:
			}
			b := i % nBackends
			proxy.ctrl.SetEjected(b, true)
			time.Sleep(5 * time.Millisecond)
			proxy.ctrl.SetEjected(b, false)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	const (
		workers     = 16
		connsPerWkr = 20
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < connsPerWkr; c++ {
				cli, err := memcache.Dial(paddr, 2*time.Second)
				if err != nil {
					continue
				}
				_ = cli.SetDeadline(time.Now().Add(5 * time.Second))
				_ = cli.Set(fmt.Sprintf("k-%d-%d", w, c), []byte("congestion-stress"))
				_, _, _ = cli.Get(fmt.Sprintf("k-%d-%d", w, c))
				_ = cli.Close()
			}
		}(w)
	}
	wg.Wait()
	close(flapStop)
	flapWg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && proxy.Stats().Active > 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}

	st := proxy.Stats()
	var routed uint64
	for _, n := range st.PerBackend {
		routed += n
	}
	if st.Accepted != routed+st.DialErrors+st.Dropped {
		t.Errorf("accepted %d != routed %d + dial errors %d + dropped %d",
			st.Accepted, routed, st.DialErrors, st.Dropped)
	}
	if tcpInfoAvailable() {
		if st.CongSamples == 0 {
			t.Error("no TCP_INFO samples with congestion signals enabled")
		}
	} else if st.CongSamples != 0 {
		t.Errorf("CongSamples = %d where TCP_INFO is unavailable", st.CongSamples)
	}
	// Loopback under test load does not retransmit; a nonzero count here
	// would mean delta accounting invented events.
	if st.CongRetrans > st.CongSamples {
		t.Errorf("CongRetrans %d > CongSamples %d: delta accounting implausible",
			st.CongRetrans, st.CongSamples)
	}
}
