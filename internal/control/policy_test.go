package control

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"inbandlb/internal/packet"
)

// openFlows is a test dataplane's per-backend open-flow count, bound as
// the occupancy of the policy under test: pick opens a flow at the picked
// backend, and decrementing an entry closes one.
type openFlows []int

func bindOpen(p OccupancyBinder, n int) openFlows {
	o := make(openFlows, n)
	p.BindOccupancy(func(b int) int { return o[b] })
	return o
}

func (o openFlows) pick(p Policy, k packet.FlowKey, now time.Duration) int {
	b := p.Pick(k, now)
	o[b]++
	return b
}

func key(n int) packet.FlowKey {
	return packet.NewFlowKey(
		netip.MustParseAddr("10.0.0.9"), netip.MustParseAddr("10.1.0.1"),
		uint16(20000+n), 11211, packet.ProtoTCP)
}

func TestRoundRobin(t *testing.T) {
	rr := NewRoundRobin(3)
	if rr.Name() != "roundrobin" || rr.NumBackends() != 3 {
		t.Fatalf("metadata wrong: %q %d", rr.Name(), rr.NumBackends())
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if got := rr.Pick(key(i), 0); got != w {
			t.Errorf("pick %d = %d, want %d", i, got, w)
		}
	}
	rr.ObserveLatency(0, 0, time.Second) // no-ops must not panic
}

func TestRoundRobinValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero backends accepted")
		}
	}()
	NewRoundRobin(0)
}

func TestRandomUniform(t *testing.T) {
	r := NewRandom(4, rand.New(rand.NewSource(3)))
	counts := make([]int, 4)
	const n = 8000
	for i := 0; i < n; i++ {
		counts[r.Pick(key(i), 0)]++
	}
	for b, c := range counts {
		if c < n/4*8/10 || c > n/4*12/10 {
			t.Errorf("backend %d got %d picks, want ~%d", b, c, n/4)
		}
	}
	r.ObserveLatency(0, 0, 0)
	if r.Name() != "random" || r.NumBackends() != 4 {
		t.Error("metadata wrong")
	}
}

// TestLeastConn: picks follow the bound open-flow count, and an unbound
// policy reads every backend as empty.
func TestLeastConn(t *testing.T) {
	lc := NewLeastConn(3)
	if lc.Name() != "leastconn" || lc.NumBackends() != 3 {
		t.Fatalf("metadata wrong: %q %d", lc.Name(), lc.NumBackends())
	}
	for i := 0; i < 3; i++ {
		if got := lc.Pick(key(i), 0); got != 0 {
			t.Fatalf("unbound pick %d = %d, want 0 (every backend empty)", i, got)
		}
	}
	open := bindOpen(lc, 3)
	a := open.pick(lc, key(0), 0) // 0
	b := open.pick(lc, key(1), 0) // 1
	c := open.pick(lc, key(2), 0) // 2
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("initial spread = %d,%d,%d", a, b, c)
	}
	open[1]-- // a flow on 1 closes
	if got := open.pick(lc, key(3), 0); got != 1 {
		t.Errorf("after closing on 1, pick = %d, want 1", got)
	}
	open[2] += 5
	open[0] += 5
	if got := lc.Pick(key(4), 0); got != 1 {
		t.Errorf("with counts %v, pick = %d, want 1", open, got)
	}
	lc.ObserveLatency(0, 0, 0)
}

func TestMaglevStaticAffinityAndBalance(t *testing.T) {
	m, err := NewMaglevStatic([]string{"s0", "s1", "s2"}, 4093)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "maglev" || m.NumBackends() != 3 {
		t.Fatal("metadata wrong")
	}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		b := m.Pick(key(i), 0)
		if b2 := m.Pick(key(i), time.Hour); b2 != b {
			t.Fatalf("same flow mapped to %d then %d", b, b2)
		}
		counts[b]++
	}
	for b, c := range counts {
		if c < n/3*85/100 || c > n/3*115/100 {
			t.Errorf("backend %d got %d flows, want ~%d", b, c, n/3)
		}
	}
	m.ObserveLatency(0, 0, time.Hour) // ignored by design
}

func TestP2CPrefersFasterBackend(t *testing.T) {
	p := NewP2C(2, rand.New(rand.NewSource(5)), coreLatencyCfg())
	now := time.Duration(0)
	for i := 0; i < 50; i++ {
		now += time.Millisecond
		p.ObserveLatency(0, now, 200*time.Microsecond)
		p.ObserveLatency(1, now, 2*time.Millisecond)
	}
	counts := make([]int, 2)
	for i := 0; i < 1000; i++ {
		counts[p.Pick(key(i), now)]++
	}
	// With 2 backends, both are always the two choices, so the faster one
	// must win every pick.
	if counts[0] != 1000 {
		t.Errorf("fast backend picked %d/1000", counts[0])
	}
}

func TestP2CFallsBackToOccupancy(t *testing.T) {
	p := NewP2C(2, rand.New(rand.NewSource(5)), coreLatencyCfg())
	open := bindOpen(p, 2)
	// No latency data: occupancy decides; first pick goes to 0, second to 1.
	a := open.pick(p, key(0), 0)
	b := open.pick(p, key(1), 0)
	if a == b {
		t.Errorf("with no data picks were %d,%d; expected spread", a, b)
	}
	open[0] += 10
	for i := 2; i < 10; i++ {
		if got := open.pick(p, key(i), 0); got != 1 {
			t.Fatalf("pick %d = %d with counts %v, want the emptier 1", i, got, open)
		}
	}
	if p.Name() != "p2c" || p.NumBackends() != 2 {
		t.Error("metadata wrong")
	}
}

func TestP2CSingleBackend(t *testing.T) {
	p := NewP2C(1, rand.New(rand.NewSource(1)), coreLatencyCfg())
	if got := p.Pick(key(0), 0); got != 0 {
		t.Errorf("pick = %d", got)
	}
}

func TestP2CExploresUnmeasuredBackend(t *testing.T) {
	p := NewP2C(2, rand.New(rand.NewSource(5)), coreLatencyCfg())
	now := time.Millisecond
	p.ObserveLatency(0, now, time.Millisecond)
	// Backend 1 has no data; the policy should explore it.
	if got := p.Pick(key(0), now); got != 1 {
		t.Errorf("pick = %d, want unmeasured backend 1", got)
	}
}
