package control

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inbandlb/internal/packet"
)

// reentrancyPolicy trips if any two of its methods ever run concurrently —
// the single-threaded Policy contract a Controller must uphold.
type reentrancyPolicy struct {
	n        int
	inCall   atomic.Int32
	violated atomic.Bool

	picks    atomic.Uint64
	observed atomic.Uint64
	closedN  atomic.Uint64
}

func (p *reentrancyPolicy) enter() {
	if p.inCall.Add(1) != 1 {
		p.violated.Store(true)
	}
	// Widen the race window so true concurrency is caught reliably.
	for i := 0; i < 100; i++ {
		_ = i
	}
}
func (p *reentrancyPolicy) exit() { p.inCall.Add(-1) }

func (p *reentrancyPolicy) Name() string     { return "reentrancy-probe" }
func (p *reentrancyPolicy) NumBackends() int { return p.n }
func (p *reentrancyPolicy) Pick(packet.FlowKey, time.Duration) int {
	p.enter()
	defer p.exit()
	p.picks.Add(1)
	return 0
}
func (p *reentrancyPolicy) ObserveLatency(int, time.Duration, time.Duration) {
	p.enter()
	defer p.exit()
	p.observed.Add(1)
}
func (p *reentrancyPolicy) FlowClosed(int, time.Duration) {
	p.enter()
	defer p.exit()
	p.closedN.Add(1)
}

func ctrlKey(rng *rand.Rand) packet.FlowKey {
	k := packet.FlowKey{
		SrcPort: uint16(rng.Uint32()),
		DstPort: uint16(rng.Uint32()),
		Proto:   6,
	}
	rng.Read(k.SrcIP[:])
	rng.Read(k.DstIP[:])
	return k
}

func newTestLatencyAware(t *testing.T) *LatencyAware {
	t.Helper()
	la, err := NewLatencyAware(LatencyAwareConfig{
		Backends:  []string{"s0", "s1", "s2", "s3"},
		TableSize: 211,
		Alpha:     0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return la
}

// TestControllerMatchesDirectPolicy is the tentpole equivalence property:
// a LatencyAware driven through a Controller (samples batched shard-locally,
// applied at ticks) must, when ticked after every sample, reproduce the
// directly driven policy exactly — same weights, same update count, same
// pick for every flow key.
func TestControllerMatchesDirectPolicy(t *testing.T) {
	wrapped := newTestLatencyAware(t)
	direct := newTestLatencyAware(t)
	c := NewController(wrapped, ControllerConfig{Shards: 4})
	defer c.Close()

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		b := rng.Intn(4)
		now := time.Duration(i) * time.Millisecond
		// Degrade s2 so the controller actually shifts weight around.
		sample := time.Millisecond
		if b == 2 {
			sample = 20 * time.Millisecond
		}
		hash := rng.Uint64()
		c.ObserveSharded(hash, b, now, sample)
		c.Tick(now)
		direct.ObserveLatency(b, now, sample)

		if i%50 == 0 {
			key := ctrlKey(rng)
			if got, want := c.Pick(key, now), direct.Pick(key, now); got != want {
				t.Fatalf("step %d: controller pick %d != direct pick %d", i, got, want)
			}
		}
	}

	gw, dw := wrapped.Weights(), direct.Weights()
	for i := range gw {
		if gw[i] != dw[i] {
			t.Fatalf("weight[%d]: controller %v != direct %v", i, gw, dw)
		}
	}
	if wrapped.Updates() != direct.Updates() {
		t.Fatalf("updates: controller %d != direct %d", wrapped.Updates(), direct.Updates())
	}
	rng2 := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		key := ctrlKey(rng2)
		if got, want := c.Pick(key, 0), direct.Pick(key, 0); got != want {
			t.Fatalf("final pick mismatch for key %+v: %d != %d", key, got, want)
		}
	}
}

// TestControllerSnapshotPickMatchesPolicy checks the snapshot fast path
// returns exactly what the wrapped policy would, across weight changes.
func TestControllerSnapshotPickMatchesPolicy(t *testing.T) {
	la := newTestLatencyAware(t)
	c := NewController(la, ControllerConfig{})
	defer c.Close()
	if c.Snapshot() == nil {
		t.Fatal("TableSource policy published no initial snapshot")
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 5; round++ {
		for i := 0; i < 500; i++ {
			key := ctrlKey(rng)
			now := time.Duration(round) * time.Second
			snap := c.Snapshot()
			if got, want := snap.Pick(key), la.Pick(key, now); got != want {
				t.Fatalf("round %d: snapshot pick %d != policy pick %d", round, got, want)
			}
			if got, want := snap.PickHash(key.Hash()), snap.Pick(key); got != want {
				t.Fatalf("PickHash %d != Pick %d", got, want)
			}
		}
		// Shift weights and retick; the next snapshot must track the table.
		now := time.Duration(round+1) * time.Second
		c.ObserveSharded(rng.Uint64(), round%4, now, 50*time.Millisecond)
		for b := 0; b < 4; b++ {
			if b != round%4 {
				c.ObserveSharded(rng.Uint64(), b, now, time.Millisecond)
			}
		}
		gen := c.Generation()
		c.Tick(now)
		if c.Generation() == gen && la.Updates() > 1 && round == 0 {
			t.Fatal("table changed but snapshot generation did not advance")
		}
	}
}

// TestControllerSerializesPolicy: the wrapped policy must never see two
// concurrent calls, even with parallel pickers/observers/closers and a
// concurrent ticker.
func TestControllerSerializesPolicy(t *testing.T) {
	pol := &reentrancyPolicy{n: 4}
	c := NewController(pol, ControllerConfig{Shards: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch i % 4 {
				case 0:
					c.Pick(packet.FlowKey{SrcPort: uint16(w)}, time.Duration(i))
				case 1:
					c.ObserveSharded(uint64(w*1000+i), w%4, time.Duration(i), time.Millisecond)
				case 2:
					c.FlowClosed(w%4, time.Duration(i))
				case 3:
					c.Tick(time.Duration(i))
				}
			}
		}(w)
	}
	wg.Wait()
	c.Close()
	if pol.violated.Load() {
		t.Fatal("policy methods ran concurrently through the controller")
	}
	// Delivered counts samples, the policy calls: a tick merges a cell's
	// samples into one call, so calls can be fewer, never more.
	const sent = 8 * 125 // every fourth of 500 iterations, in 8 workers
	if c.Delivered() != sent {
		t.Errorf("delivered %d, want %d", c.Delivered(), sent)
	}
	if calls := pol.observed.Load(); calls == 0 || calls > c.Delivered() {
		t.Errorf("policy saw %d calls, want within (0, %d]", calls, c.Delivered())
	}
}

// TestControllerLosslessAccounting: shard aggregation sheds nothing — after Close every observed sample has been
// applied and Dropped is zero. (Batching means the policy sees fewer calls
// than samples; Delivered counts samples, not calls.)
func TestControllerLosslessAccounting(t *testing.T) {
	pol := &reentrancyPolicy{n: 2}
	c := NewController(pol, ControllerConfig{Shards: 4})
	const sent = 10000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < sent/4; i++ {
				c.ObserveSharded(uint64(w), i%2, time.Duration(i), time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	c.Close()
	if c.Delivered() != sent {
		t.Errorf("delivered %d != sent %d", c.Delivered(), sent)
	}
	if c.Dropped() != 0 {
		t.Errorf("dropped %d != 0 (aggregation is lossless)", c.Dropped())
	}
	// With 4 shards x 2 backends, one closing tick applies at most 8 calls.
	if calls := pol.observed.Load(); calls == 0 || calls > sent {
		t.Errorf("policy saw %d calls, want within (0, %d]", calls, sent)
	}
}

// TestControllerRouteEjection exercises the snapshot Route path: ejected
// picks fall back deterministically to the next healthy index, full-pool
// ejection yields -1, and recovery restores direct routing.
func TestControllerRouteEjection(t *testing.T) {
	m, err := NewMaglevStatic([]string{"a", "b", "c"}, 53)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(m, ControllerConfig{})
	defer c.Close()

	rng := rand.New(rand.NewSource(3))
	var key packet.FlowKey
	var direct int
	for { // find a key routed to backend 1
		key = ctrlKey(rng)
		if direct = m.Pick(key, 0); direct == 1 {
			break
		}
	}
	if b, fb := c.Route(key, 0); b != 1 || fb {
		t.Fatalf("healthy route = (%d,%v), want (1,false)", b, fb)
	}

	gen := c.Generation()
	c.SetEjected(1, true)
	if c.Generation() == gen {
		t.Fatal("SetEjected did not republish the snapshot immediately")
	}
	if b, fb := c.Route(key, 0); b != 2 || !fb {
		t.Fatalf("route around ejected 1 = (%d,%v), want (2,true)", b, fb)
	}
	if !c.Snapshot().Ejected(1) || c.Snapshot().Ejected(0) {
		t.Fatal("snapshot eject set does not mirror controller state")
	}

	c.SetEjected(0, true)
	c.SetEjected(2, true)
	if b, fb := c.Route(key, 0); b != -1 || fb {
		t.Fatalf("all-ejected route = (%d,%v), want (-1,false)", b, fb)
	}

	c.SetEjected(1, false)
	if b, fb := c.Route(key, 0); b != 1 || fb {
		t.Fatalf("recovered route = (%d,%v), want (1,false)", b, fb)
	}
	// SetEjected with unchanged state must not republish.
	gen = c.Generation()
	c.SetEjected(1, false)
	if c.Generation() != gen {
		t.Fatal("no-op SetEjected republished")
	}
}

// TestControllerRouteMutexPathUndo: stateful policies (no snapshot) route
// under the mutex; when the pick lands on an ejected backend its occupancy
// accounting must be undone so per-backend counters do not leak.
func TestControllerRouteMutexPathUndo(t *testing.T) {
	lc := NewLeastConn(3)
	c := NewController(lc, ControllerConfig{})
	defer c.Close()
	if c.Snapshot() != nil {
		t.Fatal("stateful policy unexpectedly published a snapshot")
	}

	c.SetEjected(0, true)
	// LeastConn with all-zero occupancy picks index 0 (lowest index wins);
	// Route must fall back to 1 and undo backend 0's increment.
	b, fb := c.Route(packet.FlowKey{}, 0)
	if b != 1 || !fb {
		t.Fatalf("route = (%d,%v), want (1,true)", b, fb)
	}
	if lc.Active(0) != 0 {
		t.Errorf("ejected backend's occupancy leaked: active[0] = %d", lc.Active(0))
	}

	c.SetEjected(1, true)
	c.SetEjected(2, true)
	if b, fb := c.Route(packet.FlowKey{}, 0); b != -1 || fb {
		t.Fatalf("all-ejected mutex route = (%d,%v), want (-1,false)", b, fb)
	}
	for i := 0; i < 3; i++ {
		if lc.Active(i) != 0 {
			t.Errorf("active[%d] = %d after all-ejected routes, want 0", i, lc.Active(i))
		}
	}
}

// TestControllerTickStats verifies the per-backend merge summary: counts,
// batch mean, min/max, and newest-sample timestamp.
func TestControllerTickStats(t *testing.T) {
	pol := &reentrancyPolicy{n: 2}
	c := NewController(pol, ControllerConfig{Shards: 2})
	defer c.Close()

	c.ObserveSharded(0, 0, 10*time.Millisecond, 2*time.Millisecond)
	c.ObserveSharded(1, 0, 20*time.Millisecond, 6*time.Millisecond)
	c.ObserveSharded(0, 1, 30*time.Millisecond, 5*time.Millisecond)
	c.Tick(40 * time.Millisecond)

	stats := c.LastTick()
	if stats[0].Count != 2 || stats[1].Count != 1 {
		t.Fatalf("counts = %d,%d, want 2,1", stats[0].Count, stats[1].Count)
	}
	if stats[0].Mean != 4*time.Millisecond {
		t.Errorf("mean = %v, want 4ms", stats[0].Mean)
	}
	if stats[0].Min != 2*time.Millisecond || stats[0].Max != 6*time.Millisecond {
		t.Errorf("min/max = %v/%v, want 2ms/6ms", stats[0].Min, stats[0].Max)
	}
	if stats[0].Last != 20*time.Millisecond {
		t.Errorf("last = %v, want 20ms", stats[0].Last)
	}

	// A quiet tick resets the summary.
	c.Tick(50 * time.Millisecond)
	if got := c.LastTick(); got[0].Count != 0 || got[1].Count != 0 {
		t.Errorf("quiet tick left counts %d,%d, want 0,0", got[0].Count, got[1].Count)
	}
}

// TestControllerStartClose: the background ticker applies samples without
// explicit Tick calls, and Close flushes the remainder.
func TestControllerStartClose(t *testing.T) {
	pol := &reentrancyPolicy{n: 2}
	c := NewController(pol, ControllerConfig{Interval: time.Millisecond})
	c.Start()
	c.Start() // idempotent
	for i := 0; i < 100; i++ {
		c.ObserveSharded(uint64(i), i%2, time.Duration(i), time.Millisecond)
	}
	c.Close()
	c.Close() // idempotent
	if c.Delivered() != 100 {
		t.Errorf("delivered %d != 100 after Close", c.Delivered())
	}
	if pol.violated.Load() {
		t.Fatal("background ticks raced policy calls")
	}
}

// TestControllerDoExposesPolicy: the controller names the policy it wraps
// and hands it to Do.
func TestControllerDoExposesPolicy(t *testing.T) {
	pol := &reentrancyPolicy{n: 7}
	c := NewController(pol, ControllerConfig{})
	defer c.Close()
	if c.Name() != "reentrancy-probe" || c.NumBackends() != 7 {
		t.Errorf("delegation broken: %q / %d", c.Name(), c.NumBackends())
	}
	var sawSelf bool
	c.Do(func(p Policy) { sawSelf = p == Policy(pol) })
	if !sawSelf {
		t.Error("Do did not expose the wrapped policy")
	}
}
