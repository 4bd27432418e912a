package control

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inbandlb/internal/core"
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
			if got, want := snap.PickHash(key.Hash()), la.Pick(key, now); got != want {
				t.Fatalf("round %d: snapshot pick %d != policy pick %d", round, got, want)
			}
			if got, want := c.Pick(key, now), snap.PickHash(key.Hash()); got != want {
				t.Fatalf("Controller.Pick %d != PickHash %d", got, want)
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
// concurrent calls, even with parallel pickers/routers/observers and a
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
					c.Route(packet.FlowKey{SrcPort: uint16(w)}, time.Duration(i))
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

// TestControllerLosslessAccounting: shard aggregation sheds nothing — after
// Close every observed sample has been applied. (Batching means the policy
// sees fewer calls than samples; Delivered counts samples, not calls.)
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

// TestControllerReportProbe pins the active prober's de-flapping: the veto
// is set after probeFailThreshold consecutive failures and lifted after
// probeRecoverThreshold consecutive successes, and a result of the other
// kind restarts either streak.
func TestControllerReportProbe(t *testing.T) {
	m, err := NewMaglevStatic([]string{"a", "b", "c"}, 53)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(m, ControllerConfig{})
	defer c.Close()
	probe := func(ok bool, wantEjected bool, step string) {
		t.Helper()
		c.ReportProbe(1, ok)
		if got := c.Health(1).Ejected(); got != wantEjected {
			t.Fatalf("%s: ejected = %v, want %v", step, got, wantEjected)
		}
	}
	probe(false, false, "1st failure")
	probe(false, false, "2nd failure")
	probe(true, false, "success resets the failure streak")
	probe(false, false, "1st failure after reset")
	probe(false, false, "2nd failure after reset")
	probe(false, true, "3rd consecutive failure sets the veto")
	if c.Health(0).Ejected() || c.Health(2).Ejected() {
		t.Fatal("backend 1's probe streak ejected another backend")
	}
	probe(false, true, "further failure keeps the veto")
	probe(true, true, "1st success")
	probe(false, true, "failure resets the success streak")
	probe(true, true, "1st success after reset")
	probe(true, false, "2nd consecutive success lifts the veto")
	if s := c.Snapshot(); s.Ejected(1) {
		t.Fatal("lifted veto not republished")
	}
	c.ReportProbe(-1, false) // out of range: ignored
	c.ReportProbe(3, false)
}

// TestControllerStatefulRouting pins what the policies with per-pick state
// route through a Controller in each admission state: the policy's pick
// passes through the snapshot's admission rule, and FailoverTarget is the
// snapshot's NextHealthy. The pinned answers are those of the Controller
// before stateful policies shared the snapshot's rule. Each policy's
// snapshot carries admission only (no weights), and every veto republishes
// it.
func TestControllerStatefulRouting(t *testing.T) {
	policies := map[string]func(n int) Policy{
		"roundrobin": func(n int) Policy { return NewRoundRobin(n) },
		"leastconn":  func(n int) Policy { return NewLeastConn(n) },
		"p2c":        func(n int) Policy { return NewP2C(n, rand.New(rand.NewSource(7)), core.ServerLatencyConfig{}) },
		"wlc":        func(n int) Policy { return NewWeightedLeastConn(n, core.ServerLatencyConfig{}) },
	}
	veto := func(t *testing.T, c *Controller, b int) {
		t.Helper()
		gen := c.Generation()
		c.SetEjected(b, true)
		if c.Generation() <= gen {
			t.Fatalf("SetEjected(%d) left generation at %d", b, gen)
		}
	}
	states := map[string]func(t *testing.T, c *Controller){
		"healthy": func(*testing.T, *Controller) {},
		"vetoed":  func(t *testing.T, c *Controller) { veto(t, c, 2) },
		"half-open": func(t *testing.T, c *Controller) {
			c.ObserveConn(0, 1, false)
			c.Tick(0)                     // one failure ejects backend 1
			c.Tick(10 * time.Millisecond) // its backoff expired
			if st := c.Health(1).State; st != HalfOpen {
				t.Fatalf("backend 1 is %v, want half-open", st)
			}
		},
		"all-vetoed": func(t *testing.T, c *Controller) {
			for b := 0; b < 4; b++ {
				veto(t, c, b)
			}
		},
	}
	for _, tc := range []struct{ policy, state, want string }{
		{"roundrobin", "healthy", "0 1 2 3 0 1 2 3 | 1 2 3 0"},
		{"roundrobin", "vetoed", "0 1 3* 3 0 1 3* 3 | 1 3 3 0"},
		{"roundrobin", "half-open", "0 2* 2 3 0 2* 2 3 | 2 2 3 0"},
		{"roundrobin", "all-vetoed", "-1 -1 -1 -1 -1 -1 -1 -1 | -1 -1 -1 -1"},
		{"leastconn", "healthy", "0 1 2 2 3 0 1 1 | 1 2 3 0"},
		{"leastconn", "vetoed", "0 1 3* 3* 3* 3* 1 3* | 1 3 3 0"},
		{"leastconn", "half-open", "0 2* 2* 2* 2* 2* 2* 2* | 2 2 3 0"},
		{"leastconn", "all-vetoed", "-1 -1 -1 -1 -1 -1 -1 -1 | -1 -1 -1 -1"},
		{"p2c", "healthy", "0 1 3 2 0 2 3 2 | 1 2 3 0"},
		{"p2c", "vetoed", "0 1 3 3* 0 3* 3* 3* | 1 3 3 0"},
		{"p2c", "half-open", "0 2* 3 2 2* 0 3 2 | 2 2 3 0"},
		{"p2c", "all-vetoed", "-1 -1 -1 -1 -1 -1 -1 -1 | -1 -1 -1 -1"},
		{"wlc", "healthy", "0 1 2 2 3 0 1 1 | 1 2 3 0"},
		{"wlc", "vetoed", "0 1 3* 3* 3* 3* 1 3* | 1 3 3 0"},
		{"wlc", "half-open", "0 2* 2* 2* 2* 2* 2* 2* | 2 2 3 0"},
		{"wlc", "all-vetoed", "-1 -1 -1 -1 -1 -1 -1 -1 | -1 -1 -1 -1"},
	} {
		t.Run(tc.policy+"/"+tc.state, func(t *testing.T) {
			c := NewController(policies[tc.policy](4), ControllerConfig{Shards: 1,
				Detector: DetectorConfig{Enabled: true, FailureThreshold: 1, BackoffInitial: time.Millisecond}})
			defer c.Close()
			if s := c.Snapshot(); s == nil || s.Weights() != nil || s.Generation() != 1 {
				t.Fatalf("NewController's snapshot = %+v, want generation 1 with nil weights", s)
			}
			states[tc.state](t, c)
			if got := statefulRoutes(c); got != tc.want {
				t.Errorf("routes = %q, want %q", got, tc.want)
			}
		})
	}
}

// statefulRoutes drives c through a fixed occupancy script — eight Routes
// of one key, each opening a flow on its backend and every third closing
// one on backend i%4 — then asks FailoverTarget to skip each backend. It
// renders Route's answers as backends ("*" marks fellBack), then "|" and
// the failover targets.
func statefulRoutes(c *Controller) string {
	open := make([]int, c.NumBackends())
	c.BindOccupancy(func(b int) int { return open[b] })
	key := packet.FlowKey{SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 11211, Proto: 6}
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		b, fellBack := c.Route(key, time.Duration(i)*time.Millisecond)
		fmt.Fprintf(&sb, "%d", b)
		if fellBack {
			sb.WriteByte('*')
		}
		sb.WriteByte(' ')
		if b >= 0 {
			open[b]++
		}
		if i%3 == 2 && open[i%4] > 0 {
			open[i%4]--
		}
	}
	sb.WriteByte('|')
	for skip := range open {
		fmt.Fprintf(&sb, " %d", c.FailoverTarget(skip))
	}
	return sb.String()
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
