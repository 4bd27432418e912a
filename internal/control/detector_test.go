package control

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"inbandlb/internal/core"
)

// detCtrl builds a controller over a 4-backend static Maglev policy with
// passive detection enabled.
func detCtrl(t *testing.T, det DetectorConfig) *Controller {
	t.Helper()
	det.Enabled = true
	p, err := NewMaglevStatic([]string{"s0", "s1", "s2", "s3"}, 1031)
	if err != nil {
		t.Fatal(err)
	}
	return NewController(p, ControllerConfig{Shards: 1, Detector: det})
}

// fail reports n failed connections to backend b.
func fail(c *Controller, b, n int) {
	for i := 0; i < n; i++ {
		c.ObserveConn(0, b, false)
	}
}

func TestDetectorConsecutiveDialErrorsEject(t *testing.T) {
	c := detCtrl(t, DetectorConfig{FailureThreshold: 3})
	gen0 := c.Generation()

	fail(c, 1, 2)
	c.Tick(time.Millisecond)
	if c.Health(1).Ejected() {
		t.Fatal("ejected below threshold")
	}
	// A success clears the streak.
	c.ObserveConn(0, 1, true)
	fail(c, 1, 2)
	c.Tick(2 * time.Millisecond)
	if c.Health(1).Ejected() {
		t.Fatal("ejected despite intervening success")
	}
	fail(c, 1, 1)
	c.Tick(3 * time.Millisecond)
	if !c.Health(1).Ejected() || c.Health(1).State != Ejected {
		t.Fatalf("not ejected at threshold: state=%v", c.Health(1).State)
	}
	if c.Generation() <= gen0 {
		t.Error("ejection did not republish the snapshot")
	}
	if c.Health(1).Ejections != 1 {
		t.Errorf("Ejections(1) = %d, want 1", c.Health(1).Ejections)
	}

	// Routing avoids the ejected backend; accounting identity on snapshot.
	s := c.Snapshot()
	if !s.Ejected(1) || s.Admission(1) != 0 {
		t.Error("snapshot does not reflect ejection")
	}
	for hash := uint64(0); hash < 4096; hash++ {
		if b, _ := s.RouteHash(hash); b == 1 {
			t.Fatalf("hash %d routed to ejected backend", hash)
		}
	}
}

func TestDetectorBackoffHalfOpenSlowStartRecovery(t *testing.T) {
	cfg := DetectorConfig{
		FailureThreshold: 1,
		BackoffInitial:   100 * time.Millisecond,
		SlowStartTicks:   4,
	}
	c := detCtrl(t, cfg)

	fail(c, 2, 1)
	c.Tick(10 * time.Millisecond)
	if st := c.Health(2).State; st != Ejected {
		t.Fatalf("state = %v, want ejected", st)
	}

	// Before the backoff expires the backend stays ejected.
	c.Tick(50 * time.Millisecond)
	if st := c.Health(2).State; st != Ejected {
		t.Fatalf("state after early tick = %v, want ejected", st)
	}

	// Backoff expiry opens the trial window with a sliver of admission.
	c.Tick(111 * time.Millisecond)
	if st := c.Health(2).State; st != HalfOpen {
		t.Fatalf("state after backoff = %v, want half-open", st)
	}
	if a := c.Snapshot().Admission(2); a <= 0 || a > 0.1 {
		t.Fatalf("half-open admission = %.3f, want small nonzero", a)
	}

	// One dial success promotes to slow-start at the next tick.
	c.ObserveConn(0, 2, true)
	c.Tick(112 * time.Millisecond)
	if st := c.Health(2).State; st != SlowStart {
		t.Fatalf("state after a success = %v, want slow-start", st)
	}
	prev := c.Snapshot().Admission(2)
	if prev < 0.2 || prev > 0.3 {
		t.Fatalf("initial slow-start admission = %.3f, want ~0.25", prev)
	}

	// Admission ramps monotonically to full over SlowStartTicks.
	for i := 0; i < 4; i++ {
		c.Tick(time.Duration(200+i) * time.Millisecond)
		a := c.Snapshot().Admission(2)
		if a < prev {
			t.Fatalf("admission ramp not monotonic: %.3f -> %.3f", prev, a)
		}
		prev = a
	}
	if st := c.Health(2).State; st != Healthy {
		t.Fatalf("state after ramp = %v, want healthy", st)
	}
	if a := c.Snapshot().Admission(2); a != 1 {
		t.Fatalf("final admission = %.3f, want 1", a)
	}
}

func TestDetectorHalfOpenFailureDoublesBackoff(t *testing.T) {
	cfg := DetectorConfig{
		FailureThreshold: 1,
		BackoffInitial:   100 * time.Millisecond,
		BackoffMax:       350 * time.Millisecond,
	}
	c := detCtrl(t, cfg)

	fail(c, 0, 1)
	c.Tick(0)
	backoffs := []time.Duration{}
	now := time.Duration(0)
	for trial := 0; trial < 3; trial++ {
		c.mu.Lock()
		reopen := c.det.st[0].reopenAt
		c.mu.Unlock()
		backoffs = append(backoffs, reopen-now)
		now = reopen
		c.Tick(now) // Ejected -> HalfOpen
		if st := c.Health(0).State; st != HalfOpen {
			t.Fatalf("trial %d: state = %v, want half-open", trial, st)
		}
		fail(c, 0, 1) // trial fails -> re-eject, doubled
		c.Tick(now)
		if st := c.Health(0).State; st != Ejected {
			t.Fatalf("trial %d: state = %v, want ejected", trial, st)
		}
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 350 * time.Millisecond}
	for i := range want {
		if backoffs[i] != want[i] {
			t.Errorf("backoff %d = %v, want %v (exponential, capped)", i, backoffs[i], want[i])
		}
	}
}

func TestDetectorHalfOpenTimeoutReEjects(t *testing.T) {
	cfg := DetectorConfig{
		FailureThreshold: 1,
		BackoffInitial:   10 * time.Millisecond,
		HalfOpenTicks:    3,
	}
	c := detCtrl(t, cfg)

	fail(c, 3, 1)
	c.Tick(0)
	c.Tick(20 * time.Millisecond)
	if st := c.Health(3).State; st != HalfOpen {
		t.Fatalf("state = %v, want half-open", st)
	}
	// No trial traffic ever succeeds: after HalfOpenTicks it re-ejects.
	for i := 0; i < 3; i++ {
		c.Tick(time.Duration(21+i) * time.Millisecond)
	}
	if st := c.Health(3).State; st != Ejected {
		t.Fatalf("state after silent trial = %v, want ejected", st)
	}
}

// feed pushes count samples of the given latency for backend b.
func feed(c *Controller, b int, count int, lat, now time.Duration) {
	for i := 0; i < count; i++ {
		c.ObserveSharded(uint64(b*1000+i), b, now, lat)
	}
}

// routeOnto routes one new flow through c that lands on backend b — the
// evidence that makes b's later silence count.
func routeOnto(t *testing.T, c *Controller, b int, now time.Duration) {
	t.Helper()
	for i := 0; i < 1<<16; i++ {
		if got, _ := c.Route(testKey(i), now); got == b {
			return
		}
	}
	t.Fatalf("no flow key routes to backend %d", b)
}

func TestDetectorLatencyOutlierEjects(t *testing.T) {
	cfg := DetectorConfig{
		OutlierFactor:  4,
		OutlierTicks:   3,
		MinPoolSamples: 8,
	}
	c := detCtrl(t, cfg)

	for tick := 0; tick < 3; tick++ {
		now := time.Duration(tick+1) * time.Millisecond
		for b := 0; b < 3; b++ {
			feed(c, b, 4, time.Millisecond, now)
		}
		feed(c, 3, 4, 50*time.Millisecond, now) // 50x the pool median
		c.Tick(now)
	}
	if !c.Health(3).Ejected() {
		t.Fatal("latency outlier not ejected after OutlierTicks")
	}
	for b := 0; b < 3; b++ {
		if c.Health(b).Ejected() {
			t.Fatalf("healthy backend %d ejected", b)
		}
	}
}

func TestDetectorOutlierStreakResets(t *testing.T) {
	cfg := DetectorConfig{OutlierFactor: 4, OutlierTicks: 3, MinPoolSamples: 8}
	c := detCtrl(t, cfg)

	for tick := 0; tick < 8; tick++ {
		now := time.Duration(tick+1) * time.Millisecond
		for b := 0; b < 3; b++ {
			feed(c, b, 4, time.Millisecond, now)
		}
		lat := 50 * time.Millisecond
		if tick%2 == 1 { // every other tick it behaves: streak resets
			lat = time.Millisecond
		}
		feed(c, 3, 4, lat, now)
		c.Tick(now)
	}
	if c.Health(3).Ejected() {
		t.Fatal("intermittent outlier ejected despite streak resets")
	}
}

func TestDetectorStarvationEjects(t *testing.T) {
	cfg := DetectorConfig{StarvationTicks: 4, MinPoolSamples: 8}
	c := detCtrl(t, cfg)

	// Backend 1 produces samples once (so it is starvation-eligible)...
	for b := 0; b < 4; b++ {
		feed(c, b, 4, time.Millisecond, time.Millisecond)
	}
	c.Tick(time.Millisecond)
	// ...then is routed a flow and goes silent while the pool stays busy.
	routeOnto(t, c, 1, time.Millisecond)
	for tick := 0; tick < 4; tick++ {
		now := time.Duration(tick+2) * time.Millisecond
		for _, b := range []int{0, 2, 3} {
			feed(c, b, 4, time.Millisecond, now)
		}
		c.Tick(now)
	}
	if !c.Health(1).Ejected() {
		t.Fatal("starved backend not ejected")
	}
}

func TestDetectorStarvationRequiresPriorSamples(t *testing.T) {
	cfg := DetectorConfig{StarvationTicks: 2, MinPoolSamples: 8}
	c := detCtrl(t, cfg)

	// Backend 1 never produced a sample: it must not be starved out, no
	// matter how busy the rest of the pool is.
	for tick := 0; tick < 10; tick++ {
		now := time.Duration(tick+1) * time.Millisecond
		for _, b := range []int{0, 2, 3} {
			feed(c, b, 8, time.Millisecond, now)
		}
		c.Tick(now)
	}
	if c.Health(1).Ejected() {
		t.Fatal("never-sampled backend ejected by starvation detector")
	}
}

// flooredWeights wraps the static Maglev policy with a fixed weight vector,
// so the snapshot publishes one backend at its weight floor.
type flooredWeights struct {
	*MaglevStatic
	w []float64
}

func (f *flooredWeights) Weights() []float64 { return append([]float64(nil), f.w...) }

func TestDetectorStarvationSparesWeightFlooredBackend(t *testing.T) {
	// Backend 1 is pushed to a 2% routing share — the latency-aware policy's
	// saturation floor on a symmetric pool. Its silence is then expected, not
	// evidence of failure: starvation must not eject it no matter how long
	// the rest of the pool streams samples.
	p, err := NewMaglevStatic([]string{"s0", "s1", "s2", "s3"}, 1031)
	if err != nil {
		t.Fatal(err)
	}
	pol := &flooredWeights{MaglevStatic: p, w: []float64{1, 0.02, 1, 1}}
	c := NewController(pol, ControllerConfig{Shards: 1, Detector: DetectorConfig{
		Enabled: true, StarvationTicks: 2, MinPoolSamples: 8,
	}})

	// Prime everSampled, then backend 1 goes silent while the pool stays
	// busy enough that its 2% share is still worth well under one sample.
	for b := 0; b < 4; b++ {
		feed(c, b, 4, time.Millisecond, time.Millisecond)
	}
	c.Tick(time.Millisecond)
	for tick := 0; tick < 20; tick++ {
		now := time.Duration(tick+2) * time.Millisecond
		for _, b := range []int{0, 2, 3} {
			feed(c, b, 8, time.Millisecond, now)
		}
		c.Tick(now)
	}
	if c.Health(1).Ejected() {
		t.Fatal("weight-floored backend ejected by starvation detector")
	}
}

func TestDetectorStarvationNeedsRoutedCorroboration(t *testing.T) {
	// Silence alone is not starvation: connection-granular routing lets a
	// healthy minority backend hold zero live connections for many ticks.
	// Backend 1 must survive unlimited silence while nothing is routed to
	// it, then be ejected once Route sends it a flow and the silence
	// continues (routed-but-silent).
	cfg := DetectorConfig{StarvationTicks: 3, MinPoolSamples: 8}
	c := detCtrl(t, cfg)

	for b := 0; b < 4; b++ {
		feed(c, b, 4, time.Millisecond, time.Millisecond)
	}
	c.Tick(time.Millisecond)
	for tick := 0; tick < 20; tick++ {
		now := time.Duration(tick+2) * time.Millisecond
		for _, b := range []int{0, 2, 3} {
			feed(c, b, 8, time.Millisecond, now)
		}
		c.Tick(now)
	}
	if c.Health(1).Ejected() {
		t.Fatal("silent backend ejected without a routed flow")
	}

	// A flow is routed to backend 1 but no samples follow: routed-but-
	// silent, the accept-then-hang signature.
	routeOnto(t, c, 1, 22*time.Millisecond)
	for tick := 20; tick < 24; tick++ {
		now := time.Duration(tick+2) * time.Millisecond
		for _, b := range []int{0, 2, 3} {
			feed(c, b, 8, time.Millisecond, now)
		}
		c.Tick(now)
	}
	if !c.Health(1).Ejected() {
		t.Fatal("routed-but-silent backend not ejected")
	}
}

// TestDetectorFailoverIsRoutedEvidence: a connection failed over onto a
// backend is a flow routed there, on the snapshot path and on the mutex
// path alike, so the backend's silence after it counts.
func TestDetectorFailoverIsRoutedEvidence(t *testing.T) {
	maglev, err := NewMaglevStatic([]string{"s0", "s1", "s2", "s3"}, 1031)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{maglev, NewWeightedLeastConn(4, core.ServerLatencyConfig{})} {
		c := NewController(pol, ControllerConfig{Shards: 1, Detector: DetectorConfig{
			Enabled: true, StarvationTicks: 3, MinPoolSamples: 8,
		}})
		for b := 0; b < 4; b++ {
			feed(c, b, 4, time.Millisecond, time.Millisecond)
		}
		c.Tick(time.Millisecond)
		if got := c.FailoverTarget(0); got != 1 {
			t.Fatalf("%s: FailoverTarget(0) = %d, want 1", pol.Name(), got)
		}
		for tick := 0; tick < 4; tick++ {
			now := time.Duration(tick+2) * time.Millisecond
			for _, b := range []int{0, 2, 3} {
				feed(c, b, 4, time.Millisecond, now)
			}
			c.Tick(now)
		}
		if !c.Health(1).Ejected() {
			t.Errorf("%s: backend silent after a failover onto it was not ejected", pol.Name())
		}
	}
}

// TestDetectorRecoveredBackendNotStarvedOnOldRoutes: flows routed during
// slow-start that answered are not evidence after the ramp. A recovered
// backend that then sees no new flow must not be starved out on routes
// from before its samples came back.
func TestDetectorRecoveredBackendNotStarvedOnOldRoutes(t *testing.T) {
	cfg := DetectorConfig{StarvationTicks: 3, MinPoolSamples: 8, SlowStartTicks: 4}
	c := detCtrl(t, cfg)
	busy := func(now time.Duration, backends ...int) {
		for _, b := range backends {
			feed(c, b, 4, time.Millisecond, now)
		}
		c.Tick(now)
	}
	busy(time.Millisecond, 0, 1, 2, 3) // everyone is starvation-eligible
	c.SetEjected(1, true)
	c.SetEjected(1, false) // probe recovery: slow-start
	if st := c.Health(1).State; st != SlowStart {
		t.Fatalf("state = %v, want slow-start", st)
	}
	now := 2 * time.Millisecond
	routeOnto(t, c, 1, now)
	busy(now, 0, 2, 3) // the flow has not answered yet
	for ; c.Health(1).State == SlowStart; now += time.Millisecond {
		busy(now, 0, 1, 2, 3) // it answers through the ramp
	}
	if st := c.Health(1).State; st != Healthy {
		t.Fatalf("state after ramp = %v, want healthy", st)
	}
	for tick := 0; tick < 20; tick++ {
		busy(now, 0, 2, 3) // no new flow lands on 1: quiet, not silent
		now += time.Millisecond
	}
	if c.Health(1).Ejected() {
		t.Fatal("recovered backend starved out on flows routed before its samples returned")
	}
}

func TestDetectorIdlePoolJudgesNoOne(t *testing.T) {
	cfg := DetectorConfig{StarvationTicks: 1, OutlierTicks: 1, MinPoolSamples: 8}
	c := detCtrl(t, cfg)

	// Prime everSampled, then go fully idle: below MinPoolSamples nothing
	// is ejected.
	for b := 0; b < 4; b++ {
		feed(c, b, 4, time.Millisecond, time.Millisecond)
	}
	c.Tick(time.Millisecond)
	for tick := 0; tick < 20; tick++ {
		c.Tick(time.Duration(tick+2) * time.Millisecond)
	}
	for b := 0; b < 4; b++ {
		if c.Health(b).Ejected() {
			t.Fatalf("backend %d ejected on an idle pool", b)
		}
	}
}

func TestDetectorNeverEjectsLastBackend(t *testing.T) {
	c := detCtrl(t, DetectorConfig{FailureThreshold: 1})
	for b := 0; b < 3; b++ {
		fail(c, b, 1)
		c.Tick(0)
		if !c.Health(b).Ejected() {
			t.Fatalf("backend %d not ejected", b)
		}
	}
	// The last routable backend resists any volume of failure reports.
	for i := 0; i < 10; i++ {
		fail(c, 3, 1)
		c.Tick(0)
	}
	if c.Health(3).Ejected() {
		t.Fatal("last admitted backend was ejected")
	}
	if s := c.Snapshot(); s.NextHealthy(3) != -1 {
		t.Error("NextHealthy found an alternative in a one-survivor pool")
	}
	if b, _ := c.Snapshot().RouteHash(12345); b != 3 {
		t.Errorf("RouteHash = %d, want 3 (only survivor)", b)
	}
}

func TestDetectorHalfOpenTrialGetsTraffic(t *testing.T) {
	cfg := DetectorConfig{
		FailureThreshold: 1,
		BackoffInitial:   time.Millisecond,
		HalfOpenFraction: 1.0 / 16,
		HalfOpenTicks:    1 << 20, // no timeout during this test
	}
	c := detCtrl(t, cfg)
	fail(c, 0, 1)
	c.Tick(0)
	c.Tick(2 * time.Millisecond)
	if st := c.Health(0).State; st != HalfOpen {
		t.Fatalf("state = %v, want half-open", st)
	}
	s := c.Snapshot()
	hits, owned := 0, 0
	for hash := uint64(0); hash < 1<<16; hash++ {
		// Spread hash bits across the whole word like real flow hashes.
		h := hash * 0x9e3779b97f4a7c15
		if s.PickHash(h) != 0 {
			continue
		}
		owned++
		if b, _ := s.RouteHash(h); b == 0 {
			hits++
		}
	}
	if owned == 0 {
		t.Fatal("backend 0 owns no hash range")
	}
	frac := float64(hits) / float64(owned)
	if frac <= 0 || frac > 0.15 {
		t.Errorf("half-open trial fraction = %.4f, want ~1/16", frac)
	}
}

func TestSetEjectedWithDetectorRecoversViaSlowStart(t *testing.T) {
	c := detCtrl(t, DetectorConfig{SlowStartTicks: 8})
	c.SetEjected(2, true)
	if !c.Health(2).Ejected() {
		t.Fatal("manual eject ignored")
	}
	c.SetEjected(2, false)
	if st := c.Health(2).State; st != SlowStart {
		t.Fatalf("state after probe recovery = %v, want slow-start", st)
	}
	if a := c.Snapshot().Admission(2); a >= 1 {
		t.Fatalf("admission after probe recovery = %.3f, want ramped", a)
	}
}

func TestSetEjectedWithoutDetectorIsInstant(t *testing.T) {
	p, err := NewMaglevStatic([]string{"s0", "s1", "s2", "s3"}, 1031)
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(p, ControllerConfig{Shards: 1})
	c.SetEjected(2, true)
	if !c.Health(2).Ejected() {
		t.Fatal("eject ignored")
	}
	c.SetEjected(2, false)
	if c.Health(2).Ejected() {
		t.Fatal("readmit ignored")
	}
	if a := c.Snapshot().Admission(2); a != 1 {
		t.Fatalf("legacy readmission = %.3f, want instant full", a)
	}
}

// TestDetectorCountsRoutesConcurrently: routes taken on several goroutines
// while ticks drain the counters are all counted, for a table policy and a
// stateful one, and toggling the detector while flows route is race-free.
func TestDetectorCountsRoutesConcurrently(t *testing.T) {
	maglev, err := NewMaglevStatic([]string{"s0", "s1", "s2", "s3"}, 1031)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{maglev, NewWeightedLeastConn(4, core.ServerLatencyConfig{})} {
		c := NewController(pol, ControllerConfig{Shards: 1, Detector: DetectorConfig{Enabled: true}})
		const workers, perWorker = 4, 2000
		var wg sync.WaitGroup
		var routed atomic.Int64
		stop := make(chan struct{})
		ticked := make(chan struct{})
		go func() {
			defer close(ticked)
			for now := time.Duration(1); ; now++ {
				select {
				case <-stop:
					return
				default:
					c.Tick(now)
				}
			}
		}()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if b, _ := c.Route(testKey(w*perWorker+i), 0); b >= 0 {
						routed.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		<-ticked
		c.Tick(time.Hour) // drain what the last ticks missed
		var counted int64
		c.mu.Lock()
		for b := range c.det.st {
			counted += int64(c.det.st[b].routedSinceSample)
		}
		c.mu.Unlock()
		if counted != routed.Load() {
			t.Errorf("%s: detector counted %d routes, %d were taken", pol.Name(), counted, routed.Load())
		}

		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 200; i++ {
				c.SetDetectorConfig(DetectorConfig{Enabled: i%2 == 0})
			}
		}()
		for i := 0; i < perWorker; i++ {
			c.Route(testKey(i), 0)
		}
		<-done
	}
}
