package control

import (
	"testing"
	"time"
)

// congest pushes one congestion report for backend b.
func congest(c *Controller, b, retrans, dupAcks, zeroWins int) {
	c.ObserveCongestion(uint64(b*7919+1), b, retrans, dupAcks, zeroWins)
}

// feedAllEqual gives every backend the same in-family latency so neither the
// outlier nor the starvation detector has anything to say.
func feedAllEqual(c *Controller, now time.Duration) {
	for b := 0; b < 4; b++ {
		feed(c, b, 4, time.Millisecond, now)
	}
}

func TestCongestionWeightDownThenEject(t *testing.T) {
	c := detCtrl(t, DetectorConfig{
		CongestionPerTick: 5,
		CongestionTicks:   2,
		MinPoolSamples:    8,
	})

	for tick := 1; tick <= 4; tick++ {
		now := time.Duration(tick) * time.Millisecond
		feedAllEqual(c, now)
		congest(c, 3, 6, 2, 1) // 9 events, concentrated on backend 3
		c.Tick(now)

		switch tick {
		case 1:
			if c.Health(3).Congested {
				t.Fatal("latched after a single hot tick")
			}
		case 2:
			// CongestionTicks hot ticks: weight-down latch, still Healthy.
			if !c.Health(3).Congested {
				t.Fatal("not latched after CongestionTicks hot ticks")
			}
			if st := c.Health(3).State; st != Healthy {
				t.Fatalf("state = %v, want healthy under weight-down", st)
			}
			if a := c.Snapshot().Admission(3); a != 0.5 {
				t.Fatalf("weight-down admission = %.3f, want 0.5", a)
			}
		case 4:
			// 2×CongestionTicks hot ticks: ejected outright.
			if st := c.Health(3).State; st != Ejected {
				t.Fatalf("state = %v, want ejected at 2x threshold", st)
			}
		}
	}
	if c.Health(3).Ejections != 1 || c.Health(3).CongestionEjections != 1 {
		t.Fatalf("ejections = %d (cong %d), want 1/1",
			c.Health(3).Ejections, c.Health(3).CongestionEjections)
	}
	for b := 0; b < 3; b++ {
		if c.Health(b).Ejected() || c.Health(b).Congested {
			t.Fatalf("calm backend %d judged congested", b)
		}
	}
}

func TestCongestionEjectsBeforeLatencyMoves(t *testing.T) {
	// The headline property: a backend emitting transport distress is
	// ejected while its merged latency is still exactly in family — no
	// outlier detector could have fired yet.
	c := detCtrl(t, DetectorConfig{
		CongestionPerTick: 5,
		CongestionTicks:   2,
		OutlierFactor:     4,
		OutlierTicks:      3,
		MinPoolSamples:    8,
	})
	for tick := 1; tick <= 4; tick++ {
		now := time.Duration(tick) * time.Millisecond
		feedAllEqual(c, now) // backend 3's latency never deviates
		congest(c, 3, 10, 0, 0)
		c.Tick(now)
	}
	if !c.Health(3).Ejected() {
		t.Fatal("congested backend not ejected")
	}
	if c.Health(3).CongestionEjections != 1 {
		t.Fatalf("CongestionEjections = %d, want 1 (latency never moved)",
			c.Health(3).CongestionEjections)
	}
}

func TestCongestionPoolWideNeverEjects(t *testing.T) {
	// Everyone hot at once — an incast wave, a collapsed shared uplink —
	// fails the concentration test: there is nowhere better to shift load.
	c := detCtrl(t, DetectorConfig{
		CongestionPerTick: 5,
		CongestionTicks:   2,
		MinPoolSamples:    8,
	})
	for tick := 1; tick <= 12; tick++ {
		now := time.Duration(tick) * time.Millisecond
		feedAllEqual(c, now)
		for b := 0; b < 4; b++ {
			congest(c, b, 20, 0, 0)
		}
		c.Tick(now)
	}
	for b := 0; b < 4; b++ {
		if c.Health(b).Ejected() || c.Health(b).Congested {
			t.Fatalf("backend %d judged under pool-wide congestion", b)
		}
		if a := c.Snapshot().Admission(b); a != 1 {
			t.Fatalf("backend %d admission = %.3f, want 1", b, a)
		}
	}
}

func TestCongestionCalmClearsLatch(t *testing.T) {
	c := detCtrl(t, DetectorConfig{
		CongestionPerTick: 5,
		CongestionTicks:   2,
		MinPoolSamples:    8,
	})
	// Three hot ticks: latched (at 2) but below the 2×2 ejection bar.
	for tick := 1; tick <= 3; tick++ {
		now := time.Duration(tick) * time.Millisecond
		feedAllEqual(c, now)
		congest(c, 3, 8, 0, 0)
		c.Tick(now)
	}
	if !c.Health(3).Congested || c.Health(3).State != Healthy {
		t.Fatalf("want latched+healthy, got congested=%v state=%v",
			c.Health(3).Congested, c.Health(3).State)
	}
	// 2×CongestionTicks calm ticks release the latch and restore admission;
	// one fewer does not.
	for tick := 4; tick <= 7; tick++ {
		if tick == 7 && !c.Health(3).Congested {
			t.Fatal("latch released after 3 calm ticks, want 4")
		}
		now := time.Duration(tick) * time.Millisecond
		feedAllEqual(c, now)
		c.Tick(now)
	}
	if c.Health(3).Congested {
		t.Fatal("latch not released after calm ticks")
	}
	if a := c.Snapshot().Admission(3); a != 1 {
		t.Fatalf("post-calm admission = %.3f, want 1", a)
	}
	if c.Health(3).Ejections != 0 {
		t.Fatal("latch-and-release must not count as an ejection")
	}
}

func TestCongestionCountersAndSnapshot(t *testing.T) {
	c := detCtrl(t, DetectorConfig{}) // congestion path disabled: counting only
	if c.Snapshot().CongestionEvents(0) != 0 {
		t.Fatal("pristine snapshot reports congestion")
	}
	congest(c, 1, 2, 1, 1)
	c.ObserveCongestion(1, -1, 1, 0, 0) // out of range: dropped
	c.ObserveCongestion(1, 99, 1, 0, 0) // out of range: dropped
	c.ObserveCongestion(1, 1, 0, 0, 0)  // all-zero: dropped
	c.Tick(time.Millisecond)

	if got := c.Health(1).CongestionEvents; got != 4 {
		t.Fatalf("CongestionEvents(1) = %d, want 4", got)
	}
	ts := c.LastTick()[1]
	if ts.Retrans != 2 || ts.DupAcks != 1 || ts.ZeroWins != 1 {
		t.Fatalf("TickStat = %+v, want 2/1/1", ts)
	}
	// Per-tick stats reset; the cumulative count does not.
	c.Tick(2 * time.Millisecond)
	if ts := c.LastTick()[1]; ts.Retrans != 0 {
		t.Fatalf("TickStat.Retrans = %d after quiet tick, want 0", ts.Retrans)
	}
	if got := c.Health(1).CongestionEvents; got != 4 {
		t.Fatalf("cumulative CongestionEvents(1) = %d, want 4", got)
	}
	// Counting alone must not act: the congestion path is disabled.
	if c.Health(1).Congested || c.Health(1).Ejected() {
		t.Fatal("disabled congestion path acted on events")
	}
	// The next republished snapshot carries the cumulative counters.
	c.SetEjected(0, true)
	s := c.Snapshot()
	if got := s.CongestionEvents(1); got != 4 {
		t.Fatalf("snapshot CongestionEvents(1) = %d, want 4", got)
	}
	if s.CongestionEvents(-1) != 0 || s.CongestionEvents(99) != 0 {
		t.Fatal("out-of-range snapshot accessor must return 0")
	}
}

// TestDetectorInterplay drives one backend through a simultaneous assault —
// concentrated congestion events, outlier latency, then post-ejection
// silence — and checks the three detectors compose: exactly one ejection for
// the incident, every state transition legal, and the half-open trial judged
// against the *other* backends' median (re-eject on out-of-family trials,
// recover on in-family ones).
func TestDetectorInterplay(t *testing.T) {
	c := detCtrl(t, DetectorConfig{
		CongestionPerTick: 5,
		CongestionTicks:   2, // congestion ejects at tick 4...
		OutlierFactor:     4,
		OutlierTicks:      6, // ...before the outlier bar
		StarvationTicks:   3,
		MinPoolSamples:    8,
		BackoffInitial:    10 * time.Millisecond,
		SlowStartTicks:    3,
	})

	legal := map[HealthState][]HealthState{
		Healthy:   {Ejected},
		Ejected:   {HalfOpen},
		HalfOpen:  {SlowStart, Ejected},
		SlowStart: {Healthy, Ejected},
	}
	prev := c.Health(3).State
	checkTransition := func(now time.Duration) {
		t.Helper()
		st := c.Health(3).State
		if st == prev {
			return
		}
		ok := false
		for _, next := range legal[prev] {
			if st == next {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("illegal transition %v -> %v at %v", prev, st, now)
		}
		prev = st
	}
	tick := func(now time.Duration) {
		c.Tick(now)
		checkTransition(now)
	}

	// Phase A — the assault: backend 3 is simultaneously congestion-hot AND
	// a 50× latency outlier. Exactly one detector may claim the ejection.
	for i := 1; i <= 6; i++ {
		now := time.Duration(i) * time.Millisecond
		for b := 0; b < 3; b++ {
			feed(c, b, 4, time.Millisecond, now)
		}
		feed(c, 3, 4, 50*time.Millisecond, now)
		congest(c, 3, 12, 4, 2)
		tick(now)
	}
	if st := c.Health(3).State; st != Ejected {
		t.Fatalf("state after assault = %v, want ejected", st)
	}
	if c.Health(3).Ejections != 1 {
		t.Fatalf("Ejections = %d, want exactly 1 despite three signals", c.Health(3).Ejections)
	}
	if c.Health(3).CongestionEjections != 1 {
		t.Fatal("the earlier (congestion) detector should have claimed it")
	}

	// Post-ejection silence with a busy pool: starvation must not pile a
	// second ejection onto a backend that is already out.
	for i := 7; i <= 12; i++ {
		now := time.Duration(i) * time.Millisecond
		for b := 0; b < 3; b++ {
			feed(c, b, 4, time.Millisecond, now)
		}
		tick(now)
	}
	if c.Health(3).Ejections != 1 {
		t.Fatalf("silence double-ejected: Ejections = %d", c.Health(3).Ejections)
	}

	// Phase B — backoff expires (ejected at 4ms + 10ms): half-open trial.
	for b := 0; b < 3; b++ {
		feed(c, b, 4, time.Millisecond, 20*time.Millisecond)
	}
	tick(20 * time.Millisecond)
	if st := c.Health(3).State; st != HalfOpen {
		t.Fatalf("state after backoff = %v, want half-open", st)
	}

	// Phase C — a failed trial: backend 3's samples are uniformly 50× the
	// others' median, so the trial is judged out-of-family and re-ejects.
	for b := 0; b < 3; b++ {
		feed(c, b, 4, time.Millisecond, 21*time.Millisecond)
	}
	feed(c, 3, 4, 50*time.Millisecond, 21*time.Millisecond)
	tick(21 * time.Millisecond)
	if st := c.Health(3).State; st != Ejected {
		t.Fatalf("state after bad trial = %v, want re-ejected", st)
	}
	if c.Health(3).Ejections != 2 {
		t.Fatalf("Ejections = %d, want 2 (assault + failed trial)", c.Health(3).Ejections)
	}

	// Phase D — recovery: backoff doubled to 20ms (re-ejected at 21ms), so
	// the next trial opens after 41ms. In-family trial samples promote to
	// slow-start and the ramp completes back to full health.
	for b := 0; b < 3; b++ {
		feed(c, b, 4, time.Millisecond, 50*time.Millisecond)
	}
	tick(50 * time.Millisecond)
	if st := c.Health(3).State; st != HalfOpen {
		t.Fatalf("state before good trial = %v, want half-open", st)
	}
	for i := 0; i <= 4; i++ {
		now := time.Duration(51+i) * time.Millisecond
		feedAllEqual(c, now)
		tick(now)
	}
	if st := c.Health(3).State; st != Healthy {
		t.Fatalf("final state = %v, want healthy", st)
	}
	if a := c.Snapshot().Admission(3); a != 1 {
		t.Fatalf("final admission = %.3f, want 1", a)
	}
	if c.Health(3).Congested {
		t.Fatal("latch survived recovery")
	}
	for b := 0; b < 3; b++ {
		if c.Health(b).Ejections != 0 || c.Health(b).State != Healthy {
			t.Fatalf("bystander backend %d was judged", b)
		}
	}
}
