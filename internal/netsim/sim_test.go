package netsim

import (
	"testing"
	"time"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim(1)
	var order []int
	s.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	n := s.Run()
	if n != 3 {
		t.Fatalf("processed %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("final time = %v", s.Now())
	}
}

func TestSimFIFOTieBreak(t *testing.T) {
	s := NewSim(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", order)
		}
	}
}

func TestSimSchedulePastPanics(t *testing.T) {
	s := NewSim(1)
	s.Schedule(time.Millisecond, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.Schedule(0, func() {})
}

func TestSimAfterClampsNegative(t *testing.T) {
	s := NewSim(1)
	ran := false
	s.Schedule(time.Millisecond, func() {
		s.After(-time.Second, func() { ran = true })
	})
	s.Run()
	if !ran {
		t.Error("After with negative delay did not run")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewSim(1)
	var ran []time.Duration
	for _, at := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond} {
		at := at
		s.Schedule(at, func() { ran = append(ran, at) })
	}
	n := s.RunUntil(3 * time.Millisecond)
	if n != 2 {
		t.Errorf("processed %d events, want 2", n)
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("clock = %v, want 3ms (advanced to horizon)", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
	s.RunUntil(10 * time.Millisecond)
	if len(ran) != 3 {
		t.Errorf("events run = %d, want 3", len(ran))
	}
}

func TestStopAndResume(t *testing.T) {
	s := NewSim(1)
	count := 0
	for i := 1; i <= 5; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 2 {
		t.Fatalf("ran %d events before stop, want 2", count)
	}
	if !s.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
	s.Resume()
	s.Run()
	if count != 5 {
		t.Errorf("ran %d events total, want 5", count)
	}
}

func TestEvery(t *testing.T) {
	s := NewSim(1)
	ticks := 0
	s.Every(time.Millisecond, time.Millisecond, func() bool {
		ticks++
		return ticks < 4
	})
	s.Run()
	if ticks != 4 {
		t.Errorf("ticks = %d, want 4", ticks)
	}
	if s.Now() != 4*time.Millisecond {
		t.Errorf("clock = %v, want 4ms", s.Now())
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() []time.Duration {
		s := NewSim(42)
		var out []time.Duration
		var step func()
		i := 0
		step = func() {
			out = append(out, s.Now())
			i++
			if i < 50 {
				s.After(time.Duration(s.Rand().Intn(1000))*time.Microsecond, step)
			}
		}
		s.Schedule(0, step)
		s.Run()
		return out
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// BenchmarkSimEventThroughput measures schedule+dispatch per event. The
// shallow leg keeps one event pending, the burst leg a thousand in one
// epoch. The deep leg has the shape request
// workloads give the queue: every tick also parks a no-op timer 100 ms out
// (a request deadline that its response beats), so ≈4,000 of them stand in
// the queue while the ticks run 25 µs apart.
func BenchmarkSimEventThroughput(b *testing.B) {
	b.Run("shallow", func(b *testing.B) {
		s := NewSim(1)
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < b.N {
				s.After(time.Microsecond, tick)
			}
		}
		s.Schedule(0, tick)
		b.ReportAllocs()
		b.ResetTimer()
		s.Run()
	})
	// The benchmark rig's netsim.events_per_s probe: bursts of 1,024 events
	// one nanosecond apart, scheduled in order, then drained.
	b.Run("burst", func(b *testing.B) {
		s := NewSim(1)
		tick := func() {}
		b.ReportAllocs()
		b.ResetTimer()
		base := s.Now()
		for i := 0; i < b.N; i++ {
			s.Schedule(base+time.Duration(i&1023)*time.Nanosecond, tick)
			if i&1023 == 1023 {
				s.RunUntil(base + 1024*time.Nanosecond)
				base = s.Now()
			}
		}
		s.Run()
	})
	b.Run("deep", func(b *testing.B) {
		s := NewSim(1)
		deadline := func() {}
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < b.N {
				s.After(100*time.Millisecond, deadline)
				s.After(25*time.Microsecond, tick)
			}
		}
		s.Schedule(0, tick)
		b.ReportAllocs()
		b.ResetTimer()
		events := s.Run()
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
	})
}
