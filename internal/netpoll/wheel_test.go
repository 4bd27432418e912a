package netpoll

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestWheelFiresAtExactTick(t *testing.T) {
	w := NewWheel(time.Millisecond)
	cases := []time.Duration{
		time.Millisecond,       // one tick
		500 * time.Microsecond, // sub-tick rounds up
		63 * time.Millisecond,  // last level-0 slot
		64 * time.Millisecond,  // first level-1 slot
		100 * time.Millisecond, // level 1
		5 * time.Second,        // level 2
		300 * time.Second,      // level 3
	}
	for _, d := range cases {
		fired := false
		var firedAt uint64
		start := w.Now()
		w.Add(d, func() { fired = true; firedAt = w.Now() })
		ticks := uint64((d + w.Tick() - 1) / w.Tick())
		if ticks == 0 {
			ticks = 1
		}
		want := start + ticks
		w.Advance(want - 1)
		if fired {
			t.Fatalf("delay %v: fired early at tick %d (want %d)", d, firedAt, want)
		}
		w.Advance(want)
		if !fired || firedAt != want {
			t.Fatalf("delay %v: fired=%v at tick %d, want exactly %d", d, fired, firedAt, want)
		}
	}
}

func TestWheelZeroAndNegativeDelayFireNextTick(t *testing.T) {
	w := NewWheel(time.Millisecond)
	fired := 0
	w.Add(0, func() { fired++ })
	w.Add(-time.Second, func() { fired++ })
	if fired != 0 {
		t.Fatal("fired before any advance")
	}
	w.Advance(1)
	if fired != 2 {
		t.Fatalf("fired=%d after one tick, want 2", fired)
	}
}

func TestWheelCancelBeforeFire(t *testing.T) {
	w := NewWheel(time.Millisecond)
	fired := false
	tm := w.Add(10*time.Millisecond, func() { fired = true })
	if !w.Stop(tm) {
		t.Fatal("Stop on pending timer returned false")
	}
	if w.Stop(tm) {
		t.Fatal("second Stop returned true")
	}
	w.Advance(1000)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if w.Pending() != 0 {
		t.Fatalf("pending=%d after cancel, want 0", w.Pending())
	}
}

func TestWheelResetMovesDeadline(t *testing.T) {
	w := NewWheel(time.Millisecond)
	var firedAt uint64
	tm := w.Add(5*time.Millisecond, func() { firedAt = w.Now() })
	w.Advance(3)
	w.Reset(tm, 10*time.Millisecond) // now due at tick 13
	w.Advance(12)
	if firedAt != 0 {
		t.Fatalf("fired at %d before reset deadline", firedAt)
	}
	w.Advance(13)
	if firedAt != 13 {
		t.Fatalf("fired at %d, want 13", firedAt)
	}
	// Reset after firing re-arms with the same callback.
	w.Reset(tm, 2*time.Millisecond)
	w.Advance(15)
	if firedAt != 15 {
		t.Fatalf("re-armed timer fired at %d, want 15", firedAt)
	}
}

// TestWheelStopSiblingFromCallback covers the relay-teardown shape: two
// timers in the same bucket, the first one's callback cancels the second.
func TestWheelStopSiblingFromCallback(t *testing.T) {
	w := NewWheel(time.Millisecond)
	var second *Timer
	secondFired := false
	w.Add(4*time.Millisecond, func() { w.Stop(second) })
	second = w.Add(4*time.Millisecond, func() { secondFired = true })
	w.Advance(10)
	if secondFired {
		t.Fatal("sibling timer fired despite Stop from earlier callback in same bucket")
	}
	if w.Pending() != 0 {
		t.Fatalf("pending=%d, want 0", w.Pending())
	}
}

// TestWheelPropertyChurn drives a randomized schedule of adds, cancels, and
// resets against a reference model and asserts: timers never fire early, fire
// at exactly their scheduled tick (slack is bounded by the tick quantum,
// which scheduling already rounds into), fire in monotonically non-decreasing
// deadline order, and cancelled timers never fire.
func TestWheelPropertyChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		w := NewWheel(time.Millisecond)
		type entry struct {
			tm        *Timer
			due       uint64
			cancelled bool
			fired     bool
			firedAt   uint64
		}
		var entries []*entry
		var fireOrder []uint64
		addOne := func() {
			e := &entry{}
			// Mix of close, mid, cross-level, and far delays.
			var d time.Duration
			switch rng.Intn(4) {
			case 0:
				d = time.Duration(1+rng.Intn(63)) * time.Millisecond
			case 1:
				d = time.Duration(64+rng.Intn(4096)) * time.Millisecond
			case 2:
				d = time.Duration(rng.Intn(300000)) * time.Microsecond
			default:
				d = time.Duration(1+rng.Intn(500000)) * time.Millisecond
			}
			e.due = w.Now() + uint64((d+w.Tick()-1)/w.Tick())
			if e.due == w.Now() {
				e.due = w.Now() + 1
			}
			e.tm = w.Add(d, func() {
				e.fired = true
				e.firedAt = w.Now()
				fireOrder = append(fireOrder, e.due)
			})
			entries = append(entries, e)
		}
		for i := 0; i < 50; i++ {
			addOne()
		}
		for step := 0; step < 400; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2:
				addOne()
			case 3:
				e := entries[rng.Intn(len(entries))]
				if !e.fired && !e.cancelled {
					if !w.Stop(e.tm) {
						t.Fatalf("trial %d: Stop on live timer returned false", trial)
					}
					e.cancelled = true
				}
			case 4:
				e := entries[rng.Intn(len(entries))]
				if !e.fired && !e.cancelled {
					d := time.Duration(1+rng.Intn(10000)) * time.Millisecond
					w.Reset(e.tm, d)
					e.due = w.Now() + uint64(d/w.Tick())
				}
			default:
				w.Advance(w.Now() + uint64(rng.Intn(200)))
			}
			// Invariants checked continuously.
			for _, e := range entries {
				if e.cancelled && e.fired {
					t.Fatalf("trial %d: cancelled timer fired", trial)
				}
				if e.fired && e.firedAt != e.due {
					t.Fatalf("trial %d: fired at tick %d, due %d (early or late)", trial, e.firedAt, e.due)
				}
				if !e.fired && !e.cancelled && w.Now() >= e.due {
					t.Fatalf("trial %d: timer due at %d still pending at %d", trial, e.due, w.Now())
				}
			}
		}
		// Drain everything and re-verify.
		w.Advance(w.Now() + 600000)
		live := 0
		for _, e := range entries {
			if !e.cancelled && !e.fired {
				t.Fatalf("trial %d: timer due %d never fired (now %d)", trial, e.due, w.Now())
			}
			if !e.cancelled {
				live++
			}
		}
		if !sort.SliceIsSorted(fireOrder, func(i, j int) bool { return fireOrder[i] < fireOrder[j] }) {
			t.Fatalf("trial %d: fire order not monotone in deadline", trial)
		}
		if len(fireOrder) != live {
			t.Fatalf("trial %d: %d fires for %d live timers", trial, len(fireOrder), live)
		}
		if w.Pending() != 0 {
			t.Fatalf("trial %d: pending=%d after drain", trial, w.Pending())
		}
	}
}

// TestWheelNextDelayNeverOvershoots: sleeping NextDelay then advancing must
// never skip past a deadline.
func TestWheelNextDelayNeverOvershoots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWheel(time.Millisecond)
	if w.NextDelay() != -1 {
		t.Fatal("NextDelay on empty wheel should be -1")
	}
	due := make(map[uint64]int)
	for i := 0; i < 200; i++ {
		d := time.Duration(1+rng.Intn(20000)) * time.Millisecond
		dueTick := w.Now() + uint64(d/w.Tick())
		due[dueTick]++
		w.Add(d, func() {})
	}
	for w.Pending() > 0 {
		nd := w.NextDelay()
		if nd < 0 {
			t.Fatal("NextDelay negative with timers pending")
		}
		ticks := uint64(nd / w.Tick())
		if ticks == 0 {
			ticks = 1
		}
		// No deadline may fall strictly inside the sleep window.
		for tick := w.Now() + 1; tick < w.Now()+ticks; tick++ {
			if due[tick] > 0 {
				t.Fatalf("NextDelay=%v sleeps past deadline at tick %d (now %d)", nd, tick, w.Now())
			}
		}
		w.Advance(w.Now() + ticks)
	}
}
