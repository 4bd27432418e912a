// Package netsim is a deterministic discrete-event network simulator: an
// event loop with a virtual clock, plus link models with propagation delay,
// bandwidth serialization, bounded FIFO queues, and delay-injection hooks.
//
// It substitutes for the paper's CloudLab testbed. Determinism comes from a
// seeded random source and a stable tie-break on simultaneous events, so
// every experiment is exactly replayable from its seed.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Sim is the event loop. All simulation activity happens in callbacks run by
// Run/RunUntil on a single goroutine; no locking is needed inside handlers.
type Sim struct {
	events  eventQueue // holds the virtual clock as well
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// packets is the free list behind NewPacket; livePackets counts packets
	// taken from it and not yet released.
	packets     []*Packet
	livePackets int
}

type event struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for simultaneous events
	fn  func()
}

// NewSim creates a simulator whose random source is seeded with seed.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.events.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Schedule runs fn at virtual time at. Scheduling in the past panics: it is
// always a model bug, and silently reordering would break causality.
//
// Schedule itself never heap-allocates (beyond amortized queue growth); a
// closure literal passed as fn still does. Hot paths that fire the same
// callback repeatedly should hold the func in a variable — or use a Timer —
// so each call is allocation-free.
func (s *Sim) Schedule(at time.Duration, fn func()) {
	if at < s.events.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v before now %v", at, s.events.now))
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, fn: fn}, true)
}

// ReserveSeq takes the rank Schedule would give an event scheduled now,
// for a callback scheduled later with ScheduleReserved. The rank is the
// tie-break among events due at the same instant. A client that arms only
// its oldest pending timer reserves a rank for each timer when it starts
// one, so each timer fires exactly where it would have had every one been
// queued at its start.
func (s *Sim) ReserveSeq() uint64 {
	s.seq++
	return s.seq
}

// ScheduleReserved runs fn at virtual time at with a rank taken earlier by
// ReserveSeq. Use each rank once. Like Schedule it panics on a time before
// now, and also on a rank ReserveSeq never returned.
func (s *Sim) ScheduleReserved(at time.Duration, seq uint64, fn func()) {
	if at < s.events.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v before now %v", at, s.events.now))
	}
	if seq == 0 || seq > s.seq {
		panic(fmt.Sprintf("netsim: rank %d was never reserved", seq))
	}
	s.events.push(event{at: at, seq: seq, fn: fn}, false)
}

// Timer is a reusable scheduled event: the callback is allocated once, at
// NewTimer, and re-armed with Schedule/After at zero allocations per arming.
// Periodic drivers (link serialization, closed-loop workloads) use it to
// keep closure construction off the per-event path.
//
// A Timer may be armed multiple times concurrently-in-virtual-time; each
// arming is an independent event. Like all of Sim, it is single-goroutine.
type Timer struct {
	sim *Sim
	fn  func()
}

// NewTimer creates a reusable event invoking fn.
func (s *Sim) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("netsim: NewTimer requires a callback")
	}
	return &Timer{sim: s, fn: fn}
}

// Schedule arms the timer to fire at virtual time at.
func (t *Timer) Schedule(at time.Duration) { t.sim.Schedule(at, t.fn) }

// After arms the timer to fire d from now. Negative d is clamped to zero.
func (t *Timer) After(d time.Duration) { t.sim.After(d, t.fn) }

// After runs fn d from now. Negative d is clamped to zero.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.Schedule(s.events.now+d, fn)
}

// Every invokes fn at start and then every interval until fn returns false
// or the simulation stops. One Timer carries every tick, so re-arming
// allocates nothing after the initial call.
func (s *Sim) Every(start, interval time.Duration, fn func() bool) {
	if interval <= 0 {
		panic("netsim: Every interval must be positive")
	}
	var t *Timer
	at := start
	t = s.NewTimer(func() {
		if s.stopped {
			return
		}
		if !fn() {
			return
		}
		at += interval
		t.Schedule(at)
	})
	t.Schedule(start)
}

// Run processes events until the queue drains or Stop is called. It returns
// the number of events processed.
func (s *Sim) Run() int {
	return s.run(-1)
}

// RunUntil processes events with timestamps <= t (or until Stop), leaving
// the clock at t if the queue drains earlier. It returns the number of
// events processed.
func (s *Sim) RunUntil(t time.Duration) int {
	n := s.run(t)
	if !s.stopped && s.events.now < t {
		s.events.now = t // nothing is pending at or before t, so the lane is empty
	}
	return n
}

// run dispatches events at or before until; a negative until is no bound.
func (s *Sim) run(until time.Duration) int {
	if until < 0 {
		until = math.MaxInt64
	}
	n := 0
	for !s.stopped {
		e, ok := s.events.popUntil(until)
		if !ok {
			break
		}
		e.fn()
		n++
	}
	return n
}

// Stop halts the event loop after the current callback returns. Pending
// events remain queued; a subsequent Run resumes unless Stop is sticky —
// call Resume to clear it.
func (s *Sim) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Sim) Stopped() bool { return s.stopped }

// Resume clears a Stop so Run/RunUntil can continue.
func (s *Sim) Resume() { s.stopped = false }

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.events.Len() }
