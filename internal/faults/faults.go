// Package faults provides time-indexed delay and fault injection schedules
// shared by the simulated links, simulated servers, and the live memcached
// server. The paper's headline experiment is a single Step: +1 ms on one
// LB→server path starting at t = 100 s.
package faults

import (
	"fmt"
	"time"
)

// Schedule maps a point in (virtual or wall) time to an additional delay.
// Implementations must be safe to call from a single goroutine; the live
// server wraps one in a mutex.
type Schedule interface {
	// DelayAt returns the extra delay in force at time t.
	DelayAt(t time.Duration) time.Duration
}

// ScheduleFunc adapts a function to the Schedule interface.
type ScheduleFunc func(t time.Duration) time.Duration

// DelayAt calls f(t).
func (f ScheduleFunc) DelayAt(t time.Duration) time.Duration { return f(t) }

// None is the empty schedule (zero extra delay at all times).
var None Schedule = ScheduleFunc(func(time.Duration) time.Duration { return 0 })

// Step injects a constant extra delay from Start onward (and, when End > 0,
// removes it at End).
type Step struct {
	Start time.Duration
	End   time.Duration // zero means "forever"
	Extra time.Duration
}

// DelayAt implements Schedule.
func (s Step) DelayAt(t time.Duration) time.Duration {
	if t < s.Start {
		return 0
	}
	if s.End > 0 && t >= s.End {
		return 0
	}
	return s.Extra
}

// String describes the step for logs.
func (s Step) String() string {
	if s.End > 0 {
		return fmt.Sprintf("step(+%v during [%v,%v))", s.Extra, s.Start, s.End)
	}
	return fmt.Sprintf("step(+%v from %v)", s.Extra, s.Start)
}

// Pulse injects a periodic on/off extra delay: On long bursts of Extra every
// Period, starting at Start. It models recurring background interference
// such as compaction or garbage collection.
type Pulse struct {
	Start  time.Duration
	Period time.Duration
	On     time.Duration
	Extra  time.Duration
}

// DelayAt implements Schedule.
func (p Pulse) DelayAt(t time.Duration) time.Duration {
	if t < p.Start || p.Period <= 0 {
		return 0
	}
	phase := (t - p.Start) % p.Period
	if phase < p.On {
		return p.Extra
	}
	return 0
}

// Ramp grows the extra delay linearly from zero at Start to Extra at
// Start+Rise, holding it afterwards. It models gradual degradation such as
// a queue building up behind a slowing disk. When End > 0 the delay is
// removed at End (the window is [Start, End), matching Step), so windowed
// queue-buildup scenarios are deterministic at tick edges: exactly at
// t == Start the ramp contributes 0 (it "grows from zero at Start"), and
// exactly at t == End it contributes 0 again.
type Ramp struct {
	Start time.Duration
	Rise  time.Duration
	Extra time.Duration
	End   time.Duration // zero means "hold Extra forever"
}

// DelayAt implements Schedule.
func (r Ramp) DelayAt(t time.Duration) time.Duration {
	if t < r.Start {
		return 0
	}
	if r.End > 0 && t >= r.End {
		return 0
	}
	if r.Rise <= 0 || t >= r.Start+r.Rise {
		return r.Extra
	}
	frac := float64(t-r.Start) / float64(r.Rise)
	return time.Duration(frac * float64(r.Extra))
}

// String describes the ramp for logs.
func (r Ramp) String() string {
	if r.End > 0 {
		return fmt.Sprintf("ramp(0→+%v over %v from %v, off at %v)", r.Extra, r.Rise, r.Start, r.End)
	}
	return fmt.Sprintf("ramp(0→+%v over %v from %v)", r.Extra, r.Rise, r.Start)
}

// RateSchedule maps a point in time to a link-rate override in bytes per
// second; <= 0 means "no override" (the link's configured rate applies).
type RateSchedule interface {
	RateAt(t time.Duration) float64
}

// Collapse models a bandwidth collapse: during [Start, End) the link's
// rate is overridden down to Rate bytes/second (the window is half-open
// like Step: collapsed exactly at t == Start, recovered exactly at
// t == End; End == 0 means the collapse never lifts). Outside the window
// it returns 0 — no override.
type Collapse struct {
	Start time.Duration
	End   time.Duration
	Rate  float64 // bytes/second during the collapse; must be > 0
}

// RateAt implements RateSchedule.
func (c Collapse) RateAt(t time.Duration) float64 {
	if t < c.Start {
		return 0
	}
	if c.End > 0 && t >= c.End {
		return 0
	}
	return c.Rate
}

// String describes the collapse for logs.
func (c Collapse) String() string {
	return fmt.Sprintf("collapse(%.0fB/s during [%v,%v))", c.Rate, c.Start, c.End)
}

// Collapses composes several collapse windows: the first window containing
// t wins (windows are typically disjoint).
type Collapses []Collapse

// RateAt implements RateSchedule.
func (cs Collapses) RateAt(t time.Duration) float64 {
	for _, c := range cs {
		if r := c.RateAt(t); r > 0 {
			return r
		}
	}
	return 0
}

// Stack sums several schedules.
type Stack []Schedule

// DelayAt implements Schedule.
func (s Stack) DelayAt(t time.Duration) time.Duration {
	var total time.Duration
	for _, sched := range s {
		total += sched.DelayAt(t)
	}
	return total
}
