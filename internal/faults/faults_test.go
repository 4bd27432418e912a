package faults

import (
	"strings"
	"testing"
	"time"
)

func TestNone(t *testing.T) {
	for _, at := range []time.Duration{0, time.Second, time.Hour} {
		if d := None.DelayAt(at); d != 0 {
			t.Errorf("None.DelayAt(%v) = %v", at, d)
		}
	}
}

func TestStep(t *testing.T) {
	s := Step{Start: 100 * time.Second, Extra: time.Millisecond}
	cases := []struct {
		at   time.Duration
		want time.Duration
	}{
		{0, 0},
		{99 * time.Second, 0},
		{100 * time.Second, time.Millisecond},
		{101 * time.Second, time.Millisecond},
		{time.Hour, time.Millisecond},
	}
	for _, c := range cases {
		if got := s.DelayAt(c.at); got != c.want {
			t.Errorf("Step.DelayAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if !strings.Contains(s.String(), "from") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestStepWithEnd(t *testing.T) {
	s := Step{Start: time.Second, End: 2 * time.Second, Extra: time.Millisecond}
	if s.DelayAt(1500*time.Millisecond) != time.Millisecond {
		t.Error("inside window should inject")
	}
	if s.DelayAt(2*time.Second) != 0 {
		t.Error("End is exclusive of injection")
	}
	if !strings.Contains(s.String(), "during") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestPulse(t *testing.T) {
	p := Pulse{Start: time.Second, Period: 10 * time.Millisecond, On: 2 * time.Millisecond, Extra: 500 * time.Microsecond}
	if p.DelayAt(0) != 0 {
		t.Error("before start should be 0")
	}
	if p.DelayAt(time.Second+time.Millisecond) != 500*time.Microsecond {
		t.Error("inside on-phase should inject")
	}
	if p.DelayAt(time.Second+5*time.Millisecond) != 0 {
		t.Error("inside off-phase should be 0")
	}
	// Next period.
	if p.DelayAt(time.Second+11*time.Millisecond) != 500*time.Microsecond {
		t.Error("second period on-phase should inject")
	}
	bad := Pulse{Period: 0, Extra: time.Second}
	if bad.DelayAt(time.Hour) != 0 {
		t.Error("zero period must not divide by zero / must be inert")
	}
}

func TestRamp(t *testing.T) {
	r := Ramp{Start: time.Second, Rise: time.Second, Extra: time.Millisecond}
	if r.DelayAt(999*time.Millisecond) != 0 {
		t.Error("before start")
	}
	if got := r.DelayAt(1500 * time.Millisecond); got != 500*time.Microsecond {
		t.Errorf("midpoint = %v, want 500µs", got)
	}
	if r.DelayAt(3*time.Second) != time.Millisecond {
		t.Error("after rise should hold Extra")
	}
	instant := Ramp{Start: time.Second, Rise: 0, Extra: time.Millisecond}
	if instant.DelayAt(time.Second) != time.Millisecond {
		t.Error("zero rise behaves as step")
	}
}

// TestWindowBoundaries pins every windowed schedule's behavior exactly at
// the window edges: all windows are half-open [Start, End) — in force at
// t == Start (for Ramp: in force but contributing 0, since it grows from
// zero), gone at t == End — and the instants one tick (1ns) either side
// behave accordingly. DST scenarios sample schedules on exact tick edges,
// so an off-by-one here would make fault windows seed-dependent.
func TestWindowBoundaries(t *testing.T) {
	const (
		start = 100 * time.Millisecond
		end   = 200 * time.Millisecond
		rise  = 40 * time.Millisecond
		extra = 8 * time.Millisecond
	)
	cases := []struct {
		name  string
		s     Schedule
		at    time.Duration
		want  time.Duration
		gloss string
	}{
		{"step", Step{Start: start, End: end, Extra: extra}, start - 1, 0, "just before start"},
		{"step", Step{Start: start, End: end, Extra: extra}, start, extra, "start is inclusive"},
		{"step", Step{Start: start, End: end, Extra: extra}, end - 1, extra, "last instant inside"},
		{"step", Step{Start: start, End: end, Extra: extra}, end, 0, "end is exclusive"},
		{"step", Step{Start: start, End: end, Extra: extra}, end + 1, 0, "just after end"},

		{"ramp", Ramp{Start: start, Rise: rise, Extra: extra, End: end}, start - 1, 0, "just before start"},
		{"ramp", Ramp{Start: start, Rise: rise, Extra: extra, End: end}, start, 0, "grows from zero at start"},
		{"ramp", Ramp{Start: start, Rise: rise, Extra: extra, End: end}, start + rise - 1, extra - time.Nanosecond, "last instant of the rise (truncated)"},
		{"ramp", Ramp{Start: start, Rise: rise, Extra: extra, End: end}, start + rise, extra, "plateau begins at Start+Rise"},
		{"ramp", Ramp{Start: start, Rise: rise, Extra: extra, End: end}, end - 1, extra, "plateau holds to end"},
		{"ramp", Ramp{Start: start, Rise: rise, Extra: extra, End: end}, end, 0, "end is exclusive"},
		{"ramp-forever", Ramp{Start: start, Rise: rise, Extra: extra}, end + time.Hour, extra, "no End holds forever"},

		{"pulse", Pulse{Start: start, Period: 10 * time.Millisecond, On: 2 * time.Millisecond, Extra: extra}, start, extra, "on-phase starts at Start"},
		{"pulse", Pulse{Start: start, Period: 10 * time.Millisecond, On: 2 * time.Millisecond, Extra: extra}, start + 2*time.Millisecond - 1, extra, "last instant of on-phase"},
		{"pulse", Pulse{Start: start, Period: 10 * time.Millisecond, On: 2 * time.Millisecond, Extra: extra}, start + 2*time.Millisecond, 0, "On is exclusive"},
		{"pulse", Pulse{Start: start, Period: 10 * time.Millisecond, On: 2 * time.Millisecond, Extra: extra}, start + 10*time.Millisecond, extra, "next period restarts exactly at Period"},
	}
	for _, c := range cases {
		if got := c.s.DelayAt(c.at); got != c.want {
			t.Errorf("%s @%v (%s): %v, want %v", c.name, c.at, c.gloss, got, c.want)
		}
	}
}

func TestRampWindowed(t *testing.T) {
	r := Ramp{Start: time.Second, Rise: 500 * time.Millisecond, Extra: time.Millisecond, End: 2 * time.Second}
	if got := r.DelayAt(1250 * time.Millisecond); got != 500*time.Microsecond {
		t.Errorf("mid-rise = %v, want 500µs", got)
	}
	if got := r.DelayAt(1750 * time.Millisecond); got != time.Millisecond {
		t.Errorf("plateau = %v, want 1ms", got)
	}
	if got := r.DelayAt(3 * time.Second); got != 0 {
		t.Errorf("after End = %v, want 0", got)
	}
	if !strings.Contains(r.String(), "off at") {
		t.Errorf("String() = %q", r.String())
	}
	// End inside the rise: the ramp never reaches Extra, then shuts off.
	short := Ramp{Start: 0, Rise: time.Second, Extra: time.Millisecond, End: 500 * time.Millisecond}
	if got := short.DelayAt(400 * time.Millisecond); got != 400*time.Microsecond {
		t.Errorf("truncated rise = %v, want 400µs", got)
	}
	if got := short.DelayAt(500 * time.Millisecond); got != 0 {
		t.Errorf("truncated ramp after End = %v, want 0", got)
	}
}

func TestCollapse(t *testing.T) {
	c := Collapse{Start: time.Second, End: 2 * time.Second, Rate: 50e3}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{time.Second - 1, 0},
		{time.Second, 50e3}, // collapsed exactly at Start
		{1500 * time.Millisecond, 50e3},
		{2*time.Second - 1, 50e3},
		{2 * time.Second, 0}, // recovered exactly at End
	}
	for _, tc := range cases {
		if got := c.RateAt(tc.at); got != tc.want {
			t.Errorf("Collapse.RateAt(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	forever := Collapse{Start: time.Second, Rate: 10e3}
	if forever.RateAt(time.Hour) != 10e3 {
		t.Error("End == 0 should never lift")
	}
	if !strings.Contains(c.String(), "collapse") {
		t.Errorf("String() = %q", c.String())
	}

	cs := Collapses{
		{Start: 0, End: time.Second, Rate: 20e3},
		{Start: 3 * time.Second, End: 4 * time.Second, Rate: 30e3},
	}
	if cs.RateAt(500*time.Millisecond) != 20e3 || cs.RateAt(3500*time.Millisecond) != 30e3 {
		t.Error("Collapses window selection broken")
	}
	if cs.RateAt(2*time.Second) != 0 {
		t.Error("Collapses between windows should not override")
	}
}

func TestStack(t *testing.T) {
	s := Stack{
		Step{Start: 0, Extra: time.Millisecond},
		Step{Start: time.Second, Extra: 2 * time.Millisecond},
	}
	if got := s.DelayAt(0); got != time.Millisecond {
		t.Errorf("t=0: %v", got)
	}
	if got := s.DelayAt(time.Second); got != 3*time.Millisecond {
		t.Errorf("t=1s: %v, want 3ms (sum)", got)
	}
}

func TestScheduleFunc(t *testing.T) {
	var s Schedule = ScheduleFunc(func(t time.Duration) time.Duration { return t / 2 })
	if s.DelayAt(time.Second) != 500*time.Millisecond {
		t.Error("ScheduleFunc adapter broken")
	}
}
