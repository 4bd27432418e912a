package netpoll

import (
	"sync/atomic"
	"time"
)

// wheel.go implements the hierarchical (cascading) timing wheel each poller
// shard uses in place of per-connection SetDeadline timers. The wheel is
// single-owner: every method must be called from the goroutine that advances
// it (the poller loop), which is what lets it run with no locks at all.
//
// Layout: wheelLevels levels of wheelSlots buckets. Level 0 buckets span one
// tick each; level L buckets span wheelSlots^L ticks. A timer due in d ticks
// lands in the lowest level whose span covers d, and is cascaded down a level
// each time the wheel's cursor wraps into its bucket, until it expires out of
// level 0. All operations — Add, Stop, Reset, and the per-tick advance work —
// are O(1) amortized; buckets are intrusive doubly-linked lists so Stop never
// scans.
//
// Deadline semantics: a timer scheduled with delay d fires at the first
// Advance whose tick count reaches ceil(d/tick), and never earlier. The
// wheel's coarseness therefore only ever adds slack, bounded by one tick plus
// however late the owner calls Advance (for the poller: the epoll_wait wakeup
// latency). This matches SetDeadline's contract — timeouts may be late but
// not early.

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64 buckets per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 4 // 64^4 ticks ≈ 4.6h at the default 1ms tick
)

// Timer is a single scheduled callback. The zero value is not usable; timers
// are created by Wheel.Add and may be re-armed with Wheel.Reset after firing.
type Timer struct {
	when       uint64 // absolute tick at which fn fires
	fn         func()
	next, prev *Timer // intrusive bucket list; nil when unlinked
}

func (t *Timer) linked() bool { return t.next != nil }

func (t *Timer) unlink() {
	t.prev.next = t.next
	t.next.prev = t.prev
	t.next, t.prev = nil, nil
}

// bucket is a circular doubly-linked list with a sentinel head.
type bucket struct {
	head Timer
}

func (b *bucket) init() {
	b.head.next = &b.head
	b.head.prev = &b.head
}

func (b *bucket) empty() bool { return b.head.next == &b.head }

func (b *bucket) push(t *Timer) {
	last := b.head.prev
	t.prev = last
	t.next = &b.head
	last.next = t
	b.head.prev = t
}

// take detaches the bucket's whole list and returns its first timer (nil if
// empty). The returned chain is terminated by nil on both ends.
func (b *bucket) take() *Timer {
	first := b.head.next
	if first == &b.head {
		return nil
	}
	last := b.head.prev
	first.prev = nil
	last.next = nil
	b.init()
	return first
}

// Wheel is a hierarchical timing wheel. Not safe for concurrent use: the
// owning goroutine calls everything.
type Wheel struct {
	tick    time.Duration
	cur     uint64 // current tick (last advanced-to)
	levels  [wheelLevels][wheelSlots]bucket
	pending int
	fired   atomic.Uint64 // the one field other goroutines may read (Fired)
}

// NewWheel returns a wheel with the given tick granularity.
func NewWheel(tick time.Duration) *Wheel {
	if tick <= 0 {
		tick = time.Millisecond
	}
	w := &Wheel{tick: tick}
	for l := range w.levels {
		for s := range w.levels[l] {
			w.levels[l][s].init()
		}
	}
	return w
}

// Tick returns the wheel's tick granularity.
func (w *Wheel) Tick() time.Duration { return w.tick }

// Now returns the current tick.
func (w *Wheel) Now() uint64 { return w.cur }

// Pending returns the number of scheduled, un-fired timers.
func (w *Wheel) Pending() int { return w.pending }

// Fired returns the cumulative count of timer callbacks run. Safe from any
// goroutine; a callback is counted before it runs, so whoever it signals
// already sees it.
func (w *Wheel) Fired() uint64 { return w.fired.Load() }

// Add schedules fn to run after delay (rounded up to a whole tick, minimum
// one tick so a timer never fires on the tick it was added).
func (w *Wheel) Add(delay time.Duration, fn func()) *Timer {
	t := &Timer{fn: fn}
	w.schedule(t, delay)
	return t
}

// Stop cancels t if it is scheduled. Returns true if the timer was pending.
func (w *Wheel) Stop(t *Timer) bool {
	if t == nil || !t.linked() {
		return false
	}
	t.unlink()
	w.pending--
	return true
}

// Reset re-arms t (which must have been created by Add on this wheel) to fire
// after delay, whether or not it has already fired or been stopped. The
// timer's callback is unchanged.
func (w *Wheel) Reset(t *Timer, delay time.Duration) {
	w.Stop(t)
	w.schedule(t, delay)
}

func (w *Wheel) schedule(t *Timer, delay time.Duration) {
	ticks := uint64(1)
	if delay > 0 {
		ticks = uint64((delay + w.tick - 1) / w.tick)
		if ticks == 0 {
			ticks = 1
		}
	}
	t.when = w.cur + ticks
	w.insert(t)
	w.pending++
}

// insert places t in the lowest level whose span covers its remaining delay.
func (w *Wheel) insert(t *Timer) {
	delta := t.when - w.cur
	span := uint64(wheelSlots)
	lvl := 0
	for lvl < wheelLevels-1 && delta >= span {
		span <<= wheelBits
		lvl++
	}
	if delta >= span { // beyond the top level's horizon: clamp to the far edge
		t.when = w.cur + span - 1
	}
	idx := (t.when >> (uint(lvl) * wheelBits)) & wheelMask
	w.levels[lvl][idx].push(t)
}

// Advance moves the wheel forward to tick `to`, cascading higher levels at
// wrap boundaries and firing every timer whose tick has been reached. Timer
// callbacks may Add/Reset/Stop other timers on this wheel.
func (w *Wheel) Advance(to uint64) {
	if w.pending == 0 && w.cur < to {
		// Nothing scheduled: every bucket is empty, so the cursor can jump
		// without ticking (avoids O(idle-time) spins after a long sleep).
		w.cur = to
		return
	}
	for w.cur < to {
		w.cur++
		if w.cur&wheelMask == 0 {
			w.cascade(1)
		}
		w.expire(&w.levels[0][w.cur&wheelMask])
	}
}

// cascade flushes the level-lvl bucket the cursor just wrapped into down to
// lower levels (recursing upward first when higher levels wrap too).
func (w *Wheel) cascade(lvl int) {
	if lvl >= wheelLevels {
		return
	}
	idx := (w.cur >> (uint(lvl) * wheelBits)) & wheelMask
	if idx == 0 {
		w.cascade(lvl + 1)
	}
	t := w.levels[lvl][idx].take()
	for t != nil {
		next := t.next
		t.next, t.prev = nil, nil
		w.insert(t) // delta now < this level's span: lands lower
		t = next
	}
}

// expire pops timers from the live bucket one at a time (rather than
// detaching the whole chain) so a firing callback can Stop a sibling timer
// that shares the bucket — common when one relay direction's timeout tears
// down the other direction's timer. A callback can never re-insert into the
// bucket being expired: new timers land at least one tick out.
func (w *Wheel) expire(b *bucket) {
	for {
		t := b.head.next
		if t == &b.head {
			return
		}
		t.unlink()
		w.pending--
		w.fired.Add(1)
		t.fn()
	}
}

// NextDelay returns a conservative duration until the next timer could fire:
// the distance to the first occupied level-0 bucket, capped at the next
// cascade boundary (where higher-level timers migrate down). Returns -1 when
// no timers are pending. Waking the owner after NextDelay and calling Advance
// never misses a deadline: any timer parked in a higher level cannot be due
// before the next wrap boundary.
func (w *Wheel) NextDelay() time.Duration {
	if w.pending == 0 {
		return -1
	}
	for i := uint64(1); i <= wheelSlots; i++ {
		tick := w.cur + i
		if !w.levels[0][tick&wheelMask].empty() {
			return time.Duration(i) * w.tick
		}
		if tick&wheelMask == 0 { // cascade boundary: re-evaluate there
			return time.Duration(i) * w.tick
		}
	}
	// Unreachable: a boundary occurs within wheelSlots ticks.
	return w.tick
}
