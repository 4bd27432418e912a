package netsim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"time"
)

// refHeap is the event queue this package started with: container/heap over
// a slice of events ordered by (at, seq). It is kept here verbatim as the
// determinism oracle — whatever the queue's tiers do, it must dispatch in
// exactly the order this one does.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

const (
	epochWidth = time.Duration(1) << epochShift
	ringSpan   = ringEpochs * epochWidth
)

// queuePair drives the queue and the reference heap with the same schedule
// and fails on the first divergence.
type queuePair struct {
	t   testing.TB
	q   eventQueue
	ref refHeap
	seq uint64
	// reserved holds ranks taken by reserve and not yet pushed, oldest
	// first, as Sim.ReserveSeq hands them out.
	reserved []uint64
}

func (p *queuePair) push(at time.Duration) {
	p.seq++
	p.q.push(event{at: at, seq: p.seq}, true)
	heap.Push(&p.ref, event{at: at, seq: p.seq})
	p.checkLen()
}

// reserve takes a rank for a later pushReserved, as Sim.ReserveSeq does.
func (p *queuePair) reserve() {
	p.seq++
	p.reserved = append(p.reserved, p.seq)
}

// pushReserved schedules an event at with the oldest reserved rank, as
// Sim.ScheduleReserved does; it reports false when no rank is reserved.
func (p *queuePair) pushReserved(at time.Duration) bool {
	if len(p.reserved) == 0 {
		return false
	}
	seq := p.reserved[0]
	p.reserved = p.reserved[1:]
	p.q.push(event{at: at, seq: seq}, false)
	heap.Push(&p.ref, event{at: at, seq: seq})
	p.checkLen()
	return true
}

func (p *queuePair) checkLen() {
	p.t.Helper()
	if p.q.Len() != p.ref.Len() {
		p.t.Fatalf("Len() = %d, reference holds %d", p.q.Len(), p.ref.Len())
	}
}

// take pops the next event at or before limit, which the reference must
// hold, from both and compares.
func (p *queuePair) take(limit time.Duration) {
	p.t.Helper()
	before := p.q.now
	got, ok := p.q.popUntil(limit)
	want := heap.Pop(&p.ref).(event)
	if !ok || got.at != want.at || got.seq != want.seq {
		p.t.Fatalf("pop mismatch: got (%v,%d,%v) want (%v,%d)", got.at, got.seq, ok, want.at, want.seq)
	}
	if p.q.now < before || p.q.now < got.at {
		p.t.Fatalf("clock at %v after popping %v (was %v)", p.q.now, got.at, before)
	}
	p.checkLen()
}

func (p *queuePair) pop() {
	p.t.Helper()
	p.take(math.MaxInt64)
}

// runUntil is Sim.RunUntil: dispatch everything at or before t, then move
// the clock to t.
func (p *queuePair) runUntil(t time.Duration) {
	p.t.Helper()
	for p.ref.Len() > 0 && p.ref[0].at <= t {
		p.take(t)
	}
	if e, ok := p.q.popUntil(t); ok {
		p.t.Fatalf("runUntil(%v) popped (%v,%d) past the bound", t, e.at, e.seq)
	}
	if p.q.now < t {
		p.q.now = t
	}
}

func (p *queuePair) drain() {
	p.t.Helper()
	for p.ref.Len() > 0 {
		p.pop()
	}
	if _, ok := p.q.popUntil(math.MaxInt64); ok {
		p.t.Fatal("queue popped an event the reference does not hold")
	}
}

// TestEventQueueMatchesReferenceHeap drives the queue and the old
// container/heap implementation with identical schedules — randomized ones
// with bursts of simultaneous events, and constructed ones that reach every
// tier and the seams between them — and asserts the pop sequences are
// identical.
func TestEventQueueMatchesReferenceHeap(t *testing.T) {
	t.Run("mixed", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := &queuePair{t: t}
			// Interleave pushes and pops the way a simulation does: grow,
			// drain a little, grow again. Coarse timestamps (mod 50) force
			// many exact ties, and land behind the last pop as often as
			// ahead of it: the queue orders those too.
			for round := 0; round < 50; round++ {
				for i := 0; i < 40; i++ {
					p.push(time.Duration(rng.Intn(50)) * time.Millisecond)
				}
				drains := rng.Intn(30)
				for i := 0; i < drains && p.ref.Len() > 0; i++ {
					p.pop()
				}
			}
			p.drain()
		}
	})

	// Every tier at once, always ahead of the clock as Sim pushes: the
	// current instant (lane), the current epoch (near), the ring, and past
	// the ring (overflow), with the clock walking through all of it.
	t.Run("all tiers", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := &queuePair{t: t}
			for round := 0; round < 200; round++ {
				for i := rng.Intn(12); i > 0; i-- {
					var d time.Duration
					switch rng.Intn(5) {
					case 0: // lane
					case 1:
						d = time.Duration(rng.Int63n(int64(epochWidth)))
					case 2:
						d = time.Duration(rng.Int63n(int64(ringSpan)))
					case 3:
						d = ringSpan + time.Duration(rng.Int63n(int64(3*ringSpan)))
					case 4: // coarse, for ties across tiers
						d = time.Duration(rng.Intn(8)) * ringSpan / 4
					}
					p.push(p.q.now + d)
				}
				for i := rng.Intn(10); i > 0 && p.ref.Len() > 0; i-- {
					p.pop()
				}
			}
			p.drain()
		}
	})

	// Exact ties on both sides of an epoch boundary, pushed from far away
	// (ring), from the epoch before (ring, one epoch ahead), and at the
	// instant itself (lane): seq alone must order each group.
	t.Run("ties straddling an epoch boundary", func(t *testing.T) {
		p := &queuePair{t: t}
		edge := 40 * epochWidth
		last, first := edge-1, edge // last instant of epoch 39, first of 40
		for i := 0; i < 8; i++ {
			p.push(first)
			p.push(last)
		}
		p.push(edge + ringSpan) // an overflow entry that joins the ring's window later
		p.runUntil(last - epochWidth/2)
		for i := 0; i < 8; i++ {
			p.push(last)
			p.push(first)
		}
		p.pop() // the clock is now at last: further pushes for it take the lane
		for i := 0; i < 4; i++ {
			p.push(last)
			p.push(first)
		}
		p.runUntil(last)
		for i := 0; i < 4; i++ {
			p.push(first)
		}
		p.pop() // clock at first
		p.push(first)
		p.push(first + 1)
		p.drain()
	})

	// RunUntil stops between epochs with only the far tier occupied: the
	// look-ahead may load a later epoch, and events scheduled into the gap
	// afterwards must still come first.
	t.Run("bound between epochs", func(t *testing.T) {
		p := &queuePair{t: t}
		p.push(time.Millisecond)
		p.push(100 * time.Millisecond)
		p.push(2 * ringSpan)
		p.runUntil(50 * time.Millisecond)
		if p.q.now != 50*time.Millisecond || p.q.Len() != 2 {
			t.Fatalf("after runUntil(50ms): now %v, %d pending", p.q.now, p.q.Len())
		}
		p.push(50 * time.Millisecond)
		p.push(60 * time.Millisecond)
		p.push(100 * time.Millisecond)
		p.push(50 * time.Millisecond)
		p.runUntil(99 * time.Millisecond)
		p.push(99 * time.Millisecond)
		p.push(2*ringSpan - 1)
		p.drain()
	})

	// Idle gaps: the next event sits almost a full ring ahead, so the
	// bitmap scan wraps around the ring's end, from every few start
	// positions; then gaps longer than the ring, which only the overflow
	// heap can hold.
	t.Run("idle gaps", func(t *testing.T) {
		p := &queuePair{t: t}
		for i := 0; i < 300; i++ {
			gap := ringSpan - epochWidth - time.Duration(i)*7*epochWidth/3
			if i%3 == 2 {
				gap = ringSpan + time.Duration(i)*epochWidth
			}
			p.push(p.q.now + gap)
			p.push(p.q.now + gap)
			for d := -epochWidth; d <= epochWidth; d += epochWidth {
				p.push(p.q.now + ringSpan + d) // the ring's last epoch and the first past it
			}
			if i%2 == 0 {
				p.runUntil(p.q.now + gap/2)
				p.push(p.q.now + gap) // clock advanced past cur: beyond the first two
			}
			p.drain()
		}
	})

	// Reserved ranks: events scheduled later than their rank was taken,
	// as a client arming only its oldest deadline does. They land in every
	// tier, including the current instant while the lane holds fresher
	// events (they must still go first), and in an epoch whose run was
	// sorted before they arrived (they merge from the heap).
	t.Run("reserved ranks", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			p := &queuePair{t: t}
			for round := 0; round < 200; round++ {
				for i := rng.Intn(8); i > 0; i-- {
					switch rng.Intn(4) {
					case 0:
						p.reserve()
					case 1:
						p.push(p.q.now)
					case 2:
						p.push(p.q.now + time.Duration(rng.Int63n(int64(4*epochWidth))))
					case 3:
						var d time.Duration
						switch rng.Intn(4) {
						case 1:
							d = time.Duration(rng.Int63n(int64(epochWidth)))
						case 2:
							d = time.Duration(rng.Int63n(int64(ringSpan)))
						case 3:
							d = ringSpan + time.Duration(rng.Int63n(int64(ringSpan)))
						}
						p.pushReserved(p.q.now + d)
					}
				}
				for i := rng.Intn(6); i > 0 && p.ref.Len() > 0; i-- {
					p.pop()
				}
			}
			p.drain()
		}
	})

	t.Run("reserved rank at now behind the lane", func(t *testing.T) {
		p := &queuePair{t: t}
		p.reserve()
		p.reserve()
		p.push(epochWidth / 2)
		p.pop()         // clock at epochWidth/2
		p.push(p.q.now) // lane
		p.push(p.q.now) // lane
		p.pushReserved(p.q.now)
		p.reserve()
		p.push(p.q.now)         // lane, after the third rank
		p.pushReserved(p.q.now) // ahead of every lane entry
		p.pushReserved(p.q.now) // between the second and third lane entry
		p.drain()
	})

	t.Run("run and heap in one epoch", func(t *testing.T) {
		p := &queuePair{t: t}
		for i := 0; i < 4; i++ {
			p.reserve()
		}
		base := 10 * epochWidth
		for i := 0; i < 100; i++ { // from the ring into one run, with ties
			p.push(base + time.Duration(i%7)*epochWidth/8)
		}
		p.take(base) // the epoch is current: its run is sorted
		for i := 0; i < 4; i++ {
			p.pushReserved(base + time.Duration(i)*epochWidth/8) // heap, ahead of the run's ties
			p.push(base + time.Duration(i)*epochWidth/8)         // heap, behind them
			p.pop()
		}
		p.drain()
	})
}

// TestPendingCountsEveryTier holds Pending() to the number of scheduled,
// undispatched events wherever the queue keeps them.
func TestPendingCountsEveryTier(t *testing.T) {
	s := NewSim(1)
	s.Schedule(0, s.Stop)                    // lane
	s.Schedule(epochWidth/2, s.Stop)         // near
	s.Schedule(10*epochWidth, s.Stop)        // ring
	s.Schedule(ringSpan/2, s.Stop)           // ring
	s.Schedule(3*ringSpan, s.Stop)           // overflow
	s.Schedule(3*ringSpan+time.Hour, s.Stop) // overflow
	for want := 6; want > 0; want-- {
		if s.Pending() != want {
			t.Fatalf("Pending() = %d, want %d", s.Pending(), want)
		}
		s.Run() // one event: each stops the loop
		s.Resume()
	}
	if s.Pending() != 0 || s.Now() != 3*ringSpan+time.Hour {
		t.Fatalf("drained: Pending() = %d at %v", s.Pending(), s.Now())
	}
}

// FuzzEventQueueOrder decodes a byte stream into pushes (into every tier,
// and behind the clock), reserved ranks scheduled later, pops and
// RunUntil-style advances, and compares the queue with the reference heap
// after every step.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 200, 2, 9, 3, 4, 4, 1, 6, 6, 7, 3, 6, 6})
	f.Add([]byte{3, 255, 3, 254, 7, 1, 0, 0, 0, 0, 6, 6, 6, 5, 9, 6})
	f.Add([]byte{2, 0, 2, 0, 2, 1, 7, 0, 0, 0, 2, 0, 6, 6, 6, 6, 6})
	f.Add([]byte{8, 0, 8, 0, 1, 3, 6, 0, 0, 0, 0, 0, 9, 0, 9, 1, 6, 0, 6, 0, 6, 0, 6, 0})
	f.Add([]byte{8, 0, 8, 0, 8, 0, 3, 40, 3, 40, 3, 41, 6, 0, 9, 2, 9, 200, 9, 0, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &queuePair{t: t}
		for len(data) >= 2 {
			op, arg := data[0]%10, time.Duration(data[1])
			data = data[2:]
			switch op {
			case 0: // the current instant
				p.push(p.q.now)
			case 1: // within an epoch or two
				p.push(p.q.now + arg*epochWidth/128)
			case 2: // an epoch boundary, a few epochs out
				p.push((p.q.now/epochWidth + 1 + arg%4) * epochWidth)
			case 3: // anywhere in the ring, and a little past it
				p.push(p.q.now + arg*ringSpan/250)
			case 4: // past the ring
				p.push(p.q.now + ringSpan + arg*ringSpan/16)
			case 5: // behind the clock
				if at := p.q.now - arg*epochWidth/16; at >= 0 {
					p.push(at)
				}
			case 6:
				if p.ref.Len() > 0 {
					p.pop()
				}
			case 7:
				p.runUntil(p.q.now + arg*arg*epochWidth/64)
			case 8: // take a rank for later
				p.reserve()
			case 9: // schedule later with an earlier rank: now (behind the lane), near, ring
				p.pushReserved(p.q.now + (arg%3)*arg*epochWidth/64)
			}
		}
		p.drain()
	})
}

// TestSimDispatchTraceIdentical runs the same randomized self-scheduling
// workload twice on two Sims with the same seed and asserts the dispatch
// traces (event times, in order) are identical — the replayability
// guarantee experiments rely on — and that the clock never runs backwards
// even under same-instant re-scheduling.
func TestSimDispatchTraceIdentical(t *testing.T) {
	runTrace := func(seed int64) []time.Duration {
		s := NewSim(seed)
		var trace []time.Duration
		var spawn func()
		remaining := 2000
		spawn = func() {
			trace = append(trace, s.Now())
			if remaining == 0 {
				return
			}
			remaining--
			// Bias toward zero-delay re-arming to stress the FIFO
			// tie-break among simultaneous events.
			d := time.Duration(s.Rand().Intn(4)) * time.Millisecond
			s.After(d, spawn)
		}
		for i := 0; i < 32; i++ {
			s.Schedule(time.Duration(s.Rand().Intn(10))*time.Millisecond, spawn)
		}
		s.Run()
		return trace
	}
	for seed := int64(1); seed <= 5; seed++ {
		a, b := runTrace(seed), runTrace(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(a), len(b))
		}
		prev := time.Duration(-1)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: trace diverges at event %d: %v vs %v", seed, i, a[i], b[i])
			}
			if a[i] < prev {
				t.Fatalf("seed %d: clock went backwards at event %d: %v after %v", seed, i, a[i], prev)
			}
			prev = a[i]
		}
	}
}
