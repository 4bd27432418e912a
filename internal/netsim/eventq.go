package netsim

import (
	"math/bits"
	"slices"
	"time"
)

// eventQueue dispatches events in the strict total order (at, seq). seq is
// unique and rises with every push, so the pop sequence is fully determined
// by the schedule and independent of how the queue stores events — which is
// what lets the storage below change without moving a digest.
//
// Callbacks live in a slab of slots; the queue's tiers hold slot indices:
//
//   - lane: events pushed with a fresh seq for the current instant
//     (at == now), a FIFO threaded through the slab. A fresh seq is the
//     highest yet, so such an event sorts after everything already queued
//     for that instant and before everything later: appending keeps the
//     order, no comparison needed. Zero-delay hand-offs and a bounded
//     link's dequeue events take it. An event pushed with a seq reserved
//     earlier never does: it may rank ahead of the lane's entries.
//
//   - near: the events of the current epoch (and any earlier one), as two
//     sorted sources of pointer-free keys merged at pop. An epoch is a
//     2^epochShift ns slice of virtual time. The run holds what the epoch
//     had when it became current, sorted once, latest first, so a pop is a
//     slice shrink. The 4-ary min-heap takes what is pushed into the epoch
//     after that. Keys carry (at, seq) inline, so neither sorting nor
//     sifting touches the slab or a GC write barrier, and both stay as
//     small as one epoch's events however many timers stand further out.
//
//   - far: events in the next ringEpochs-1 epochs wait in one unordered
//     list per epoch, threaded through the slab, with a bitmap of non-empty
//     epochs. Pushing is O(1). When near and lane run dry the earliest
//     non-empty epoch becomes current and its list is sorted into the run.
//     A timer parked 100 ms out costs two list operations until its epoch
//     comes up, not a sift through every pop in between.
//
//   - overflow: a second key heap for events beyond the ring; its entries
//     join the run when their epoch becomes current.
//
// All tiers index the same slab, so memory is one slot per pending event
// plus the fixed ring; per-epoch slices would keep every epoch's peak.
//
// The queue owns the virtual clock: the lane's invariant (every lane entry
// is at now, and now does not move while the lane is occupied) ties the two
// together.
type eventQueue struct {
	now time.Duration
	n   int // events pending across all tiers

	slots []slot // slots[0] is unused: index 0 means "none"
	free  int32  // free-slot list through slot.next

	laneHead, laneTail int32

	run  []key // near's sorted part, latest first: the next is the last
	near keyHeap
	cur  int64 // current epoch: run and near hold every pending event at or before it

	ring     [ringEpochs]int32 // list head per far epoch, indexed by epoch & ringMask
	occupied [ringEpochs / 64]uint64
	overflow keyHeap
}

const (
	// epochShift sets the epoch width, 2^17 ns ≈ 131 µs: a few packet hops
	// and service times, so near holds tens of events under the loads the
	// experiments run.
	epochShift = 17
	// ringEpochs × width ≈ 268 ms covers request timeouts and RTOs; control
	// ticks and fault schedules further out take the overflow heap.
	ringEpochs = 2048
	ringMask   = ringEpochs - 1
)

func epochOf(at time.Duration) int64 { return int64(at) >> epochShift }

// slot is one pending event. next links the free list, the lane, or a far
// epoch's list, whichever the slot is on.
type slot struct {
	fn   func()
	at   time.Duration
	seq  uint64
	next int32
}

// key is a heap entry: the ordering fields inline, the callback by slot.
type key struct {
	at   time.Duration
	seq  uint64
	slot int32
}

func (k *key) before(o *key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

func (q *eventQueue) Len() int { return q.n }

// push queues e. fresh says e.seq is higher than every seq pushed before,
// which lets an event for the current instant take the lane. No allocation
// occurs beyond amortized slab and heap growth.
func (q *eventQueue) push(e event, fresh bool) {
	i := q.free
	if i != 0 {
		q.free = q.slots[i].next
	} else {
		if len(q.slots) == 0 {
			q.slots = append(q.slots, slot{})
		}
		i = int32(len(q.slots))
		q.slots = append(q.slots, slot{})
	}
	q.n++
	s := &q.slots[i]
	s.fn, s.at, s.seq, s.next = e.fn, e.at, e.seq, 0
	switch ep := epochOf(e.at); {
	case ep > q.cur:
		if ep-q.cur >= ringEpochs {
			q.overflow.push(key{e.at, e.seq, i})
			break
		}
		r := ep & ringMask
		s.next = q.ring[r]
		q.ring[r] = i
		q.occupied[r>>6] |= 1 << (r & 63)
	case e.at == q.now && fresh:
		if q.laneHead == 0 {
			q.laneHead = i
		} else {
			q.slots[q.laneTail].next = i
		}
		q.laneTail = i
	default:
		q.near.push(key{e.at, e.seq, i})
	}
}

// popUntil removes and returns the next event if there is one at or before
// limit, and moves the clock to it.
func (q *eventQueue) popUntil(limit time.Duration) (event, bool) {
	k, inRun := q.nearMin()
	if q.laneHead != 0 {
		// Every lane entry is at now. A near entry before now, or at now
		// with a lower seq, goes first: it was pushed before now took its
		// value, or with a seq reserved before then.
		if k == nil || k.at > q.now || k.at == q.now && k.seq > q.slots[q.laneHead].seq {
			if q.now > limit {
				return event{}, false
			}
			i := q.laneHead
			q.laneHead = q.slots[i].next
			return q.release(i), true
		}
	} else if k == nil {
		if !q.nextEpoch() {
			return event{}, false
		}
		k, inRun = q.nearMin()
	}
	if k.at > limit {
		return event{}, false
	}
	at, i := k.at, k.slot
	if inRun {
		q.run = q.run[:len(q.run)-1]
	} else {
		q.near.pop()
	}
	if at > q.now {
		q.now = at
	}
	return q.release(i), true
}

// nearMin returns the earlier of the run's next key and the heap's root, and
// whether it is the run's; nil when both are empty.
func (q *eventQueue) nearMin() (*key, bool) {
	var k *key
	if n := len(q.run); n > 0 {
		k = &q.run[n-1]
	}
	if len(q.near) > 0 && (k == nil || q.near[0].before(k)) {
		return &q.near[0], false
	}
	return k, k != nil
}

// release returns slot i's event and puts the slot on the free list.
func (q *eventQueue) release(i int32) event {
	s := &q.slots[i]
	e := event{at: s.at, seq: s.seq, fn: s.fn}
	s.fn = nil // drop the reference so the closure can be collected
	s.next = q.free
	q.free = i
	q.n--
	return e
}

// nextEpoch makes the earliest non-empty far epoch current and sorts it into
// the run; run and near must be empty. It reports false when far is empty
// too.
func (q *eventQueue) nextEpoch() bool {
	ep, ok := q.nextRingEpoch()
	if len(q.overflow) > 0 {
		if o := epochOf(q.overflow[0].at); !ok || o < ep {
			ep, ok = o, true
		}
	}
	if !ok {
		return false
	}
	// Everything left in far is later than ep, so the ring's window moves
	// with cur: the slots it exposes are the empty ones behind ep.
	q.cur = ep
	r := ep & ringMask // holds ep's list, or nothing if ep came from overflow
	run := q.run[:0]
	for i := q.ring[r]; i != 0; i = q.slots[i].next {
		s := &q.slots[i]
		run = append(run, key{s.at, s.seq, i})
	}
	q.ring[r] = 0
	q.occupied[r>>6] &^= 1 << (r & 63)
	for len(q.overflow) > 0 && epochOf(q.overflow[0].at) == ep {
		run = append(run, q.overflow[0])
		q.overflow.pop()
	}
	sortLatestFirst(run)
	q.run = run
	return true
}

// insertionSortMax bounds the runs sorted by insertion; longer ones go to
// slices.SortFunc. The DST population's runs hold 3–30 keys. An epoch's
// list is pushed at its head, so timers armed in time order arrive latest
// first already and cost one comparison each.
const insertionSortMax = 48

// sortLatestFirst sorts keys in descending (at, seq) order.
func sortLatestFirst(ks []key) {
	if len(ks) > insertionSortMax {
		slices.SortFunc(ks, func(a, b key) int {
			switch {
			case b.before(&a):
				return -1
			case a.before(&b):
				return 1
			}
			return 0
		})
		return
	}
	for i := 1; i < len(ks); i++ {
		k := ks[i]
		j := i
		for ; j > 0 && ks[j-1].before(&k); j-- {
			ks[j] = ks[j-1]
		}
		ks[j] = k
	}
}

// nextRingEpoch scans the occupancy bitmap forward from cur+1, wrapping.
func (q *eventQueue) nextRingEpoch() (int64, bool) {
	start := uint64(q.cur+1) & ringMask
	w := start >> 6
	word := q.occupied[w] &^ (1<<(start&63) - 1)
	for i := 0; i <= len(q.occupied); i++ {
		if word != 0 {
			r := w<<6 + uint64(bits.TrailingZeros64(word))
			return q.cur + 1 + int64((r-start)&ringMask), true
		}
		w = (w + 1) % uint64(len(q.occupied))
		word = q.occupied[w]
	}
	return 0, false
}

// keyHeap is a 4-ary min-heap of keys: half a binary heap's depth for a few
// more comparisons per level, all within the two cache lines four sibling
// keys span.
type keyHeap []key

func (h *keyHeap) push(k key) {
	*h = append(*h, k)
	h.siftUp(len(*h) - 1)
}

// pop removes the minimum, (*h)[0].
func (h *keyHeap) pop() {
	ks := *h
	n := len(ks) - 1
	ks[0] = ks[n]
	*h = ks[:n]
	if n > 1 {
		h.siftDown(0)
	}
}

// siftUp restores the heap property from leaf i toward the root. The moved
// key is held in a register and written once at its final position (hole
// percolation) instead of swapping at every level.
func (h keyHeap) siftUp(i int) {
	k := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !k.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
}

// siftDown restores the heap property from i downward, again percolating a
// hole rather than swapping.
func (h keyHeap) siftDown(i int) {
	n := len(h)
	k := h[i]
	for {
		c := i*4 + 1 // first child
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&k) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = k
}
