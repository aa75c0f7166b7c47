package sim

import "math/bits"

// The event queue: a ring of cycle buckets for the near future plus an
// overflow heap for everything later (see the package comment for why the
// pair fires events in exactly (at, seq) order).
//
// Event payloads live in a slab and never move once queued. A ring bucket
// is a circular FIFO list threaded through the slab's next links: the
// engine keeps only the bucket's tail, whose next is the head. Free slab
// slots form a second list through the same links. The overflow heap
// orders {at, seq, slot} keys, so a sift swaps 24 bytes instead of a whole
// event.

const (
	ringBits = 6
	// ringSize is W, the ring's horizon in cycles: an event due fewer than
	// W cycles ahead goes to a bucket, a later one to the overflow heap.
	// occ has one bit per bucket, so W is at most 64.
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// slot is one queued event: the handler fn with its argument and tick.
// timer marks a Timer firing (arg is the *Timer, tick its arming epoch), so
// compaction can recognise superseded ones. choice marks the event as a
// model-checking decision point (see choice.go): key identifies its ordered
// channel, info carries an opaque payload for the chooser, and dropFn is
// the alternative callback fired when the chooser decides to lose the event
// instead of delivering it. next links the slot into its ring bucket or
// into the free list; it is unused while the slot sits in the overflow
// heap.
type slot struct {
	at     uint64
	seq    uint64
	fn     func(arg any, tick uint64)
	arg    any
	tick   uint64
	key    uint64
	info   uint64
	dropFn func(arg any, tick uint64)
	next   int32
	choice bool
	timer  bool
}

// overflowKey orders one overflow event in the heap; slot indexes its
// payload in the slab.
type overflowKey struct {
	at, seq uint64
	slot    int32
}

// overflowHeap is a binary min-heap of keys ordered by (at, seq).
type overflowHeap []overflowKey

func (h overflowHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *overflowHeap) push(k overflowKey) {
	*h = append(*h, k)
	h.siftUp(len(*h) - 1)
}

// siftUp moves the key at i up until its parent is not larger.
func (h overflowHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown moves the key at i down until neither child is smaller and
// returns its final index.
func (h overflowHeap) siftDown(i int) int {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return i
}

// removeAt removes the key at index i, restoring the heap property: the
// last key moves into the hole and sifts down, else up.
func (h *overflowHeap) removeAt(i int) {
	q := *h
	n := len(q) - 1
	q[i] = q[n]
	q = q[:n]
	*h = q
	if i < n && q.siftDown(i) == i {
		q.siftUp(i)
	}
}

// heapify restores the heap property over arbitrary contents bottom-up,
// sifting down from the last parent to the root. (Sifting each key up or
// down in place would be wrong: a sift-up swaps a key with a parent not
// yet processed, stranding that parent above smaller children.)
func (h overflowHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// schedule queues fn(arg, tick) at cycle at and returns its slot so the
// caller can mark timer and choice events. The pointer is valid until the
// next schedule.
func (e *Engine) schedule(at uint64, fn func(arg any, tick uint64), arg any, tick uint64) *slot {
	e.seq++
	e.pushes++
	i := e.free
	if i >= 0 {
		e.free = e.slab[i].next
	} else {
		if len(e.slab) == cap(e.slab) {
			e.grows++
		}
		i = int32(len(e.slab))
		e.slab = append(e.slab, slot{})
	}
	// Field by field, not as one composite literal, which would be built
	// on the stack and block-copied. release left dropFn nil; key and info
	// are read only when choice is set.
	s := &e.slab[i]
	s.at, s.seq, s.fn, s.arg, s.tick = at, e.seq, fn, arg, tick
	s.choice, s.timer = false, false
	e.queued++
	if at-e.now >= ringSize {
		e.overflow.push(overflowKey{at: at, seq: e.seq, slot: i})
		return s
	}
	b := at & ringMask
	if bit := uint64(1) << b; e.occ&bit == 0 {
		e.occ |= bit
		s.next = i
	} else {
		tail := &e.slab[e.tails[b]]
		s.next = tail.next
		tail.next = i
	}
	e.tails[b] = i
	return s
}

// release returns slot i to the free list. The callback and its argument
// are cleared so the slab does not keep them alive.
func (e *Engine) release(i int32) {
	s := &e.slab[i]
	s.fn, s.arg, s.dropFn = nil, nil, nil
	s.next = e.free
	e.free = i
	e.queued--
}

// peek returns the earliest queued event by (at, seq): its cycle, its slot,
// and whether it is the ring's (rather than the overflow heap's). The queue
// must not be empty. The ring's earliest event heads the first occupied
// bucket at or after now's; an overflow event due in the same cycle was
// scheduled before it, so the overflow heap wins ties.
func (e *Engine) peek() (at uint64, i int32, inRing bool) {
	if e.occ != 0 {
		at = e.now + uint64(bits.TrailingZeros64(bits.RotateLeft64(e.occ, -int(e.now&ringMask))))
		if len(e.overflow) == 0 || e.overflow[0].at > at {
			return at, e.slab[e.tails[at&ringMask]].next, true
		}
	}
	return e.overflow[0].at, e.overflow[0].slot, false
}

// unlink removes queued slot i from the overflow heap, where hidx is its
// index, or from its ring bucket when hidx is -1. The slot itself is not
// released.
func (e *Engine) unlink(i, hidx int32) {
	if hidx >= 0 {
		e.overflow.removeAt(int(hidx))
		return
	}
	b := e.slab[i].at & ringMask
	tail := e.tails[b]
	prev := tail
	for e.slab[prev].next != i {
		prev = e.slab[prev].next
	}
	if prev == i { // i was the bucket's only event
		e.occ &^= 1 << b
		return
	}
	e.slab[prev].next = e.slab[i].next
	if tail == i {
		e.tails[b] = prev
	}
}

// deadTimer reports whether slot i is a timer firing that timerFire would
// ignore.
func (e *Engine) deadTimer(i int32) bool {
	s := &e.slab[i]
	return s.timer && s.arg.(*Timer).dead(s.tick)
}

// compact removes every dead timer event from both structures — exactly
// the events timerFire would ignore. Ring buckets keep their survivors in
// FIFO order; the overflow heap filters its keys and rebuilds by heapify.
// Live events keep their (at, seq) keys, which order them totally, so the
// firing sequence is unchanged; only the no-op executions of dead events
// disappear.
func (e *Engine) compact() {
	for occ := e.occ; occ != 0; occ &= occ - 1 {
		b := bits.TrailingZeros64(occ)
		tail := e.tails[b]
		head, last := int32(-1), int32(-1)
		for i := e.slab[tail].next; ; {
			next, end := e.slab[i].next, i == tail
			if e.deadTimer(i) {
				e.release(i)
			} else {
				if last < 0 {
					head = i
				} else {
					e.slab[last].next = i
				}
				last = i
			}
			if end {
				break
			}
			i = next
		}
		if last < 0 {
			e.occ &^= 1 << b
			continue
		}
		e.slab[last].next = head
		e.tails[b] = last
	}
	q := e.overflow
	n := 0
	for _, k := range q {
		if e.deadTimer(k.slot) {
			e.release(k.slot)
			continue
		}
		q[n] = k
		n++
	}
	e.overflow = q[:n]
	e.overflow.heapify()
	e.stale = 0
}
