package obs

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/msg"
)

// eagerRing is the reference model of the event ring: one slice of the
// full capacity, allocated up front, written at next and wrapped when full.
type eagerRing struct {
	ring []Event
	next int
	full bool
}

func (q *eagerRing) add(e Event) {
	if len(q.ring) == 0 {
		return
	}
	q.ring[q.next] = e
	q.next = (q.next + 1) % len(q.ring)
	if q.next == 0 {
		q.full = true
	}
}

func (q *eagerRing) events() []Event {
	var out []Event
	if q.full {
		out = append(out, q.ring[q.next:]...)
	}
	return append(out, q.ring[:q.next]...)
}

func (q *eagerRing) lastEventFor(addr msg.Addr) (Event, bool) {
	evs := q.events()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Addr == addr {
			return evs[i], true
		}
	}
	return Event{}, false
}

// ringCapacities are the capacities the ring fuzz target selects from:
// empty, tiny, either side of one chunk, and the coverage runs' 4096.
var ringCapacities = [...]int{0, 1, ringChunk - 1, ringChunk, ringChunk + 1, 4096}

// ringEventCount turns a fuzz mode and count into a number of events below,
// at, or far past the capacity.
func ringEventCount(capacity int, mode uint8, n uint16) int {
	switch mode % 4 {
	case 0:
		return int(n) % (capacity + 1) // at most the capacity
	case 1:
		return capacity
	case 2:
		return capacity + int(n)%(capacity+1) // past it, up to twice over
	default:
		return 3*capacity + int(n) // wrapped several times
	}
}

// FuzzRecorderRing feeds the same event stream into a Recorder and into the
// eager reference ring, then requires identical Events() and LastEventFor
// answers. The first byte picks the capacity, the second how many events
// to emit relative to it; the remaining bytes supply the lines touched and
// the event kinds, cycled to the chosen length.
//
// resetAt picks a point in the stream, possibly after the ring wrapped, at
// which the recorder is Reset; math.MaxUint16 means it never is, so those
// seeds check the whole stream against the reference. From there the
// reference ring starts empty, and a fresh recorder is fed the rest of the
// stream: the reset recorder must then hold the same events, answer
// LastEventFor and report Metrics() exactly as the fresh one does.
func FuzzRecorderRing(f *testing.F) {
	for c := range ringCapacities {
		for mode := uint8(0); mode < 4; mode++ {
			f.Add(uint8(c), mode, uint16(1000+37*c), uint16(math.MaxUint16), []byte{1, 2, 3, 1, 7, 0, 250})
			f.Add(uint8(c), mode, uint16(1000+37*c), uint16(300*c+7*int(mode)), []byte{130, 2, 194, 131, 7, 0, 195})
		}
	}
	f.Fuzz(func(t *testing.T, capSel, mode uint8, n, resetAt uint16, lines []byte) {
		if len(lines) == 0 {
			lines = []byte{0}
		}
		capacity := ringCapacities[int(capSel)%len(ringCapacities)]
		count := ringEventCount(capacity, mode, n)
		reset := count + 1 // never reached: no reset
		if resetAt != math.MaxUint16 {
			reset = int(resetAt) % (count + 1)
		}

		var cycle uint64
		clock := func() uint64 { return cycle }
		r := NewRecorder(capacity)
		ref := &eagerRing{ring: make([]Event, capacity)}
		r.SetClock(clock)
		r.SetSink(func(e Event) { ref.add(e) })
		var fresh *Recorder // fed the events after the reset
		for i := 0; i < count; i++ {
			if i == reset {
				r.Reset()
				ref = &eagerRing{ring: make([]Event, capacity)}
				fresh = NewRecorder(capacity)
				fresh.SetClock(clock)
				fresh.SetSink(func(Event) {})
			}
			cycle = uint64(i / 3)
			b := lines[i%len(lines)]
			for _, rec := range []*Recorder{r, fresh} {
				feedRing(rec, i, b)
			}
		}
		if reset == count {
			r.Reset()
			ref = &eagerRing{ring: make([]Event, capacity)}
			fresh = NewRecorder(capacity)
		}

		if got, want := r.Events(), ref.events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("capacity %d, %d events, reset at %d: Events() holds %d events, reference %d (or they differ)",
				capacity, count, reset, len(got), len(want))
		}
		for a := msg.Addr(0); a <= 16; a++ { // line 16 is never touched
			got, gotOK := r.LastEventFor(a * 0x40)
			want, wantOK := ref.lastEventFor(a * 0x40)
			if gotOK != wantOK || got != want {
				t.Fatalf("capacity %d, %d events, reset at %d: LastEventFor(%#x) = %+v, %v; reference %+v, %v",
					capacity, count, reset, a*0x40, got, gotOK, want, wantOK)
			}
			if fresh == nil {
				continue
			}
			if fe, ok := fresh.LastEventFor(a * 0x40); ok != gotOK || fe != got {
				t.Fatalf("capacity %d, %d events, reset at %d: LastEventFor(%#x) = %+v, %v; a fresh recorder's %+v, %v",
					capacity, count, reset, a*0x40, got, gotOK, fe, ok)
			}
		}
		if fresh == nil {
			return
		}
		if got, want := r.Events(), fresh.Events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("capacity %d, %d events, reset at %d: Events() holds %d events, a fresh recorder %d (or they differ)",
				capacity, count, reset, len(got), len(want))
		}
		if got, want := r.Metrics(), fresh.Metrics(); !reflect.DeepEqual(got, want) {
			t.Fatalf("capacity %d, %d events, reset at %d: Metrics() = %+v, a fresh recorder's %+v",
				capacity, count, reset, got, want)
		}
	})
}

// feedRing emits event i of the fuzzed stream, of a kind and line picked by
// b, into r (nothing if r is nil). The kinds cover the ring, the per-type
// counters, both recovery-window ends and the timeout counters.
func feedRing(r *Recorder, i int, b byte) {
	if r == nil {
		return
	}
	addr := msg.Addr(b%16) * 0x40
	switch b >> 6 {
	case 0:
		r.StateChange("l1", msg.NodeID(b%4), addr, msg.TID(i), "I", "S")
	case 1:
		r.TimeoutFired("l2", msg.NodeID(b%4), addr, 0, TimeoutLostRequest)
	case 2:
		r.MessageDropped(&msg.Message{Type: msg.GetX, Src: 1, Dst: 2, Addr: addr})
	default:
		r.TransactionEnd("mem", 3, addr, 0) // closes open windows: recover events
	}
}

// TestRingAllocatesOnDemand pins the point of the chunked ring: storage
// appears one chunk at a time as events arrive, so a short run with a
// large capacity allocates only what it emitted into.
func TestRingAllocatesOnDemand(t *testing.T) {
	r := NewRecorder(4096)
	allocated := func() (n int) {
		for _, c := range r.chunks {
			if c != nil {
				n++
			}
		}
		return n
	}
	if n := allocated(); n != 0 {
		t.Fatalf("fresh recorder holds %d chunks, want 0", n)
	}
	for i := 0; i < ringChunk+1; i++ {
		r.StateChange("l1", 1, 0x40, 0, "I", "S")
	}
	if n := allocated(); n != 2 {
		t.Fatalf("after %d events the ring holds %d chunks, want 2", ringChunk+1, n)
	}
	for i := 0; i < 4096; i++ {
		r.StateChange("l1", 1, 0x40, 0, "I", "S")
	}
	if n := allocated(); n != 4 {
		t.Fatalf("a wrapped ring holds %d chunks, want 4", n)
	}
	if got := len(r.Events()); got != 4096 {
		t.Fatalf("wrapped ring returns %d events, want 4096", got)
	}

	// Any capacity, up to the largest int, costs nothing up front.
	huge := NewRecorder(math.MaxInt)
	huge.StateChange("l1", 1, 0x40, 0, "I", "S")
	if len(huge.chunks) != 1 || len(huge.Events()) != 1 {
		t.Fatalf("a maximal-capacity ring holds %d chunks and %d events, want 1 and 1", len(huge.chunks), len(huge.Events()))
	}
}

// TestEventIs136Bytes pins the event size the ring chunks are sized by:
// every recorder with a capacity allocates ringChunk of them at a time, so
// a wider event costs each coverage run's first chunk directly.
func TestEventIs136Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 136 {
		t.Fatalf("obs.Event is %d bytes, want 136", got)
	}
}
