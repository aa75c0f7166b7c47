package cache

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/msg"
)

// Storage on first fill: an Array allocates its frames in the first
// Victim call and a Table its map in the first Alloc. These tests pin that
// the untouched structures behave as empty ones, and that the flat frame
// layout picks exactly the frames a set-of-ways layout would.

func TestUntouchedArrayIsEmpty(t *testing.T) {
	a, err := NewArray(32*1024, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.lines != nil {
		t.Fatal("NewArray allocated frames before the first fill")
	}
	for _, addr := range []msg.Addr{0, 0x40, 0x7fc0, 0x12340} {
		if l := a.Lookup(addr); l != nil {
			t.Fatalf("Lookup(%#x) on an untouched array = %+v, want nil", addr, l)
		}
	}
	visited := 0
	a.ForEach(func(*Line) { visited++ })
	if visited != 0 || a.Count() != 0 {
		t.Fatalf("untouched array: ForEach visited %d, Count = %d, want 0 and 0", visited, a.Count())
	}
	if a.lines != nil {
		t.Fatal("Lookup/ForEach/Count allocated frames")
	}
}

func TestFirstVictimIsWayZeroOfItsSet(t *testing.T) {
	const sets, ways, line = 128, 4, 64
	for _, addr := range []msg.Addr{0, 0x40, 37 * line, (sets + 5) * line, 0xfffc0} {
		a, err := NewArray(sets*ways*line, ways, line)
		if err != nil {
			t.Fatal(err)
		}
		v := a.Victim(addr, nil)
		if len(a.lines) != sets*ways {
			t.Fatalf("first Victim allocated %d frames, want %d", len(a.lines), sets*ways)
		}
		set := int(uint64(addr) / line % sets)
		if want := &a.lines[set*ways]; v != want {
			t.Fatalf("Victim(%#x) = frame %d, want way 0 of set %d (frame %d)", addr, frameIndex(a, v), set, set*ways)
		}
		if v.Valid {
			t.Fatalf("Victim(%#x) on a fresh array returned a valid frame", addr)
		}
	}
}

// refArray is the reference geometry: one slice of ways per set, with the
// replacement policy Array documents (first invalid way, else the
// least-recently-used evictable way).
type refArray struct {
	sets [][]refFrame
	line uint64
	tick uint64
}

type refFrame struct {
	addr  msg.Addr
	valid bool
	lru   uint64
}

func newRefArray(sets, ways int, line uint64) *refArray {
	r := &refArray{sets: make([][]refFrame, sets), line: line}
	for i := range r.sets {
		r.sets[i] = make([]refFrame, ways)
	}
	return r
}

func (r *refArray) setOf(addr msg.Addr) int { return int(uint64(addr) / r.line % uint64(len(r.sets))) }

// victim returns the (set, way) to fill for addr, or -1 when every way is
// pinned.
func (r *refArray) victim(addr msg.Addr, pinned func(msg.Addr) bool) (int, int) {
	s := r.setOf(addr)
	best := -1
	for w, f := range r.sets[s] {
		if !f.valid {
			return s, w
		}
		if pinned(f.addr) {
			continue
		}
		if best < 0 || f.lru < r.sets[s][best].lru {
			best = w
		}
	}
	return s, best
}

func frameIndex(a *Array, l *Line) int {
	for i := range a.lines {
		if &a.lines[i] == l {
			return i
		}
	}
	return -1
}

// TestFlatFramesMatchReferenceGeometry drives the same random
// hit/fill/evict/invalidate sequence through an Array and the reference
// geometry and requires the identical frame — set and way — on every fill.
func TestFlatFramesMatchReferenceGeometry(t *testing.T) {
	const sets, ways, line = 8, 4, 64
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, err := NewArray(sets*ways*line, ways, line)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefArray(sets, ways, line)
		pinnedAddr := msg.Addr(rng.Intn(64) * line)
		pinned := func(addr msg.Addr) bool { return addr == pinnedAddr }
		for step := 0; step < 2000; step++ {
			addr := msg.Addr(rng.Intn(64) * line)
			if l := a.Lookup(addr); l != nil {
				if rng.Intn(8) == 0 {
					// Invalidate: the frame becomes the set's first choice.
					l.Valid = false
					s := ref.setOf(addr)
					ref.sets[s][(frameIndex(a, l))%ways].valid = false
					continue
				}
				a.Touch(l)
				ref.tick++
				ref.sets[ref.setOf(addr)][frameIndex(a, l)%ways].lru = ref.tick
				continue
			}
			v := a.Victim(addr, func(l *Line) bool { return !pinned(l.Addr) })
			s, w := ref.victim(addr, pinned)
			if w < 0 {
				if v != nil {
					t.Fatalf("seed %d step %d: Victim(%#x) = frame %d, reference finds every way pinned", seed, step, addr, frameIndex(a, v))
				}
				continue
			}
			if got, want := frameIndex(a, v), s*ways+w; got != want {
				t.Fatalf("seed %d step %d: Victim(%#x) = frame %d, reference picks set %d way %d (frame %d)", seed, step, addr, got, s, w, want)
			}
			v.Reset(addr)
			a.Touch(v)
			ref.tick++
			ref.sets[s][w] = refFrame{addr: addr, valid: true, lru: ref.tick}
		}
		valid := 0
		for _, set := range ref.sets {
			for _, f := range set {
				if f.valid {
					valid++
				}
			}
		}
		if a.Count() != valid {
			t.Fatalf("seed %d: Count = %d, reference holds %d valid frames", seed, a.Count(), valid)
		}
	}
}

// TestLineIs64Bytes pins the frame layout: the two flags share the last
// word, so a frame fills exactly one 64-byte host cache line.
func TestLineIs64Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Line{}) = %d, want 64", got)
	}
}

func TestTableBeforeFirstAlloc(t *testing.T) {
	tb := NewTable[int](4)
	if tb.entries != nil {
		t.Fatal("NewTable allocated its map before the first Alloc")
	}
	if tb.Get(0x40) != nil {
		t.Fatal("Get on an empty table returned an entry")
	}
	tb.Free(0x40) // no entry: a no-op
	if tb.Len() != 0 || tb.Full() || tb.Peak() != 0 {
		t.Fatalf("empty table: Len %d Full %t Peak %d", tb.Len(), tb.Full(), tb.Peak())
	}
	visited := 0
	tb.ForEach(func(msg.Addr, *int) { visited++ })
	if visited != 0 {
		t.Fatalf("ForEach on an empty table visited %d entries", visited)
	}
	if tb.entries != nil {
		t.Fatal("Get/Free/Len/ForEach allocated the map")
	}
	if e := tb.Alloc(0x40); e == nil || tb.Get(0x40) != e || tb.Len() != 1 {
		t.Fatal("first Alloc did not create a retrievable entry")
	}
}
