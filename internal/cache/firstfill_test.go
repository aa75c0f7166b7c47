package cache

import (
	"math/bits"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/msg"
)

// Storage on first fill: an Array allocates its set table in the first
// Victim call and each set's frames in that set's first fill, and a Table
// allocates its map in the first Alloc. These tests pin that the untouched
// structures behave as empty ones, and that the set-granular frames pick
// exactly the frames a fully allocated set-of-ways layout would.

func TestUntouchedArrayIsEmpty(t *testing.T) {
	a, err := NewArray(32*1024, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.sets != nil || a.spare != nil {
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
	if a.sets != nil || a.spare != nil {
		t.Fatal("Lookup/ForEach/Count allocated frames")
	}
	n := testing.AllocsPerRun(10, func() {
		a.Lookup(0x40)
		a.ForEach(func(*Line) { visited++ })
		a.Count()
	})
	if n != 0 {
		t.Fatalf("Lookup/ForEach/Count on an untouched array: %.0f allocs, want 0", n)
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
		set := int(uint64(addr) / line % sets)
		if len(a.sets) != sets {
			t.Fatalf("first Victim built a set table of %d sets, want %d", len(a.sets), sets)
		}
		for s := range a.sets {
			want := 0
			if s == set {
				want = ways
			}
			if len(a.sets[s]) != want {
				t.Fatalf("after Victim(%#x): set %d holds %d frames, want %d", addr, s, len(a.sets[s]), want)
			}
		}
		if a.filled != 1 || len(a.spare) != 0 {
			t.Fatalf("first Victim: %d sets filled and %d spare frames, want 1 and 0", a.filled, len(a.spare))
		}
		if want := &a.sets[set][0]; v != want {
			t.Fatalf("Victim(%#x) = frame %d, want way 0 of set %d (frame %d)", addr, frameIndex(a, v), set, set*ways)
		}
		if v.Valid {
			t.Fatalf("Victim(%#x) on a fresh array returned a valid frame", addr)
		}
	}
}

// TestSetFramesGrowByDoubling fills every set of an array in turn and
// checks the frame budget: chunks of 1, 1, 2, 4, … sets, capped at the sets
// still empty, so the array never holds more than sets*ways frames in all,
// and every frame keeps its address while later sets are carved.
func TestSetFramesGrowByDoubling(t *testing.T) {
	for _, sets := range []int{1, 2, 8, 16, 128} {
		const ways, line = 4, 64
		a, err := NewArray(sets*ways*line, ways, line)
		if err != nil {
			t.Fatal(err)
		}
		var held []*Line
		chunks := 0
		for s := 0; s < sets; s++ {
			hadSpare := len(a.spare) > 0
			v := a.Victim(msg.Addr(s*line), nil)
			if !hadSpare {
				chunks++
				if want := min(max(s, 1), sets-s) * ways; len(a.spare)+ways != want {
					t.Fatalf("%d sets: chunk carved at fill %d holds %d frames, want %d", sets, s, len(a.spare)+ways, want)
				}
			}
			v.Reset(msg.Addr(s * line))
			held = append(held, v)
			for i, l := range held {
				if a.Lookup(msg.Addr(i*line)) != l {
					t.Fatalf("%d sets: frame of set %d moved after filling set %d", sets, i, s)
				}
			}
		}
		if len(a.spare) != 0 || a.Count() != sets {
			t.Fatalf("%d sets: %d spare frames and %d valid lines after filling every set, want 0 and %d", sets, len(a.spare), a.Count(), sets)
		}
		if want := bits.Len(uint(sets)); chunks != want {
			t.Fatalf("%d sets: %d chunks, want %d", sets, chunks, want)
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

// frameIndex returns l's position in the flat (set, way) order, set*ways +
// way, or -1 when l is not one of a's frames.
func frameIndex(a *Array, l *Line) int {
	for s, set := range a.sets {
		for w := range set {
			if &set[w] == l {
				return s*int(a.ways) + w
			}
		}
	}
	return -1
}

// TestSetFramesMatchReferenceGeometry drives the same random
// hit/fill/evict/invalidate sequence through an Array and the reference
// geometry and requires the identical frame — set and way — on every fill.
func TestSetFramesMatchReferenceGeometry(t *testing.T) {
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
	if tb.live != nil {
		t.Fatal("NewTable allocated its live slice before the first Alloc")
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
	if tb.live != nil {
		t.Fatal("Get/Free/Len/ForEach allocated the live slice")
	}
	if e := tb.Alloc(0x40); e == nil || tb.Get(0x40) != e || tb.Len() != 1 {
		t.Fatal("first Alloc did not create a retrievable entry")
	}
	// The first Alloc sizes the slice once: for the table's capacity when
	// that is below tableInitCap, for tableInitCap otherwise.
	if got := cap(tb.live); got != 4 {
		t.Fatalf("first Alloc of a 4-entry table made room for %d entries, want 4", got)
	}
	unbounded := NewTable[int](0)
	unbounded.Alloc(0x40)
	if got := cap(unbounded.live); got != tableInitCap {
		t.Fatalf("first Alloc of an unbounded table made room for %d entries, want %d", got, tableInitCap)
	}
}

// TestArrayHeaderIs64Bytes pins the Array header at one 64-byte size
// class, as it was with one flat frame slice: every system builds an array
// per cache, filled or not.
func TestArrayHeaderIs64Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Array{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Array{}) = %d, want 64", got)
	}
}
