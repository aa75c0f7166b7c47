package cache

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/msg"
)

func TestNewArrayGeometry(t *testing.T) {
	a, err := NewArray(32*1024, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sets() != 128 || a.Ways() != 4 || a.LineSize() != 64 {
		t.Fatalf("geometry %d sets / %d ways / %d line", a.Sets(), a.Ways(), a.LineSize())
	}
	bad := [][3]int{
		{0, 4, 64},
		{32 * 1024, 0, 64},
		{32 * 1024, 4, 0},
		{100, 4, 64},        // not divisible
		{3 * 64 * 4, 4, 64}, // 3 sets: not a power of two
		{4 * 48 * 4, 4, 48}, // line size not a power of two
		{64 * 70000, 70000, 64},
	}
	if bits.UintSize == 64 {
		shift := 32
		bad = append(bad, [3]int{64 << shift, 1, 64}) // 2^32 one-way sets
	}
	for _, g := range bad {
		if _, err := NewArray(g[0], g[1], g[2]); err == nil {
			t.Errorf("geometry %v accepted", g)
		}
	}
}

func TestLookupMissAndHit(t *testing.T) {
	a, err := NewArray(4*64*2, 2, 64) // 4 sets, 2 ways
	if err != nil {
		t.Fatal(err)
	}
	if a.Lookup(0x40) != nil {
		t.Fatal("hit in empty cache")
	}
	v := a.Victim(0x40, nil)
	if v == nil || v.Valid {
		t.Fatal("no invalid frame in empty set")
	}
	v.Reset(0x40)
	v.State = 1
	if l := a.Lookup(0x40); l == nil || l.Addr != 0x40 {
		t.Fatal("inserted line not found")
	}
	// A different line in the same set (4 sets, 64B lines: +4*64 stride).
	if a.Lookup(0x40+4*64) != nil {
		t.Fatal("wrong-tag hit")
	}
}

func TestLRUEviction(t *testing.T) {
	a, err := NewArray(1*64*2, 2, 64) // 1 set, 2 ways
	if err != nil {
		t.Fatal(err)
	}
	insert := func(addr msg.Addr) {
		v := a.Victim(addr, nil)
		if v.Valid {
			v.Valid = false
		}
		v.Reset(addr)
		a.Touch(v)
	}
	insert(0x000)
	insert(0x040)
	// Touch 0x000 so 0x040 becomes LRU.
	a.Touch(a.Lookup(0x000))
	v := a.Victim(0x080, nil)
	if !v.Valid || v.Addr != 0x040 {
		t.Fatalf("victim = %+v, want the LRU line 0x40", v)
	}
}

func TestVictimRespectsPin(t *testing.T) {
	a, err := NewArray(1*64*2, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []msg.Addr{0x000, 0x040} {
		v := a.Victim(addr, nil)
		v.Reset(addr)
		a.Touch(v)
	}
	pinned := map[msg.Addr]bool{0x000: true, 0x040: true}
	if v := a.Victim(0x080, func(l *Line) bool { return !pinned[l.Addr] }); v != nil {
		t.Fatalf("victim %+v despite all ways pinned", v)
	}
	pinned[0x040] = false
	v := a.Victim(0x080, func(l *Line) bool { return !pinned[l.Addr] })
	if v == nil || v.Addr != 0x040 {
		t.Fatal("wrong victim with partial pinning")
	}
}

func TestForEachAndCount(t *testing.T) {
	a, err := NewArray(4*64*2, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []msg.Addr{0x000, 0x040, 0x080, 0x400}
	for _, addr := range addrs {
		v := a.Victim(addr, nil)
		v.Reset(addr)
	}
	if a.Count() != len(addrs) {
		t.Fatalf("count = %d, want %d", a.Count(), len(addrs))
	}
	seen := make(map[msg.Addr]bool)
	a.ForEach(func(l *Line) { seen[l.Addr] = true })
	for _, addr := range addrs {
		if !seen[addr] {
			t.Errorf("line %#x not visited", addr)
		}
	}
}

// TestArraySetMappingProperty: a line is always found in the set its
// address maps to, regardless of insertion order.
func TestArraySetMappingProperty(t *testing.T) {
	prop := func(lines []uint16) bool {
		a, err := NewArray(8*64*4, 4, 64)
		if err != nil {
			return false
		}
		inserted := make(map[msg.Addr]bool)
		for _, l := range lines {
			addr := msg.Addr(l) * 64
			if inserted[addr] {
				continue
			}
			v := a.Victim(addr, nil)
			if v == nil {
				continue // set full; fine
			}
			if v.Valid {
				delete(inserted, v.Addr)
			}
			v.Reset(addr)
			a.Touch(v)
			inserted[addr] = true
		}
		for addr := range inserted {
			if got := a.Lookup(addr); got == nil || got.Addr != addr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetBasics(t *testing.T) {
	var b Bitset
	if !b.Empty() || b.Count() != 0 {
		t.Fatal("zero bitset not empty")
	}
	b.Add(3)
	b.Add(17)
	b.Add(63)
	if b.Count() != 3 || !b.Contains(3) || !b.Contains(17) || !b.Contains(63) || b.Contains(4) {
		t.Fatalf("bitset state wrong: %b", b)
	}
	b.Remove(17)
	if b.Count() != 2 || b.Contains(17) {
		t.Fatal("remove failed")
	}
	var visited []int
	b.ForEach(func(i int) { visited = append(visited, i) })
	if len(visited) != 2 || visited[0] != 3 || visited[1] != 63 {
		t.Fatalf("ForEach visited %v", visited)
	}
	b.Clear()
	if !b.Empty() {
		t.Fatal("clear failed")
	}
}

// TestBitsetProperty: Add/Remove agree with a reference map implementation.
func TestBitsetProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		var b Bitset
		ref := make(map[int]bool)
		for _, op := range ops {
			i := int(op % 64)
			if op&0x80 != 0 {
				b.Add(i)
				ref[i] = true
			} else {
				b.Remove(i)
				delete(ref, i)
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := 0; i < 64; i++ {
			if b.Contains(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableAllocGetFree(t *testing.T) {
	tb := NewTable[int](2)
	a := tb.Alloc(0x40)
	if a == nil {
		t.Fatal("alloc failed")
	}
	*a = 7
	if got := tb.Get(0x40); got == nil || *got != 7 {
		t.Fatal("get after alloc failed")
	}
	if tb.Alloc(0x40) != nil {
		t.Fatal("duplicate alloc succeeded")
	}
	if tb.Alloc(0x80) == nil {
		t.Fatal("second alloc failed")
	}
	if !tb.Full() || tb.Alloc(0xc0) != nil {
		t.Fatal("capacity not enforced")
	}
	tb.Free(0x40)
	if tb.Get(0x40) != nil || tb.Len() != 1 {
		t.Fatal("free failed")
	}
	if tb.Peak() != 2 {
		t.Fatalf("peak = %d, want 2", tb.Peak())
	}
}

func TestTableUnbounded(t *testing.T) {
	tb := NewTable[struct{}](0)
	for i := 0; i < 1000; i++ {
		if tb.Alloc(msg.Addr(i)) == nil {
			t.Fatalf("unbounded table refused alloc %d", i)
		}
	}
	if tb.Len() != 1000 || tb.Full() {
		t.Fatal("unbounded table misbehaved")
	}
	count := 0
	tb.ForEach(func(msg.Addr, *struct{}) { count++ })
	if count != 1000 {
		t.Fatalf("ForEach visited %d", count)
	}
}

func TestTableReset(t *testing.T) {
	hooked := 0
	tb := NewTableReset[int](2, func(e *int) { hooked++; *e = 0 })
	*tb.Alloc(0x40) = 1
	*tb.Alloc(0x80) = 2
	tb.Free(0x80)
	tb.Reset()
	if hooked != 2 {
		t.Fatalf("reset hook ran %d times over one freed and one live entry, want 2", hooked)
	}
	if tb.Len() != 0 || tb.Peak() != 0 || tb.Get(0x40) != nil {
		t.Fatalf("after Reset: Len %d, Peak %d, Get %v; want an empty table", tb.Len(), tb.Peak(), tb.Get(0x40))
	}
	// Both entries are reused, fresh, and the capacity still holds.
	if n := testing.AllocsPerRun(1, func() {
		a, b := tb.Alloc(0x40), tb.Alloc(0xc0)
		if a == nil || b == nil || *a != 0 || *b != 0 || tb.Alloc(0x100) != nil {
			t.Fatal("reset table did not hand out two fresh entries up to its capacity")
		}
		tb.Reset()
	}); n != 0 {
		t.Fatalf("refilling a reset table allocated %.0f times", n)
	}
}
