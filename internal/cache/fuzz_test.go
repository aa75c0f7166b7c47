package cache

import (
	"testing"

	"repro/internal/msg"
)

// FuzzArrayMatchesReference drives a random geometry and a random
// fill/evict/invalidate script through an Array and the fully allocated
// reference geometry. Every fill must land on the reference's (set, way),
// Lookup must agree on every address, ForEach must visit the valid frames
// in the reference's (set, way) order, Count must match, and a frame, once
// handed out, must never change address. A script may Reset the array
// mid-way; from then on it must behave as a fresh array would, while
// keeping the frames it handed out.
func FuzzArrayMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(0), []byte{0, 1, 0, 9, 0, 17, 0, 25, 0, 33, 0, 41, 0xc0, 9, 0, 1})
	f.Add(uint8(0), uint8(1), uint8(1), []byte{0, 1, 0, 2, 0xc0, 1, 0, 1, 0, 3})
	f.Add(uint8(7), uint8(8), uint8(2), []byte{255, 127, 63, 31, 15, 7, 3, 1, 0, 0})
	f.Add(uint8(2), uint8(2), uint8(2), []byte{0, 0, 0, 4, 0, 8, 0, 12, 0, 4, 0, 16, 0xc0, 8, 0, 20})
	f.Add(uint8(1), uint8(2), uint8(0), []byte{0, 1, 0, 3, 0, 5, 0, 7, 0, 9, 0xbf, 0, 0, 9, 0, 7, 0, 1, 0, 11, 0xbf, 0, 0, 3})
	f.Fuzz(fuzzArrayScript)
}

// fuzzArrayScript is the body of FuzzArrayMatchesReference.
func fuzzArrayScript(t *testing.T, setBits, waySel, lineSel uint8, script []byte) {
	sets := 1 << (setBits % 8) // 1..128 sets
	ways := 1 + int(waySel%8)
	line := 16 << (lineSel % 3) // 16, 32 or 64 bytes
	a, err := NewArray(sets*ways*line, ways, line)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefArray(sets, ways, uint64(line))
	// Twice as many distinct lines as frames, so sets fill and evict.
	lines := 2 * sets * ways
	pinned := func(addr msg.Addr) bool { return addr == 0 } // line 0 is never evicted
	frames := make([][]*Line, sets)                         // the frame handed out for each (set, way)
	for i := range frames {
		frames[i] = make([]*Line, ways)
	}
	owner := make(map[*Line][2]int)

	// checkOrder requires ForEach to visit exactly the reference's valid
	// frames, in (set, way) order, and Count to agree.
	checkOrder := func(step int) {
		var want []*Line
		for s, set := range ref.sets {
			for w, fr := range set {
				if fr.valid {
					want = append(want, frames[s][w])
				}
			}
		}
		i := 0
		a.ForEach(func(l *Line) {
			if i >= len(want) || l != want[i] {
				t.Fatalf("step %d: ForEach visit %d is %p, reference order wants %v", step, i, l, want)
			}
			i++
		})
		if i != len(want) || a.Count() != len(want) {
			t.Fatalf("step %d: ForEach visited %d and Count = %d, reference holds %d valid frames", step, i, a.Count(), len(want))
		}
	}

	// Each step is two bytes: a first byte of 0xbf resets the array,
	// otherwise the top two bits select an invalidate (0b11) of a hit
	// line, the low 14 bits the line. Scripts are capped
	// and the order is checked every 16 steps, which keeps an execution
	// cheap enough for the fuzzer to minimize new inputs quickly.
	if len(script) > 512 {
		script = script[:512]
	}
	for step := 0; step+1 < len(script); step += 2 {
		if step%32 == 0 {
			checkOrder(step)
		}
		if script[step] == 0xbf {
			a.Reset()
			for _, set := range ref.sets {
				clear(set)
			}
			ref.tick = 0
			checkOrder(step)
			continue
		}
		op := int(script[step])<<8 | int(script[step+1])
		addr := msg.Addr(op & 0x3fff % lines * line)
		s := ref.setOf(addr)
		rw := -1
		for w, fr := range ref.sets[s] {
			if fr.valid && fr.addr == addr {
				rw = w
			}
		}
		l := a.Lookup(addr)
		if (l == nil) != (rw < 0) || l != nil && l != frames[s][rw] {
			t.Fatalf("step %d: Lookup(%#x) = %p, reference holds it at way %d", step, addr, l, rw)
		}
		switch {
		case l != nil && op>>14 == 3: // invalidate
			l.Valid = false
			ref.sets[s][rw].valid = false
		case l != nil: // hit
			a.Touch(l)
			ref.tick++
			ref.sets[s][rw].lru = ref.tick
		default: // fill, evicting the LRU unpinned way of a full set
			v := a.Victim(addr, func(l *Line) bool { return !pinned(l.Addr) })
			vs, vw := ref.victim(addr, pinned)
			if vw < 0 {
				if v != nil {
					t.Fatalf("step %d: Victim(%#x) = %p, reference finds every way pinned", step, addr, v)
				}
				continue
			}
			if v == nil {
				t.Fatalf("step %d: Victim(%#x) = nil, reference picks set %d way %d", step, addr, vs, vw)
			}
			if prev := frames[vs][vw]; prev != nil && prev != v {
				t.Fatalf("step %d: set %d way %d moved from %p to %p", step, vs, vw, prev, v)
			}
			if o, seen := owner[v]; seen && o != [2]int{vs, vw} {
				t.Fatalf("step %d: Victim(%#x) returned the frame of set %d way %d, reference picks set %d way %d", step, addr, o[0], o[1], vs, vw)
			}
			frames[vs][vw] = v
			owner[v] = [2]int{vs, vw}
			v.Reset(addr)
			a.Touch(v)
			ref.tick++
			ref.sets[vs][vw] = refFrame{addr: addr, valid: true, lru: ref.tick}
		}
	}
	checkOrder(len(script))

	held := len(a.spare)
	for _, set := range a.sets {
		held += len(set)
	}
	if held > sets*ways {
		t.Fatalf("array holds %d frames, more than its %d sets × %d ways", held, sets, ways)
	}
}
