package cache

import (
	"testing"

	"repro/internal/msg"
)

// FuzzTableMatchesMap drives a random Alloc/Get/Free/Reset/ForEach script
// through a Table and a map oracle. Get, Len, Full and Peak must agree
// with the oracle after every step, ForEach must visit exactly the live
// entries once each (in the same order when repeated), the reset hook must
// run on each freed entry, and Alloc must hand out entries exactly as the
// freelist model predicts: the most recently freed entry first, a new
// entry when none is free, and after a Reset every entry the table ever
// created, newest first.
func FuzzTableMatchesMap(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 0, 2, 0, 3, 2, 1, 0, 3, 1, 2})
	f.Add(uint8(0), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 4, 0, 2, 5, 3, 0, 0, 11})
	f.Add(uint8(4), []byte{0, 7, 0, 7, 2, 7, 2, 7, 0, 7, 5, 0, 3, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})
	f.Add(uint8(1), []byte{3, 0, 0, 1, 0, 2, 6, 0, 2, 1, 0, 2, 4, 0})
	f.Fuzz(fuzzTableScript)
}

// fuzzTableScript is the body of FuzzTableMatchesMap. Each step is two
// bytes: the operation and the address (one of 16 lines, so scripts
// collide on addresses often).
func fuzzTableScript(t *testing.T, capSel uint8, script []byte) {
	capacity := int(capSel % 10) // 0 = unbounded
	hooked := make(map[*int]int) // reset-hook runs per entry
	tb := NewTableReset[int](capacity, func(e *int) { hooked[e]++; *e = 0 })

	live := make(map[msg.Addr]*int) // the oracle
	var free, all []*int            // the freelist model, and every entry in creation order
	peak := 0
	stamp := 0

	for step := 0; step+1 < len(script); step += 2 {
		op, addr := script[step]%7, msg.Addr(script[step+1]%16)*64
		switch op {
		case 0, 1: // Alloc (weighted: tables fill up)
			e := tb.Alloc(addr)
			_, dup := live[addr]
			full := capacity > 0 && len(live) >= capacity
			if dup || full {
				if e != nil {
					t.Fatalf("step %d: Alloc(%#x) = %p with dup=%t full=%t, want nil", step, addr, e, dup, full)
				}
				break
			}
			if e == nil {
				t.Fatalf("step %d: Alloc(%#x) = nil on a table with %d of %d entries", step, addr, len(live), capacity)
			}
			if n := len(free); n > 0 {
				if e != free[n-1] {
					t.Fatalf("step %d: Alloc(%#x) = %p, the freelist model hands out %p", step, addr, e, free[n-1])
				}
				free = free[:n-1]
			} else {
				for _, old := range all {
					if e == old {
						t.Fatalf("step %d: Alloc(%#x) reused %p with nothing free", step, addr, e)
					}
				}
				all = append(all, e)
			}
			if *e != 0 {
				t.Fatalf("step %d: Alloc(%#x) handed out an entry holding %d, want a reset one", step, addr, *e)
			}
			stamp++
			*e = stamp
			live[addr] = e
			peak = max(peak, len(live))
		case 2: // Free
			e, ok := live[addr]
			before := hooked[e]
			tb.Free(addr)
			if ok {
				if hooked[e] != before+1 {
					t.Fatalf("step %d: Free(%#x) did not run the reset hook once", step, addr)
				}
				delete(live, addr)
				free = append(free, e)
			}
		case 3: // Reset
			runs := make(map[*int]int, len(hooked))
			for e, n := range hooked {
				runs[e] = n
			}
			tb.Reset()
			for _, e := range live {
				if hooked[e] != runs[e]+1 {
					t.Fatalf("step %d: Reset did not run the reset hook once on live entry %p", step, e)
				}
			}
			clear(live)
			free = append(free[:0], all...)
			peak = 0
		case 4: // ForEach, twice: the same visits in the same order
			var first []*int
			tb.ForEach(func(a msg.Addr, e *int) {
				if live[a] != e {
					t.Fatalf("step %d: ForEach visited (%#x, %p), the oracle holds %p", step, a, e, live[a])
				}
				first = append(first, e)
			})
			if len(first) != len(live) {
				t.Fatalf("step %d: ForEach visited %d entries, the oracle holds %d", step, len(first), len(live))
			}
			seen := make(map[*int]bool)
			for _, e := range first {
				if seen[e] {
					t.Fatalf("step %d: ForEach visited %p twice", step, e)
				}
				seen[e] = true
			}
			i := 0
			tb.ForEach(func(_ msg.Addr, e *int) {
				if e != first[i] {
					t.Fatalf("step %d: a second ForEach visited %p at %d, the first %p", step, e, i, first[i])
				}
				i++
			})
		default: // Get
			if got, want := tb.Get(addr), live[addr]; got != want {
				t.Fatalf("step %d: Get(%#x) = %p, oracle %p", step, addr, got, want)
			}
		}
		for a, e := range live {
			if tb.Get(a) != e || *e == 0 {
				t.Fatalf("step %d: Get(%#x) = %p, oracle %p holding %d", step, a, tb.Get(a), e, *e)
			}
		}
		if tb.Len() != len(live) || tb.Peak() != peak || tb.Full() != (capacity > 0 && len(live) >= capacity) {
			t.Fatalf("step %d: Len %d Peak %d Full %t, oracle %d %d (capacity %d)",
				step, tb.Len(), tb.Peak(), tb.Full(), len(live), peak, capacity)
		}
	}
}
