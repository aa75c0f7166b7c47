package cache

import "repro/internal/msg"

// Table is a bounded address-indexed table with protocol-defined entries.
// It backs MSHRs, writeback buffers and backup buffers. A capacity of 0
// means unbounded.
//
// Freed entries are recycled through a freelist, so the steady-state churn
// of a simulation (an MSHR entry per miss, a writeback entry per eviction)
// allocates nothing. Recycled entries are handed back by Alloc exactly as
// Free's reset hook left them; with the default reset (zero the entry)
// that is indistinguishable from a fresh allocation, while a custom reset
// (NewTableReset) can preserve capacity-carrying fields — slices, timers,
// prepared callbacks — across lives of the same slot.
//
// The entry map is created by the first Alloc; Get, Free, Len and ForEach
// work on the nil map, so a table that is never used costs only its header.
type Table[E any] struct {
	entries  map[msg.Addr]*E
	free     []*E
	reset    func(*E)
	capacity int
	peak     int
}

// NewTable returns a table holding at most capacity entries (0 = unbounded).
// Freed entries are zeroed before reuse.
func NewTable[E any](capacity int) *Table[E] {
	return NewTableReset[E](capacity, nil)
}

// NewTableReset is NewTable with a custom recycling hook: reset is called
// on every entry passed to Free, before it becomes eligible for reuse by
// Alloc. The hook must return the entry to its "fresh" state but may keep
// reusable storage (slice capacity via s[:0], timer epochs, closures bound
// to the entry). A nil reset zeroes the entry.
func NewTableReset[E any](capacity int, reset func(*E)) *Table[E] {
	if reset == nil {
		reset = func(e *E) { var zero E; *e = zero }
	}
	return &Table[E]{reset: reset, capacity: capacity}
}

// Get returns the entry for addr, or nil.
func (t *Table[E]) Get(addr msg.Addr) *E {
	return t.entries[addr]
}

// Alloc creates an entry for addr. It returns nil when the table is full or
// the address already has an entry (callers must check Get first when
// merging is intended).
func (t *Table[E]) Alloc(addr msg.Addr) *E {
	if _, dup := t.entries[addr]; dup {
		return nil
	}
	if t.capacity > 0 && len(t.entries) >= t.capacity {
		return nil
	}
	if t.entries == nil {
		t.entries = make(map[msg.Addr]*E, t.capacity)
	}
	var e *E
	if n := len(t.free); n > 0 {
		e = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	} else {
		e = new(E)
	}
	t.entries[addr] = e
	if len(t.entries) > t.peak {
		t.peak = len(t.entries)
	}
	return e
}

// Free removes the entry for addr and recycles it: the reset hook runs and
// the entry joins the freelist. Callers must not retain pointers to a freed
// entry (or anything the reset hook discards) past the Free call.
func (t *Table[E]) Free(addr msg.Addr) {
	e, ok := t.entries[addr]
	if !ok {
		return
	}
	delete(t.entries, addr)
	t.reset(e)
	t.free = append(t.free, e)
}

// Len returns the number of live entries.
func (t *Table[E]) Len() int { return len(t.entries) }

// Peak returns the maximum occupancy observed (hardware sizing statistic).
func (t *Table[E]) Peak() int { return t.peak }

// Full reports whether Alloc would fail for a new address.
func (t *Table[E]) Full() bool {
	return t.capacity > 0 && len(t.entries) >= t.capacity
}

// ForEach visits every entry. Iteration order is unspecified; callers that
// need determinism must not derive simulation behaviour from the order.
func (t *Table[E]) ForEach(fn func(addr msg.Addr, e *E)) {
	for a, e := range t.entries {
		fn(a, e)
	}
}
