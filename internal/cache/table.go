package cache

import "repro/internal/msg"

// Table is a bounded address-indexed table with protocol-defined entries.
// It backs MSHRs, writeback buffers and backup buffers. A capacity of 0
// means unbounded.
//
// A table holds few live entries — Table-4 runs of every protocol and
// workload peak at 16 in one table, the quick loss-coverage campaigns at
// 7, the interleave gate at 1 — so the live entries sit in one slice of
// (address, entry) pairs and a lookup is a linear scan, which beats
// hashing at that size. The slice is created by
// the first Alloc with room for tableInitCap entries (or capacity, if
// smaller) and grows only past that; Get, Free, Len and ForEach work on
// the nil slice, so a table that is never used costs only its header.
//
// Freed entries are recycled through a freelist, so the steady-state churn
// of a simulation (an MSHR entry per miss, a writeback entry per eviction)
// allocates nothing. Recycled entries are handed back by Alloc exactly as
// Free's reset hook left them; with the default reset (zero the entry)
// that is indistinguishable from a fresh allocation, while a custom reset
// (NewTableReset) can preserve capacity-carrying fields — slices, timers,
// prepared callbacks — across lives of the same slot.
type Table[E any] struct {
	live []tableEntry[E]
	free []*E
	// all holds every entry the table ever created, in creation order, so
	// Reset can rebuild the freelist in creation order.
	all      []*E
	reset    func(*E)
	capacity int
	peak     int
}

// tableEntry is one live entry and its address.
type tableEntry[E any] struct {
	addr msg.Addr
	e    *E
}

// tableInitCap is the live slice's room at the first Alloc.
const tableInitCap = 8

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

// index returns the position of addr in the live slice, or -1.
func (t *Table[E]) index(addr msg.Addr) int {
	for i := range t.live {
		if t.live[i].addr == addr {
			return i
		}
	}
	return -1
}

// Get returns the entry for addr, or nil.
func (t *Table[E]) Get(addr msg.Addr) *E {
	if i := t.index(addr); i >= 0 {
		return t.live[i].e
	}
	return nil
}

// Alloc creates an entry for addr. It returns nil when the table is full or
// the address already has an entry (callers must check Get first when
// merging is intended).
func (t *Table[E]) Alloc(addr msg.Addr) *E {
	if t.Full() || t.index(addr) >= 0 {
		return nil
	}
	if t.live == nil {
		n := tableInitCap
		if t.capacity > 0 && t.capacity < n {
			n = t.capacity
		}
		t.live = make([]tableEntry[E], 0, n)
	}
	var e *E
	if n := len(t.free); n > 0 {
		e = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	} else {
		e = new(E)
		t.all = append(t.all, e)
	}
	t.live = append(t.live, tableEntry[E]{addr, e})
	if len(t.live) > t.peak {
		t.peak = len(t.live)
	}
	return e
}

// Free removes the entry for addr and recycles it: the reset hook runs and
// the entry joins the freelist. The last live entry takes the freed one's
// place. Callers must not retain pointers to a freed entry (or anything
// the reset hook discards) past the Free call.
func (t *Table[E]) Free(addr msg.Addr) {
	i := t.index(addr)
	if i < 0 {
		return
	}
	e := t.live[i].e
	last := len(t.live) - 1
	t.live[i] = t.live[last]
	t.live = t.live[:last]
	t.reset(e)
	t.free = append(t.free, e)
}

// Reset frees every live entry through the reset hook and zeroes Peak,
// returning the table to its just-built behaviour while keeping its
// entries and slice storage for reuse. The freelist is rebuilt from every
// entry in creation order, so which entry a later Alloc hands out depends
// only on how many entries the table ever created.
func (t *Table[E]) Reset() {
	for i := range t.live {
		t.reset(t.live[i].e)
	}
	t.live = t.live[:0]
	t.free = append(t.free[:0], t.all...)
	t.peak = 0
}

// Len returns the number of live entries.
func (t *Table[E]) Len() int { return len(t.live) }

// Peak returns the maximum occupancy observed (hardware sizing statistic).
func (t *Table[E]) Peak() int { return t.peak }

// Full reports whether Alloc would fail for a new address.
func (t *Table[E]) Full() bool {
	return t.capacity > 0 && len(t.live) >= t.capacity
}

// ForEach visits every live entry. The order is deterministic — allocation
// order, except that Free moves the last entry into the freed one's place
// — but callers must not derive simulation behaviour from it. fn must not
// Free or Alloc entries of this table: a Free moves an entry not yet
// visited into a visited place.
func (t *Table[E]) ForEach(fn func(addr msg.Addr, e *E)) {
	for _, le := range t.live {
		fn(le.addr, le.e)
	}
}

// TableSnapshot holds a Table's contents for Restore: its live entries,
// its freelist and a copy of every entry's value, live and free. The zero
// value is an empty buffer; Snapshot reuses its storage.
type TableSnapshot[E any] struct {
	live []tableEntry[E]
	free []*E
	vals []E
	peak int
}

// Snapshot copies the table's live entries, freelist, peak and the value
// of every entry it ever created into s. clone copies one entry's value
// from src into dst; it must copy what an entry's slices hold, reusing
// dst's storage, so that neither copy shares a backing array with the
// other (nil means a plain value copy, for entries without slices).
func (t *Table[E]) Snapshot(s *TableSnapshot[E], clone func(dst, src *E)) {
	s.live = append(s.live[:0], t.live...)
	s.free = append(s.free[:0], t.free...)
	if n := len(t.all); cap(s.vals) < n {
		s.vals = append(s.vals[:cap(s.vals)], make([]E, n-cap(s.vals))...)
	}
	s.vals = s.vals[:len(t.all)]
	for i, e := range t.all {
		copyEntry(&s.vals[i], e, clone)
	}
	s.peak = t.peak
}

// Restore returns the table to snapshot s, taken from it with the same
// clone: the entries live then are live again with their values then, and
// the free ones are free with theirs. Entries created since go through the
// reset hook and wait below the restored freelist, so Alloc hands out
// exactly the entries it did after the snapshot before it reuses them.
func (t *Table[E]) Restore(s *TableSnapshot[E], clone func(dst, src *E)) {
	n := len(s.vals)
	extra := t.all[n:]
	for _, e := range extra {
		t.reset(e)
	}
	for i, e := range t.all[:n] {
		copyEntry(e, &s.vals[i], clone)
	}
	t.live = append(t.live[:0], s.live...)
	t.free = append(append(t.free[:0], extra...), s.free...)
	t.peak = s.peak
}

func copyEntry[E any](dst, src *E, clone func(dst, src *E)) {
	if clone == nil {
		*dst = *src
		return
	}
	clone(dst, src)
}
