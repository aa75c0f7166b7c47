// Package memctrl provides the off-chip memory backing store shared by the
// protocol-specific memory controllers (core.Mem, for DirCMP and FtDirCMP,
// and the token protocols' home nodes).
//
// The store is a sparse line-granular memory image holding msg.Payload
// values — a (value, version) pair rather than raw bytes, which is what
// lets the system's data-integrity oracle check that every load observes
// the latest coherently-ordered store (see internal/system). Lines never
// written return the zero payload (value 0, version 0), modeling
// zero-initialized memory without materializing it. Timing is not modeled
// here: access latencies are charged by the controllers that own a Store.
package memctrl

import (
	"repro/internal/cache"
	"repro/internal/msg"
)

// Store is a sparse line-granular memory image.
type Store struct {
	lines map[msg.Addr]msg.Payload
}

// NewStore returns an empty (zero-filled) memory.
func NewStore() *Store {
	return &Store{lines: make(map[msg.Addr]msg.Payload)}
}

// Reset returns the store to zero-filled memory, keeping its map storage.
func (s *Store) Reset() { clear(s.lines) }

// Read returns the payload stored at the line address.
func (s *Store) Read(addr msg.Addr) msg.Payload {
	return s.lines[addr]
}

// Write stores a payload at the line address.
func (s *Store) Write(addr msg.Addr, p msg.Payload) {
	s.lines[addr] = p
}

// ForEach visits every line ever written.
func (s *Store) ForEach(fn func(addr msg.Addr, p msg.Payload)) {
	for a, p := range s.lines {
		fn(a, p)
	}
}

// Len returns the number of lines written.
func (s *Store) Len() int { return len(s.lines) }

// StoreSnapshot holds a Store's lines for Restore. The zero value is an
// empty buffer; Snapshot reuses its storage.
type StoreSnapshot struct {
	lines cache.MapSnapshot[msg.Addr, msg.Payload]
}

// Snapshot copies every line written so far into snap.
func (s *Store) Snapshot(snap *StoreSnapshot) {
	snap.lines.Take(s.lines)
}

// Restore returns the store to snapshot snap: the lines written then hold
// their payloads then, and the rest read as zero-filled memory again.
func (s *Store) Restore(snap *StoreSnapshot) {
	snap.lines.Restore(s.lines)
}
