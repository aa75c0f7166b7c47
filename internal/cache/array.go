// Package cache provides the storage substrates shared by both protocols:
// a set-associative cache array with LRU replacement, and a generic
// bounded table used for MSHRs and writeback/backup buffers.
package cache

import (
	"fmt"

	"repro/internal/msg"
)

// Line is one cache frame. State is protocol-defined; the array only cares
// about Valid and the LRU stamp. L2 directory lines additionally use the
// Sharers and Owner fields. The two flags sit together at the end so the
// frame packs into 64 bytes.
type Line struct {
	Addr    msg.Addr
	State   int
	Payload msg.Payload
	Sharers Bitset
	Owner   msg.NodeID
	lru     uint64
	Valid   bool
	Dirty   bool
}

// Reset prepares the frame for a new address, clearing all content.
func (l *Line) Reset(addr msg.Addr) {
	*l = Line{Addr: addr, Valid: true}
}

// Array is a set-associative cache indexed by line address. Its frames are
// one flat slice, set s occupying lines[s*ways:(s+1)*ways], allocated by the
// first Victim call: an array that is never filled costs only its header,
// which matters to the model checker, whose small workloads touch a handful
// of lines yet rebuild every cache of the system once per explored path.
type Array struct {
	lines    []Line
	numSets  int
	ways     int
	lineSize int
	tick     uint64
}

// NewArray builds an array with the given geometry. sizeBytes must be a
// multiple of ways*lineSize and the resulting set count a power of two.
func NewArray(sizeBytes, ways, lineSize int) (*Array, error) {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry size=%d ways=%d line=%d", sizeBytes, ways, lineSize)
	}
	if sizeBytes%(ways*lineSize) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by ways*line %d", sizeBytes, ways*lineSize)
	}
	numSets := sizeBytes / (ways * lineSize)
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", numSets)
	}
	return &Array{numSets: numSets, ways: ways, lineSize: lineSize}, nil
}

// LineSize returns the line size in bytes.
func (a *Array) LineSize() int { return a.lineSize }

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.numSets }

// Ways returns the associativity.
func (a *Array) Ways() int { return a.ways }

// setOf returns the set index for a line-aligned address.
func (a *Array) setOf(addr msg.Addr) int {
	return int(uint64(addr) / uint64(a.lineSize) % uint64(a.numSets))
}

// set returns the ways of addr's set; empty before the first fill.
func (a *Array) set(addr msg.Addr) []Line {
	if a.lines == nil {
		return nil
	}
	base := a.setOf(addr) * a.ways
	return a.lines[base : base+a.ways : base+a.ways]
}

// Lookup returns the frame holding addr, or nil on miss. It does not update
// LRU state; call Touch when the access actually uses the line.
func (a *Array) Lookup(addr msg.Addr) *Line {
	set := a.set(addr)
	for i := range set {
		if set[i].Valid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Touch marks the line most-recently-used.
func (a *Array) Touch(l *Line) {
	a.tick++
	l.lru = a.tick
}

// Victim returns the frame to use for addr: an invalid way if one exists,
// otherwise the least-recently-used way for which canEvict returns true.
// It returns nil when every way is pinned (callers must then stall or pick
// another course). The returned frame still holds the victim's contents;
// the caller evicts it and then calls Reset. The first call allocates the
// array's frames.
func (a *Array) Victim(addr msg.Addr, canEvict func(*Line) bool) *Line {
	if a.lines == nil {
		a.lines = make([]Line, a.numSets*a.ways)
	}
	set := a.set(addr)
	var victim *Line
	for i := range set {
		l := &set[i]
		if !l.Valid {
			return l
		}
		if canEvict != nil && !canEvict(l) {
			continue
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// ForEach visits every valid line. Used by the invariant checker.
func (a *Array) ForEach(fn func(*Line)) {
	for i := range a.lines {
		if a.lines[i].Valid {
			fn(&a.lines[i])
		}
	}
}

// Count returns the number of valid lines.
func (a *Array) Count() int {
	n := 0
	for i := range a.lines {
		if a.lines[i].Valid {
			n++
		}
	}
	return n
}
