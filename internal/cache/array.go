// Package cache provides the storage substrates shared by both protocols:
// a set-associative cache array with LRU replacement, and a generic
// bounded table used for MSHRs and writeback/backup buffers.
package cache

import (
	"fmt"
	"math"
	"math/bits"

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
// allocated set by set: the first Victim call creates the set table, and a
// set gets its ways frames on its own first fill. An array that is never
// filled costs only its header, and one that is filled costs frames only
// for the sets it touched — which matters to the model checker, whose small
// workloads touch a handful of lines yet rebuild every cache of the system
// once per explored path, and to short runs, which touch a few percent of
// the sets. Frames never move once carved, so callers may hold a *Line
// across later Victim calls.
type Array struct {
	sets  [][]Line // nil until the first Victim; sets[s] nil until s is filled
	spare []Line   // carved frames not yet given to a set
	tick  uint64
	// The geometry and fill count are packed so the header stays at one
	// 64-byte size class, as with one flat frame slice: every system
	// builds an array per cache, filled or not.
	filled    uint32 // sets that hold frames
	ways      uint16
	setBits   uint8 // the array has 1<<setBits sets
	lineShift uint8 // lines are 1<<lineShift bytes
}

// NewArray builds an array with the given geometry. sizeBytes must be a
// multiple of ways*lineSize, the line size and the resulting set count
// powers of two, with at most 65,535 ways and 2^31 sets.
func NewArray(sizeBytes, ways, lineSize int) (*Array, error) {
	if sizeBytes <= 0 || ways <= 0 || ways > math.MaxUint16 || lineSize <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry size=%d ways=%d line=%d", sizeBytes, ways, lineSize)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", lineSize)
	}
	if sizeBytes%(ways*lineSize) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by ways*line %d", sizeBytes, ways*lineSize)
	}
	numSets := sizeBytes / (ways * lineSize)
	if numSets&(numSets-1) != 0 || uint(numSets) > 1<<31 {
		return nil, fmt.Errorf("cache: set count %d not a power of two up to 2^31", numSets)
	}
	return &Array{
		ways:      uint16(ways),
		setBits:   uint8(bits.TrailingZeros(uint(numSets))),
		lineShift: uint8(bits.TrailingZeros(uint(lineSize))),
	}, nil
}

// Reset invalidates every frame and restarts the LRU clock, returning the
// array to the behaviour of a fresh one: Victim picks the same ways,
// Lookup misses everywhere and ForEach visits nothing. The frames carved
// so far are kept (invalid) for reuse, so a reset array fills without
// allocating.
func (a *Array) Reset() {
	for _, set := range a.sets {
		clear(set)
	}
	a.tick = 0
}

// LineSize returns the line size in bytes.
func (a *Array) LineSize() int { return 1 << a.lineShift }

// Sets returns the number of sets.
func (a *Array) Sets() int { return 1 << a.setBits }

// Ways returns the associativity.
func (a *Array) Ways() int { return int(a.ways) }

// setOf returns the set index for a line-aligned address.
func (a *Array) setOf(addr msg.Addr) int {
	return int(uint64(addr) >> a.lineShift & (1<<a.setBits - 1))
}

// set returns the ways of addr's set; empty before the set's first fill.
func (a *Array) set(addr msg.Addr) []Line {
	if a.sets == nil {
		return nil
	}
	return a.sets[a.setOf(addr)]
}

// carve gives set s its frames. They come from a spare chunk whose size
// doubles with the number of sets filled (1, 1, 2, 4, … sets, capped at the
// sets still empty), so an array never holds more frames than sets*ways and
// pays one allocation per doubling rather than one per set.
func (a *Array) carve(s int) []Line {
	ways, filled := int(a.ways), int(a.filled)
	if len(a.spare) == 0 {
		n := min(max(filled, 1), a.Sets()-filled)
		a.spare = make([]Line, n*ways)
	}
	set := a.spare[:ways:ways]
	a.spare = a.spare[ways:]
	a.sets[s] = set
	a.filled++
	return set
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
// the caller evicts it and then calls Reset. The first call for a set
// allocates that set's frames.
func (a *Array) Victim(addr msg.Addr, canEvict func(*Line) bool) *Line {
	if a.sets == nil {
		a.sets = make([][]Line, a.Sets())
	}
	s := a.setOf(addr)
	set := a.sets[s]
	if set == nil {
		set = a.carve(s)
	}
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

// ForEach visits every valid line in (set, way) order. Used by the
// invariant checker, dumps and state fingerprints.
func (a *Array) ForEach(fn func(*Line)) {
	for _, set := range a.sets {
		for i := range set {
			if set[i].Valid {
				fn(&set[i])
			}
		}
	}
}

// Count returns the number of valid lines.
func (a *Array) Count() int {
	n := 0
	for _, set := range a.sets {
		for i := range set {
			if set[i].Valid {
				n++
			}
		}
	}
	return n
}

// ArraySnapshot holds an Array's contents for Restore: the frames of every
// set filled so far. The LRU clock is not part of it: touches only compare
// their stamps, and a touch after a restore stamps a frame later than
// every restored one whether the clock went back or kept rising. The zero
// value is an empty buffer; Snapshot reuses its storage.
type ArraySnapshot struct {
	sets   []int32 // the filled sets, ascending
	frames []Line  // their frames, set after set
}

// Snapshot copies every filled set's frames into s.
func (a *Array) Snapshot(s *ArraySnapshot) {
	s.sets, s.frames = s.sets[:0], s.frames[:0]
	for i, set := range a.sets {
		if len(s.sets) == int(a.filled) {
			break
		}
		if set != nil {
			s.sets = append(s.sets, int32(i))
			s.frames = append(s.frames, set...)
		}
	}
}

// Restore returns the array to snapshot s, taken from it: the sets filled
// then hold their frames then, and a set first filled since is emptied,
// which Victim, Lookup and ForEach cannot tell from a set never filled.
// Frames stay where they are, as they always do.
func (a *Array) Restore(s *ArraySnapshot) {
	frames := s.frames
	for _, i := range s.sets {
		frames = frames[copy(a.sets[i], frames):]
	}
	if int(a.filled) == len(s.sets) {
		return // no set was first filled since
	}
	sets := s.sets
	for i, set := range a.sets {
		if len(sets) > 0 && sets[0] == int32(i) {
			sets = sets[1:]
		} else if set != nil {
			clear(set)
		}
	}
}
