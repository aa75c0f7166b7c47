package system

import (
	"fmt"

	"repro/internal/msg"
)

// Integrity is the data-value oracle. It exploits two facts about a correct
// coherence protocol:
//
//   - Writes to a line are totally ordered (ownership is exclusive), so the
//     per-line version counter carried in the payload must increase by
//     exactly one at every committed write, globally.
//   - Reads respect that order: a core can never observe an older version
//     of a line than one it previously read or wrote (per-core, per-line
//     monotonicity), and the value it reads must be the value that version
//     committed.
//
// A lost or stale data message that slipped through the protocol (for
// example after a mishandled reissue — the paper's Figure 2 scenario)
// manifests as a duplicated/skipped version or a value mismatch here.
//
// The oracle is flat: every hook does one address-to-slot lookup, and the
// rest are indexed reads and writes. A line gets its slot the first time a
// hook names it. lines[slot] holds the line's last committed version,
// whether any write ever committed (a version-0 commit and one later
// rolled back count, so a zero version does not answer "no write ever
// committed"), and the index of its newest history entry. history holds
// every committed (version, value) pair of every line, each chained to the
// line's previous commit, so a walk from the newest entry finds the newest
// commit of a version: a duplicated version resolves as a map overwrite
// would. Every version in a line's chain is at most its last version.
// floors holds the per-core monotonicity floors, slot*cores+core.
// Everything is built during the run, in pages that never move (paged),
// the first ones sized for the run (NewIntegrity); NewIntegrity and Reset
// allocate nothing past the oracle itself.
type Integrity struct {
	cores   int
	hint    int // the slot map's initial size
	slotOf  map[msg.Addr]int32
	lines   paged[lineRecord]
	history paged[commit]
	floors  paged[uint64] // slot*cores+core -> newest version the core observed
	errs    []string
}

// lineRecord is one line's entry in the oracle.
type lineRecord struct {
	last      uint64 // last committed version
	newest    int32  // index of the newest history entry, -1 for none
	committed bool   // some write ever committed
}

// commit is one committed version of a line, chained to the line's
// previous commit (prev, -1 for none).
type commit struct {
	version, value uint64
	prev           int32
}

// NewIntegrity builds an oracle for the given core count. accesses, the
// number of loads and stores the run will make (0 if unknown), bounds the
// lines and commits it can record: the slot map and first pages are sized
// for it when first used, so a short run allocates about what it records.
func NewIntegrity(cores, accesses int) *Integrity {
	accesses = max(accesses, 0)
	hint := min(accesses, pageLen)
	g := &Integrity{cores: cores, hint: hint}
	g.lines.first, g.history.first = hint, hint
	g.floors.first = min(accesses*cores, pageLen)
	return g
}

// Reset forgets every committed write, observation and error, returning
// the oracle to the state NewIntegrity leaves it in. The pages and the
// slot map's storage are kept.
func (g *Integrity) Reset() {
	clear(g.slotOf)
	g.lines.n, g.history.n, g.floors.n = 0, 0, 0
	g.errs = nil
}

// slot returns addr's slot, giving the line one on first use.
func (g *Integrity) slot(addr msg.Addr) int32 {
	if s, ok := g.slotOf[addr]; ok {
		return s
	}
	if g.slotOf == nil {
		g.slotOf = make(map[msg.Addr]int32, g.hint)
	}
	s := g.lines.push(lineRecord{newest: -1})
	g.slotOf[addr] = s
	for range g.cores {
		g.floors.push(0)
	}
	return s
}

// valueAt returns the value the newest commit of version wrote to the line
// in slot s, and whether any commit of it is in the line's history.
func (g *Integrity) valueAt(s int32, version uint64) (uint64, bool) {
	for i := g.lines.at(s).newest; i >= 0; {
		c := g.history.at(i)
		if c.version == version {
			return c.value, true
		}
		i = c.prev
	}
	return 0, false
}

// paged is an append-only sequence stored in pages of pageLen elements
// that never move, so growing it never copies what it holds: a long run
// allocates about its final size, where a slice grown by append allocates
// several times that. The first page starts with room for first elements
// and grows by append, so a short run allocates about what it holds.
// Truncating n to 0 empties the sequence and keeps the pages for reuse.
type paged[T any] struct {
	pages [][]T
	n     int32
	first int // the first page's initial capacity, at most pageLen
}

const pageBits = 10
const pageLen = 1 << pageBits

// at returns element i, which must be below n.
func (p *paged[T]) at(i int32) *T { return &p.pages[i>>pageBits][i&(pageLen-1)] }

// push appends v and returns its index.
func (p *paged[T]) push(v T) int32 {
	k, off := p.n>>pageBits, p.n&(pageLen-1)
	if int(k) == len(p.pages) {
		c := pageLen
		if k == 0 {
			c = p.first
		}
		p.pages = append(p.pages, make([]T, 0, c))
	}
	if page := &p.pages[k]; int(off) < len(*page) {
		(*page)[off] = v // a page kept by a reset
	} else {
		*page = append(*page, v)
	}
	p.n++
	return p.n - 1
}

// OnWriteCommit is the proto.WriteObserver hook, called by L1 controllers
// at the serialization point of every store.
func (g *Integrity) OnWriteCommit(addr msg.Addr, version, value uint64) {
	ln := g.lines.at(g.slot(addr))
	if want := ln.last + 1; version != want {
		g.fail("write to %#x committed version %d, want %d (lost or duplicated ownership)",
			addr, version, want)
	}
	ln.last = max(ln.last, version)
	ln.committed = true
	ln.newest = g.history.push(commit{version: version, value: value, prev: ln.newest})
}

// OnCoreWrite records the version a core observed its own store commit at.
func (g *Integrity) OnCoreWrite(coreID int, addr msg.Addr, version, value uint64) {
	s := g.slot(addr)
	g.observe(s, coreID, addr, version)
	if v, ok := g.valueAt(s, version); ok && v != value {
		g.fail("core %d write to %#x v%d returned value %#x, committed %#x",
			coreID, addr, version, value, v)
	}
}

// OnCoreRead checks a load's result against the committed history.
func (g *Integrity) OnCoreRead(coreID int, addr msg.Addr, version, value uint64) {
	s := g.slot(addr)
	g.observe(s, coreID, addr, version)
	if version == 0 {
		if value != 0 {
			g.fail("core %d read %#x v0 with nonzero value %#x", coreID, addr, value)
		}
		return
	}
	if !g.lines.at(s).committed {
		g.fail("core %d read %#x v%d but no write ever committed", coreID, addr, version)
		return
	}
	want, ok := g.valueAt(s, version)
	if !ok {
		g.fail("core %d read %#x v%d which was never committed", coreID, addr, version)
		return
	}
	if want != value {
		g.fail("core %d read %#x v%d value %#x, want %#x", coreID, addr, version, value, want)
	}
}

func (g *Integrity) observe(s int32, coreID int, addr msg.Addr, version uint64) {
	floor := g.floors.at(s*int32(g.cores) + int32(coreID))
	if prev := *floor; version < prev {
		g.fail("core %d observed %#x go backwards: v%d after v%d (stale data accepted)",
			coreID, addr, version, prev)
	}
	if version > *floor {
		*floor = version
	}
}

// AllowRegression informs the oracle that directory reconstruction rolled
// line addr back to version v: writes newer than v died with their tile
// before any surviving copy captured them, so the committed history is
// truncated at v and the per-core monotonicity floors are clamped down.
// Without this the first post-reconstruction access to an unrecoverable
// line would (correctly, but unhelpfully) trip the oracle — the rollback is
// deliberate and is accounted separately by the recovery verdict.
func (g *Integrity) AllowRegression(addr msg.Addr, v uint64) {
	s, ok := g.slotOf[addr]
	if !ok {
		return // never touched: no history, no floors
	}
	if ln := g.lines.at(s); ln.last > v {
		ln.last = v
		// Unlink every commit newer than v from the line's chain.
		link := &ln.newest
		for i := *link; i >= 0; {
			c := g.history.at(i)
			if c.version <= v {
				*link = i
				link = &c.prev
			}
			i = c.prev
		}
		*link = -1
	}
	for c := range int32(g.cores) {
		floor := g.floors.at(s*int32(g.cores) + c)
		*floor = min(*floor, v)
	}
}

// LastVersion returns the newest committed version of a line.
func (g *Integrity) LastVersion(addr msg.Addr) uint64 {
	if s, ok := g.slotOf[addr]; ok {
		return g.lines.at(s).last
	}
	return 0
}

// Errors returns all recorded violations.
func (g *Integrity) Errors() []string { return g.errs }

func (g *Integrity) fail(format string, args ...any) {
	if len(g.errs) < 100 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}
