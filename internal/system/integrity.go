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
// lastVersion holds an entry for every line that ever committed a write,
// including a version-0 commit and one later rolled back, so its key set
// (not a zero version) answers "no write ever committed". Every version
// valueAt holds for a line is at most the line's lastVersion.
type Integrity struct {
	lastVersion map[msg.Addr]uint64    // last committed version per line
	valueAt     map[lineVersion]uint64 // (line, version) -> committed value
	coreSeen    []map[msg.Addr]uint64  // per-core last observed version
	errs        []string
}

// lineVersion keys one committed version of one line.
type lineVersion struct {
	addr    msg.Addr
	version uint64
}

// NewIntegrity builds an oracle for the given core count.
func NewIntegrity(cores int) *Integrity {
	seen := make([]map[msg.Addr]uint64, cores)
	for i := range seen {
		seen[i] = make(map[msg.Addr]uint64)
	}
	return &Integrity{
		lastVersion: make(map[msg.Addr]uint64),
		valueAt:     make(map[lineVersion]uint64),
		coreSeen:    seen,
	}
}

// Reset forgets every committed write, observation and error, returning
// the oracle to the state NewIntegrity leaves it in. The maps are cleared,
// not reallocated.
func (g *Integrity) Reset() {
	clear(g.lastVersion)
	clear(g.valueAt)
	for _, seen := range g.coreSeen {
		clear(seen)
	}
	g.errs = nil
}

// OnWriteCommit is the proto.WriteObserver hook, called by L1 controllers
// at the serialization point of every store.
func (g *Integrity) OnWriteCommit(addr msg.Addr, version, value uint64) {
	last := g.lastVersion[addr]
	if want := last + 1; version != want {
		g.fail("write to %#x committed version %d, want %d (lost or duplicated ownership)",
			addr, version, want)
	}
	g.lastVersion[addr] = max(last, version)
	g.valueAt[lineVersion{addr, version}] = value
}

// OnCoreWrite records the version a core observed its own store commit at.
func (g *Integrity) OnCoreWrite(coreID int, addr msg.Addr, version, value uint64) {
	g.observe(coreID, addr, version)
	if v, ok := g.valueAt[lineVersion{addr, version}]; ok && v != value {
		g.fail("core %d write to %#x v%d returned value %#x, committed %#x",
			coreID, addr, version, value, v)
	}
}

// OnCoreRead checks a load's result against the committed history.
func (g *Integrity) OnCoreRead(coreID int, addr msg.Addr, version, value uint64) {
	g.observe(coreID, addr, version)
	if version == 0 {
		if value != 0 {
			g.fail("core %d read %#x v0 with nonzero value %#x", coreID, addr, value)
		}
		return
	}
	if _, ok := g.lastVersion[addr]; !ok {
		g.fail("core %d read %#x v%d but no write ever committed", coreID, addr, version)
		return
	}
	want, ok := g.valueAt[lineVersion{addr, version}]
	if !ok {
		g.fail("core %d read %#x v%d which was never committed", coreID, addr, version)
		return
	}
	if want != value {
		g.fail("core %d read %#x v%d value %#x, want %#x", coreID, addr, version, value, want)
	}
}

func (g *Integrity) observe(coreID int, addr msg.Addr, version uint64) {
	seen := g.coreSeen[coreID]
	if prev := seen[addr]; version < prev {
		g.fail("core %d observed %#x go backwards: v%d after v%d (stale data accepted)",
			coreID, addr, version, prev)
	}
	if version > seen[addr] {
		seen[addr] = version
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
	if last := g.lastVersion[addr]; last > v {
		g.lastVersion[addr] = v
		// Truncate the history at v: versions v+1..last, or a scan of the
		// map when that range is the larger (a wildly skipped version).
		if last-v <= uint64(len(g.valueAt)) {
			for ver := v + 1; ver <= last; ver++ {
				delete(g.valueAt, lineVersion{addr, ver})
			}
		} else {
			for k := range g.valueAt {
				if k.addr == addr && k.version > v {
					delete(g.valueAt, k)
				}
			}
		}
	}
	for _, seen := range g.coreSeen {
		if seen[addr] > v {
			seen[addr] = v
		}
	}
}

// LastVersion returns the newest committed version of a line.
func (g *Integrity) LastVersion(addr msg.Addr) uint64 { return g.lastVersion[addr] }

// Errors returns all recorded violations.
func (g *Integrity) Errors() []string { return g.errs }

func (g *Integrity) fail(format string, args ...any) {
	if len(g.errs) < 100 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}
