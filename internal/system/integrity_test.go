package system

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/msg"
)

// refIntegrity is the original data-value oracle, with the committed values
// held in a nested per-line map whose presence meant "some write to this
// line ever committed". Integrity keeps one map keyed by (line, version);
// the differential test below requires the two to report the identical
// errors, in the identical order, and the identical LastVersion.
type refIntegrity struct {
	lastVersion map[msg.Addr]uint64
	valueAt     map[msg.Addr]map[uint64]uint64
	coreSeen    []map[msg.Addr]uint64
	errs        []string
}

func newRefIntegrity(cores int) *refIntegrity {
	seen := make([]map[msg.Addr]uint64, cores)
	for i := range seen {
		seen[i] = make(map[msg.Addr]uint64)
	}
	return &refIntegrity{
		lastVersion: make(map[msg.Addr]uint64),
		valueAt:     make(map[msg.Addr]map[uint64]uint64),
		coreSeen:    seen,
	}
}

func (g *refIntegrity) OnWriteCommit(addr msg.Addr, version, value uint64) {
	if want := g.lastVersion[addr] + 1; version != want {
		g.fail("write to %#x committed version %d, want %d (lost or duplicated ownership)",
			addr, version, want)
	}
	if version > g.lastVersion[addr] {
		g.lastVersion[addr] = version
	}
	m := g.valueAt[addr]
	if m == nil {
		m = make(map[uint64]uint64)
		g.valueAt[addr] = m
	}
	m[version] = value
}

func (g *refIntegrity) OnCoreWrite(coreID int, addr msg.Addr, version, value uint64) {
	g.observe(coreID, addr, version)
	if m := g.valueAt[addr]; m != nil {
		if v, ok := m[version]; ok && v != value {
			g.fail("core %d write to %#x v%d returned value %#x, committed %#x",
				coreID, addr, version, value, v)
		}
	}
}

func (g *refIntegrity) OnCoreRead(coreID int, addr msg.Addr, version, value uint64) {
	g.observe(coreID, addr, version)
	if version == 0 {
		if value != 0 {
			g.fail("core %d read %#x v0 with nonzero value %#x", coreID, addr, value)
		}
		return
	}
	m := g.valueAt[addr]
	if m == nil {
		g.fail("core %d read %#x v%d but no write ever committed", coreID, addr, version)
		return
	}
	want, ok := m[version]
	if !ok {
		g.fail("core %d read %#x v%d which was never committed", coreID, addr, version)
		return
	}
	if want != value {
		g.fail("core %d read %#x v%d value %#x, want %#x", coreID, addr, version, value, want)
	}
}

func (g *refIntegrity) observe(coreID int, addr msg.Addr, version uint64) {
	seen := g.coreSeen[coreID]
	if prev := seen[addr]; version < prev {
		g.fail("core %d observed %#x go backwards: v%d after v%d (stale data accepted)",
			coreID, addr, version, prev)
	}
	if version > seen[addr] {
		seen[addr] = version
	}
}

func (g *refIntegrity) AllowRegression(addr msg.Addr, v uint64) {
	if g.lastVersion[addr] > v {
		g.lastVersion[addr] = v
	}
	if m := g.valueAt[addr]; m != nil {
		for ver := range m {
			if ver > v {
				delete(m, ver)
			}
		}
	}
	for _, seen := range g.coreSeen {
		if seen[addr] > v {
			seen[addr] = v
		}
	}
}

func (g *refIntegrity) fail(format string, args ...any) {
	if len(g.errs) < 100 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

// TestIntegrityMatchesNestedMapOracle drives Integrity and the nested-map
// reference with seeded random call sequences over a few lines and cores:
// in-order, duplicated, skipped and version-0 write commits, core reads and
// writes of committed, uncommitted and future versions with right and wrong
// values, and rollbacks (including to 0 and of lines whose only commit was
// rolled back). Each call's errors, in order, and every LastVersion must
// match.
func TestIntegrityMatchesNestedMapOracle(t *testing.T) {
	const cores, lines = 3, 4
	addrOf := func(i int) msg.Addr { return msg.Addr(i * 0x40) }
	valueOf := func(addr msg.Addr, version uint64) uint64 { return uint64(addr)<<16 | version }
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, ref := NewIntegrity(cores), newRefIntegrity(cores)
		for step := 0; step < 300; step++ {
			addr := addrOf(rng.Intn(lines))
			core := rng.Intn(cores)
			last := ref.lastVersion[addr]
			// A version near the line's history: 0, committed, next, or skipped.
			version := uint64(rng.Intn(int(last) + 3))
			value := valueOf(addr, version)
			if rng.Intn(6) == 0 {
				value ^= 1 // a wrong value
			}
			var call string
			switch op := rng.Intn(10); {
			case op < 4:
				switch rng.Intn(8) {
				case 0: // far ahead: rolling it back scans the map
					version = last + 2 + uint64(rng.Intn(2000))
				case 1, 2: // near the history (duplicate, version 0, skip)
				default:
					version = last + 1
				}
				value = valueOf(addr, version)
				call = fmt.Sprintf("OnWriteCommit(%#x, %d, %#x)", addr, version, value)
				got.OnWriteCommit(addr, version, value)
				ref.OnWriteCommit(addr, version, value)
			case op < 7:
				call = fmt.Sprintf("OnCoreRead(%d, %#x, %d, %#x)", core, addr, version, value)
				got.OnCoreRead(core, addr, version, value)
				ref.OnCoreRead(core, addr, version, value)
			case op < 9:
				call = fmt.Sprintf("OnCoreWrite(%d, %#x, %d, %#x)", core, addr, version, value)
				got.OnCoreWrite(core, addr, version, value)
				ref.OnCoreWrite(core, addr, version, value)
			default:
				v := uint64(rng.Intn(int(last) + 1))
				if rng.Intn(3) == 0 {
					v = 0
				}
				call = fmt.Sprintf("AllowRegression(%#x, %d)", addr, v)
				got.AllowRegression(addr, v)
				ref.AllowRegression(addr, v)
			}
			if !reflect.DeepEqual(got.Errors(), ref.errs) {
				t.Fatalf("seed %d step %d %s: errors\n%q\nwant\n%q", seed, step, call, got.Errors(), ref.errs)
			}
			// Compare each call's errors on their own, so the 100-error
			// cap never hides a later difference.
			got.errs, ref.errs = got.errs[:0], ref.errs[:0]
			for i := 0; i < lines; i++ {
				if g, w := got.LastVersion(addrOf(i)), ref.lastVersion[addrOf(i)]; g != w {
					t.Fatalf("seed %d step %d %s: LastVersion(%#x) = %d, want %d", seed, step, call, addrOf(i), g, w)
				}
			}
		}
	}
}

// TestIntegrityRolledBackCommitStillCommitted pins the edge the flat map
// must keep: a line whose only write was rolled back to 0 has still had a
// write committed, so reading a version of it reports "never committed",
// not "no write ever committed".
func TestIntegrityRolledBackCommitStillCommitted(t *testing.T) {
	g := NewIntegrity(1)
	g.OnWriteCommit(0x40, 1, 7)
	g.AllowRegression(0x40, 0)
	g.OnCoreRead(0, 0x40, 1, 7)
	g.OnCoreRead(0, 0x80, 1, 7)
	want := []string{
		"core 0 read 0x40 v1 which was never committed",
		"core 0 read 0x80 v1 but no write ever committed",
	}
	if !reflect.DeepEqual(g.Errors(), want) {
		t.Fatalf("errors %q, want %q", g.Errors(), want)
	}
	if g.LastVersion(0x40) != 0 {
		t.Fatalf("LastVersion after rollback to 0 = %d, want 0", g.LastVersion(0x40))
	}
}

// TestNewIntegrityAllocs pins the oracle's construction cost: the flat
// value map costs NewIntegrity no more allocations than the nested one did
// (17 for 16 cores, both ways, on go1.24).
func TestNewIntegrityAllocs(t *testing.T) {
	const cores = 16
	got := testing.AllocsPerRun(10, func() { NewIntegrity(cores) })
	want := testing.AllocsPerRun(10, func() { newRefIntegrity(cores) })
	if got > want {
		t.Fatalf("NewIntegrity(%d): %.0f allocs, nested-map oracle %.0f", cores, got, want)
	}
}
