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
// line ever committed". Integrity keeps flat per-line records and history
// chains; the differential test and fuzz target below require the two to
// report the identical errors, in the identical order, and the identical
// LastVersion.
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

// integrityCall is one hook call of a differential oracle script.
type integrityCall struct {
	op             int // 0 OnWriteCommit, 1 OnCoreRead, 2 OnCoreWrite, 3 AllowRegression
	core           int
	addr           msg.Addr
	version, value uint64
}

func (c integrityCall) String() string {
	switch c.op {
	case 0:
		return fmt.Sprintf("OnWriteCommit(%#x, %d, %#x)", c.addr, c.version, c.value)
	case 1:
		return fmt.Sprintf("OnCoreRead(%d, %#x, %d, %#x)", c.core, c.addr, c.version, c.value)
	case 2:
		return fmt.Sprintf("OnCoreWrite(%d, %#x, %d, %#x)", c.core, c.addr, c.version, c.value)
	default:
		return fmt.Sprintf("AllowRegression(%#x, %d)", c.addr, c.version)
	}
}

// oracleLine and oracleValue name the lines and the right values of the
// differential scripts.
func oracleLine(i int) msg.Addr                        { return msg.Addr(i * 0x40) }
func oracleValue(addr msg.Addr, version uint64) uint64 { return uint64(addr)<<16 | version }

// applyIntegrityCall makes call c on both oracles, then fails unless the
// call added the identical errors, in the identical order, to both and
// every line of lines has the same LastVersion on both. It then empties
// both error lists, so the 100-error cap never hides a later difference.
func applyIntegrityCall(t *testing.T, got *Integrity, ref *refIntegrity, c integrityCall, lines int, where string) {
	t.Helper()
	switch c.op {
	case 0:
		got.OnWriteCommit(c.addr, c.version, c.value)
		ref.OnWriteCommit(c.addr, c.version, c.value)
	case 1:
		got.OnCoreRead(c.core, c.addr, c.version, c.value)
		ref.OnCoreRead(c.core, c.addr, c.version, c.value)
	case 2:
		got.OnCoreWrite(c.core, c.addr, c.version, c.value)
		ref.OnCoreWrite(c.core, c.addr, c.version, c.value)
	default:
		got.AllowRegression(c.addr, c.version)
		ref.AllowRegression(c.addr, c.version)
	}
	if !reflect.DeepEqual(got.Errors(), ref.errs) {
		t.Fatalf("%s %s: errors\n%q\nwant\n%q", where, c, got.Errors(), ref.errs)
	}
	got.errs, ref.errs = got.errs[:0], ref.errs[:0]
	for i := 0; i < lines; i++ {
		if g, w := got.LastVersion(oracleLine(i)), ref.lastVersion[oracleLine(i)]; g != w {
			t.Fatalf("%s %s: LastVersion(%#x) = %d, want %d", where, c, oracleLine(i), g, w)
		}
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
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, ref := NewIntegrity(cores, 0), newRefIntegrity(cores)
		for step := 0; step < 300; step++ {
			c := integrityCall{addr: oracleLine(rng.Intn(lines)), core: rng.Intn(cores)}
			last := ref.lastVersion[c.addr]
			// A version near the line's history: 0, committed, next, or skipped.
			c.version = uint64(rng.Intn(int(last) + 3))
			c.value = oracleValue(c.addr, c.version)
			if rng.Intn(6) == 0 {
				c.value ^= 1 // a wrong value
			}
			switch op := rng.Intn(10); {
			case op < 4:
				switch rng.Intn(8) {
				case 0: // far ahead: rolling it back unlinks a long way
					c.version = last + 2 + uint64(rng.Intn(2000))
				case 1, 2: // near the history (duplicate, version 0, skip)
				default:
					c.version = last + 1
				}
				c.value = oracleValue(c.addr, c.version)
			case op < 7:
				c.op = 1
			case op < 9:
				c.op = 2
			default:
				c.op = 3
				c.version = uint64(rng.Intn(int(last) + 1))
				if rng.Intn(3) == 0 {
					c.version = 0
				}
			}
			applyIntegrityCall(t, got, ref, c, lines, fmt.Sprintf("seed %d step %d", seed, step))
		}
	}
}

// FuzzIntegrityMatchesOracle decodes the fuzz bytes into a call script,
// three bytes a call, and runs it against Integrity and the nested-map
// reference, which must report the identical errors and LastVersion after
// every call. The first byte picks the hook, the core and the line; the
// second the version: for a commit, the next version, a far-ahead one, a
// duplicated (or any older) one, or version 0; for a read or a write, any
// version from 0 to two past the line's last; for a rollback, any version
// up to the line's last. The third byte's low bit makes a read or write
// return a wrong value. A script can also grow a line's history long, with
// duplicates, and then roll it back. Scripts stop after 512 calls: a
// lookup walks a line's whole history, so longer ones only fuzz slower.
func FuzzIntegrityMatchesOracle(f *testing.F) {
	f.Add([]byte{0x00, 3, 0, 0x01, 0, 0, 0x04, 3, 0, 0x03, 0, 0})
	f.Add([]byte{0x00, 3, 0, 0x00, 3, 0, 0x00, 1, 0, 0x02, 2, 1, 0x03, 1, 0, 0x01, 2, 0})
	f.Add([]byte{0x00, 0, 200, 0x03, 5, 0, 0x00, 3, 0, 0x01, 1, 0, 0x11, 7, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		const cores, lines = 3, 4
		got, ref := NewIntegrity(cores, 0), newRefIntegrity(cores)
		for i := 0; i+2 < min(len(script), 3*512); i += 3 {
			b0, b1, b2 := script[i], script[i+1], script[i+2]
			c := integrityCall{op: int(b0 & 3), core: int(b0>>2&3) % cores, addr: oracleLine(int(b0>>4) % lines)}
			last := ref.lastVersion[c.addr]
			switch c.op {
			case 0:
				switch b1 % 4 {
				case 0:
					c.version = last + 2 + uint64(b2)*37
				case 1:
					c.version = uint64(b2) % (last + 1)
				case 2:
					c.version = 0
				default:
					c.version = last + 1
				}
				c.value = oracleValue(c.addr, c.version)
			case 1, 2:
				c.version = uint64(b1) % (last + 3)
				c.value = oracleValue(c.addr, c.version) ^ uint64(b2&1)
			default:
				c.version = uint64(b1) % (last + 1)
			}
			applyIntegrityCall(t, got, ref, c, lines, fmt.Sprintf("call %d", i/3))
		}
	})
}

// TestIntegrityAcrossPages drives the oracles past several pages of
// history, line records and floors (600 lines of 3 cores, long runs of
// commits, reads of old versions, rollbacks) and then again on the reset
// oracle, which must reuse its pages as if new.
func TestIntegrityAcrossPages(t *testing.T) {
	const cores, lines = 3, 600
	got := NewIntegrity(cores, 50)
	for round := 0; round < 2; round++ {
		rng := rand.New(rand.NewSource(int64(round + 1)))
		ref := newRefIntegrity(cores)
		got.Reset()
		for step := 0; step < 6000; step++ {
			c := integrityCall{addr: oracleLine(rng.Intn(lines)), core: rng.Intn(cores)}
			if step%3 == 0 {
				c.addr = oracleLine(step / 3 % 7) // a few lines with long histories
			}
			last := ref.lastVersion[c.addr]
			switch op := rng.Intn(10); {
			case op < 5:
				c.version = last + 1
				if rng.Intn(20) == 0 {
					c.version = uint64(rng.Intn(int(last) + 1))
				}
				c.value = oracleValue(c.addr, c.version)
			case op < 9:
				c.op = 1 + rng.Intn(2)
				c.version = uint64(rng.Intn(int(last) + 2))
				c.value = oracleValue(c.addr, c.version)
			default:
				c.op = 3
				c.version = uint64(rng.Intn(int(last) + 1))
			}
			applyIntegrityCall(t, got, ref, c, 8, fmt.Sprintf("round %d step %d", round, step))
		}
		if got.history.n <= 2*pageLen || got.floors.n <= pageLen {
			t.Fatalf("round %d: %d commits and %d floors do not cross pages", round, got.history.n, got.floors.n)
		}
	}
}

// TestIntegrityRolledBackCommitStillCommitted pins the edge the flat map
// must keep: a line whose only write was rolled back to 0 has still had a
// write committed, so reading a version of it reports "never committed",
// not "no write ever committed".
func TestIntegrityRolledBackCommitStillCommitted(t *testing.T) {
	g := NewIntegrity(1, 0)
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

// TestNewIntegrityAllocs pins the oracle's construction cost: it builds
// its records during the run, so NewIntegrity allocates only itself.
func TestNewIntegrityAllocs(t *testing.T) {
	const cores = 16
	var g *Integrity
	if n := testing.AllocsPerRun(10, func() { g = NewIntegrity(cores, 32000) }); n != 1 {
		t.Fatalf("NewIntegrity(%d, 32000): %.0f allocs, want 1", cores, n)
	}
	_ = g
}

// TestNewIntegrityNegativeAccesses: a negative access count means
// unknown, as 0 does, instead of sizing storage with it.
func TestNewIntegrityNegativeAccesses(t *testing.T) {
	g := NewIntegrity(2, -5)
	g.OnWriteCommit(0x40, 1, 7)
	g.OnCoreRead(1, 0x40, 1, 7)
	if errs := g.Errors(); len(errs) != 0 || g.LastVersion(0x40) != 1 {
		t.Fatalf("errors %q, last version %d", errs, g.LastVersion(0x40))
	}
}
