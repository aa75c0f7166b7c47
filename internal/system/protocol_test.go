package system

// Scripted protocol-level scenarios driven through the CPU-side ports,
// validating individual coherence transactions of both protocols: grant
// types, invalidation counting, cache-to-cache transfers, three-phase
// writebacks, L2 recall, the migratory optimization, and the FtDirCMP
// ownership handshake with its recovery paths.

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/proto"
)

// script drives a system synchronously for scenario tests.
type script struct {
	t *testing.T
	s *System
}

func newScript(t *testing.T, cfg Config) *script {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &script{t: t, s: s}
}

func (sc *script) access(core int, addr msg.Addr, write bool, val uint64) proto.AccessResult {
	sc.t.Helper()
	var res proto.AccessResult
	done := false
	port := sc.s.Ports()[core]
	cb := func(r proto.AccessResult) { res = r; done = true }
	if write {
		port.Write(addr, val, cb)
	} else {
		port.Read(addr, cb)
	}
	if !sc.s.Engine().RunUntil(50_000_000, func() bool { return done }) {
		sc.t.Fatalf("core %d access to %#x never completed", core, addr)
	}
	return res
}

func (sc *script) write(core int, addr msg.Addr, val uint64) proto.AccessResult {
	return sc.access(core, addr, true, val)
}

func (sc *script) read(core int, addr msg.Addr) proto.AccessResult {
	return sc.access(core, addr, false, 0)
}

// drain runs the engine until quiescence and checks coherence.
func (sc *script) drain() {
	sc.t.Helper()
	if err := sc.s.Engine().Run(100_000_000); err != nil {
		sc.t.Fatalf("drain: %v", err)
	}
	if errs := sc.s.CheckCoherence(); len(errs) > 0 {
		sc.t.Fatalf("coherence: %v", errs[0])
	}
}

func (sc *script) sent(t msg.Type) uint64 {
	return sc.s.Stats().Net.SentByType[t]
}

func scriptConfig(p Protocol) Config {
	cfg := smallConfig(p)
	cfg.CheckIntegrity = true
	return cfg
}

func bothProtocols(t *testing.T, fn func(t *testing.T, p Protocol)) {
	for _, p := range []Protocol{DirCMP, FtDirCMP} {
		p := p
		t.Run(p.String(), func(t *testing.T) { fn(t, p) })
	}
}

func TestExclusiveGrantMakesWritesHit(t *testing.T) {
	bothProtocols(t, func(t *testing.T, p Protocol) {
		sc := newScript(t, scriptConfig(p))
		if res := sc.read(0, 0x1000); res.Value != 0 || res.Version != 0 {
			t.Fatalf("initial read = %+v", res)
		}
		// The read was granted E (no sharers), so the write hits locally.
		sc.write(0, 0x1000, 42)
		st := sc.s.Stats().Proto
		if st.WriteMisses != 0 {
			t.Fatalf("write missed despite E grant (misses=%d)", st.WriteMisses)
		}
		if st.WriteHits != 1 {
			t.Fatalf("write hits = %d", st.WriteHits)
		}
		sc.drain()
	})
}

func TestWriteInvalidatesSharers(t *testing.T) {
	bothProtocols(t, func(t *testing.T, p Protocol) {
		sc := newScript(t, scriptConfig(p))
		const addr = 0x2000
		sc.read(0, addr)
		sc.read(1, addr)
		sc.read(2, addr)
		invBefore := sc.sent(msg.Inv)
		res := sc.write(3, addr, 7)
		if res.Version != 1 || res.Value != 7 {
			t.Fatalf("write result %+v", res)
		}
		// Core 3 was not a sharer; at least the other sharers beyond the
		// data source get invalidations (the source may hand over data).
		if got := sc.sent(msg.Inv) - invBefore; got < 2 {
			t.Fatalf("sent %d invalidations, want >=2", got)
		}
		// A subsequent read by an old sharer sees the new value.
		if res := sc.read(1, addr); res.Value != 7 || res.Version != 1 {
			t.Fatalf("stale read after invalidation: %+v", res)
		}
		sc.drain()
	})
}

func TestCacheToCacheOwnershipChange(t *testing.T) {
	bothProtocols(t, func(t *testing.T, p Protocol) {
		sc := newScript(t, scriptConfig(p))
		const addr = 0x3000
		sc.write(0, addr, 1)
		res := sc.write(1, addr, 2)
		if res.Version != 2 {
			t.Fatalf("second write version %d", res.Version)
		}
		st := sc.s.Stats().Proto
		if st.CacheToCacheTransfers == 0 {
			t.Fatal("no cache-to-cache transfer happened")
		}
		if p == FtDirCMP {
			if st.AcksOSent == 0 {
				t.Fatal("ownership moved without AckO")
			}
			if sc.sent(msg.AckBD) == 0 {
				t.Fatal("no backup deletion acknowledgment")
			}
		} else if sc.sent(msg.AckO) != 0 {
			t.Fatal("DirCMP sent FtDirCMP messages")
		}
		if res := sc.read(0, addr); res.Value != 2 {
			t.Fatalf("read after transfer: %+v", res)
		}
		sc.drain()
	})
}

func TestOwnerUpgradeIsDataless(t *testing.T) {
	bothProtocols(t, func(t *testing.T, p Protocol) {
		sc := newScript(t, scriptConfig(p))
		const addr = 0x4000
		sc.write(0, addr, 1) // core 0: M
		sc.read(1, addr)     // core 0: O, core 1: S
		bytesBefore := sc.s.Stats().Net.TotalBytes()
		res := sc.write(0, addr, 2) // owner upgrade: dataless DataEx + Inv
		if res.Version != 2 {
			t.Fatalf("upgrade version %d", res.Version)
		}
		// The grant carries no payload, so the byte delta of this whole
		// transaction stays below one data message over the minimum of
		// four control messages (GetX, DataEx-grant, Inv, Ack, UnblockEx).
		delta := sc.s.Stats().Net.TotalBytes() - bytesBefore
		if delta >= 72+4*8 {
			t.Fatalf("upgrade moved %d bytes — payload was not elided", delta)
		}
		if res := sc.read(1, addr); res.Value != 2 {
			t.Fatalf("sharer after upgrade: %+v", res)
		}
		sc.drain()
	})
}

func TestThreePhaseWriteback(t *testing.T) {
	bothProtocols(t, func(t *testing.T, p Protocol) {
		cfg := scriptConfig(p)
		cfg.Params.L1Size = 2 * 64 * 2 // 2 sets, 2 ways: tiny
		cfg.Params.L1Ways = 2
		sc := newScript(t, cfg)
		// Fill one set with dirty lines, then overflow it.
		setStride := msg.Addr(2 * 64)
		base := msg.Addr(0x8000)
		for i := 0; i < 3; i++ {
			sc.write(0, base+msg.Addr(i)*setStride, uint64(100+i))
		}
		sc.drain()
		st := sc.s.Stats().Proto
		if st.Writebacks == 0 {
			t.Fatal("no writeback happened")
		}
		if sc.sent(msg.Put) == 0 || sc.sent(msg.WbAck) == 0 || sc.sent(msg.WbData) == 0 {
			t.Fatalf("three-phase messages missing: Put=%d WbAck=%d WbData=%d",
				sc.sent(msg.Put), sc.sent(msg.WbAck), sc.sent(msg.WbData))
		}
		// The evicted data survives in the L2.
		for i := 0; i < 3; i++ {
			if res := sc.read(0, base+msg.Addr(i)*setStride); res.Value != uint64(100+i) {
				t.Fatalf("line %d lost its data: %+v", i, res)
			}
		}
		sc.drain()
	})
}

func TestL2RecallOnEviction(t *testing.T) {
	bothProtocols(t, func(t *testing.T, p Protocol) {
		cfg := scriptConfig(p)
		cfg.Params.L2Size = 2 * 64 * 2 // 2 sets, 2 ways per bank: tiny
		cfg.Params.L2Ways = 2
		sc := newScript(t, cfg)
		tiles := cfg.Tiles()
		// Own a dirty line in an L1, then thrash its L2 set from another
		// core until the directory must recall it.
		victim := msg.Addr(0)
		sc.write(0, victim, 999)
		l2SetStride := msg.Addr(2*64) * msg.Addr(tiles) // same bank, same set
		for i := 1; i <= 4; i++ {
			sc.read(1, victim+msg.Addr(i)*l2SetStride)
		}
		sc.drain()
		if sc.s.Stats().Proto.L2Recalls == 0 {
			t.Fatal("no recall happened")
		}
		// The recalled dirty data survives in memory.
		if res := sc.read(2, victim); res.Value != 999 || res.Version != 1 {
			t.Fatalf("recalled line corrupted: %+v", res)
		}
		sc.drain()
	})
}

func TestMigratoryOptimizationDetects(t *testing.T) {
	bothProtocols(t, func(t *testing.T, p Protocol) {
		sc := newScript(t, scriptConfig(p))
		const addr = 0x6000
		// Core 0 then core 1 then core 2 perform read-modify-write: from
		// the second migration on, the directory grants exclusive on the
		// read.
		for core := 0; core < 3; core++ {
			sc.read(core, addr)
			sc.write(core, addr, uint64(core))
		}
		st := sc.s.Stats().Proto
		if st.MigratoryGrants == 0 {
			t.Fatal("migratory pattern not detected")
		}
		// The migratory read already brought write permission, so the
		// write that follows it hits locally.
		hitsBefore := st.WriteHits
		sc.read(3, addr)
		sc.write(3, addr, 77)
		if sc.s.Stats().Proto.WriteHits != hitsBefore+1 {
			t.Fatal("write after migratory read missed")
		}
		sc.drain()
	})
}

func TestMigratoryDisabledNeverGrants(t *testing.T) {
	cfg := scriptConfig(FtDirCMP)
	cfg.Params.MigratoryOpt = false
	sc := newScript(t, cfg)
	const addr = 0x6100
	for core := 0; core < 4; core++ {
		sc.read(core, addr)
		sc.write(core, addr, uint64(core))
	}
	if sc.s.Stats().Proto.MigratoryGrants != 0 {
		t.Fatal("migratory grants despite disabled optimization")
	}
	sc.drain()
}

func TestSilentSharedEvictionTolerated(t *testing.T) {
	bothProtocols(t, func(t *testing.T, p Protocol) {
		cfg := scriptConfig(p)
		cfg.Params.L1Size = 1 * 64 * 2 // 1 set, 2 ways
		cfg.Params.L1Ways = 2
		sc := newScript(t, cfg)
		// Core 1 shares three lines; only two fit, so one S copy drops
		// silently and the directory's sharer list goes stale.
		addrs := []msg.Addr{0x0, 0x40, 0x80}
		for _, a := range addrs {
			sc.read(1, a)
		}
		// A writer invalidates all recorded sharers; the stale sharer must
		// acknowledge a line it no longer has.
		for i, a := range addrs {
			if res := sc.write(0, a, uint64(i)); res.Version != 1 {
				t.Fatalf("write to %#x: %+v", a, res)
			}
		}
		sc.drain()
	})
}

func TestPiggybackedAckOOnL2Grants(t *testing.T) {
	sc := newScript(t, scriptConfig(FtDirCMP))
	// Misses served by the L2 (or memory through the L2) piggyback the
	// AckO on the UnblockEx: no standalone AckO messages appear.
	for i := 0; i < 8; i++ {
		sc.write(0, msg.Addr(0x9000+i*64), uint64(i))
	}
	sc.drain()
	st := sc.s.Stats().Proto
	if st.AcksOSent == 0 || st.PiggybackedAcksO != st.AcksOSent {
		t.Fatalf("AckO=%d piggybacked=%d — L2 grants must always piggyback",
			st.AcksOSent, st.PiggybackedAcksO)
	}
	if sc.sent(msg.AckO) != 0 {
		t.Fatalf("%d standalone AckO messages on the fault-free L2 path", sc.sent(msg.AckO))
	}
}

func TestFigure1MessageCounts(t *testing.T) {
	// The Figure 1 transaction: cache-to-cache write miss. FtDirCMP adds
	// exactly one AckO and one AckBD over DirCMP on this exchange.
	counts := make(map[Protocol][2]uint64)
	for _, p := range []Protocol{DirCMP, FtDirCMP} {
		sc := newScript(t, scriptConfig(p))
		const addr = 0xa000
		sc.write(1, addr, 1)
		sc.drain()
		ackOBefore, ackBDBefore := sc.sent(msg.AckO), sc.sent(msg.AckBD)
		sc.write(0, addr, 2)
		sc.drain()
		counts[p] = [2]uint64{sc.sent(msg.AckO) - ackOBefore, sc.sent(msg.AckBD) - ackBDBefore}
	}
	if counts[DirCMP] != [2]uint64{0, 0} {
		t.Fatalf("DirCMP sent ownership acks: %v", counts[DirCMP])
	}
	if counts[FtDirCMP] != [2]uint64{1, 1} {
		t.Fatalf("FtDirCMP cache-to-cache handshake sent %v AckO/AckBD, want 1/1", counts[FtDirCMP])
	}
}

// --- FtDirCMP recovery-path scenarios ---

func TestLostAckBDRecoversByResendingAckO(t *testing.T) {
	cfg := scriptConfig(FtDirCMP)
	cfg.Injector = fault.NewNthOfType(msg.AckBD, 1)
	sc := newScript(t, cfg)
	const addr = 0xb000
	sc.write(1, addr, 1)
	sc.write(0, addr, 2) // cache-to-cache: AckO -> AckBD(dropped)
	sc.drain()
	st := sc.s.Stats().Proto
	if st.LostAckBDTimeouts == 0 {
		t.Fatal("lost AckBD timeout never fired")
	}
	if res := sc.read(2, addr); res.Value != 2 {
		t.Fatalf("data wrong after recovery: %+v", res)
	}
	sc.drain()
}

func TestLostAckOTriggersOwnershipPing(t *testing.T) {
	cfg := scriptConfig(FtDirCMP)
	// Make the receiver's lost-AckBD timer much slower than the backup
	// timer so the backup holder's OwnershipPing drives recovery.
	cfg.Params.LostAckBDTimeout = 500_000
	cfg.Params.BackupTimeout = 500
	cfg.Injector = fault.NewNthOfType(msg.AckO, 1)
	sc := newScript(t, cfg)
	const addr = 0xc000
	sc.write(1, addr, 1)
	sc.write(0, addr, 2) // the standalone AckO from core 0 is dropped
	sc.drain()
	st := sc.s.Stats().Proto
	if st.BackupTimeouts == 0 {
		t.Fatal("backup timeout never fired")
	}
	if sc.sent(msg.OwnershipPing) == 0 {
		t.Fatal("no OwnershipPing sent")
	}
	sc.drain()
}

func TestNackOWhenReceiverHasNoOwnership(t *testing.T) {
	cfg := scriptConfig(FtDirCMP)
	// Drop the forwarded DataEx; ping the receiver before it reissues.
	cfg.Params.LostRequestTimeout = 20_000
	cfg.Params.BackupTimeout = 500
	cfg.Injector = fault.NewNthOfType(msg.DataEx, 4)
	sc := newScript(t, cfg)
	const addr = 0xd000
	sc.write(1, addr, 1) // DataEx #1 (mem->L2), #2 (L2->L1)
	sc.write(0, addr, 2) // DataEx #4 is... stage a few extra to hit the fwd
	sc.drain()
	if sc.sent(msg.NackO) == 0 {
		t.Skip("drop did not land on the forwarded DataEx in this schedule")
	}
	if res := sc.read(2, addr); res.Value != 2 {
		t.Fatalf("data wrong after NackO recovery: %+v", res)
	}
	sc.drain()
}

func TestWbCancelAfterLostCleanEviction(t *testing.T) {
	cfg := scriptConfig(FtDirCMP)
	cfg.Params.L2Size = 2 * 64 * 2
	cfg.Params.L2Ways = 2
	cfg.Injector = fault.NewNthOfType(msg.WbNoData, 1)
	sc := newScript(t, cfg)
	tiles := cfg.Tiles()
	// Read (clean) lines thrashing one L2 set: clean evictions send
	// WbNoData to memory; the first one is lost and memory's WbPing is
	// answered with WbCancel.
	l2SetStride := msg.Addr(2*64) * msg.Addr(tiles)
	for i := 0; i < 6; i++ {
		sc.read(0, msg.Addr(i)*l2SetStride)
	}
	sc.drain()
	inj, ok := cfg.Injector.(*fault.NthOfType)
	if !ok {
		t.Fatal("injector type")
	}
	if !inj.Fired() {
		t.Skip("no WbNoData occurred in this schedule")
	}
	if sc.sent(msg.WbCancel) == 0 {
		t.Fatal("lost WbNoData not recovered via WbCancel")
	}
	// The line remains fetchable afterwards (memory ownership cleared).
	for i := 0; i < 6; i++ {
		sc.read(1, msg.Addr(i)*l2SetStride)
	}
	sc.drain()
}

func TestLostUnblockPingResendsUnblock(t *testing.T) {
	cfg := scriptConfig(FtDirCMP)
	cfg.Injector = fault.NewNthOfType(msg.UnblockEx, 2)
	sc := newScript(t, cfg)
	const addr = 0xe000
	sc.write(0, addr, 1)
	sc.write(1, addr, 2)
	sc.drain()
	st := sc.s.Stats().Proto
	if st.LostUnblockTimeouts == 0 {
		t.Fatal("lost unblock timeout never fired")
	}
	if sc.sent(msg.UnblockPing) == 0 {
		t.Fatal("no UnblockPing sent")
	}
	sc.drain()
}

func TestDirtyDataSurvivesLostWbData(t *testing.T) {
	cfg := scriptConfig(FtDirCMP)
	cfg.Params.L1Size = 2 * 64 * 2
	cfg.Params.L1Ways = 2
	cfg.Injector = fault.NewNthOfType(msg.WbData, 1)
	sc := newScript(t, cfg)
	setStride := msg.Addr(2 * 64)
	base := msg.Addr(0xf000)
	for i := 0; i < 3; i++ {
		sc.write(0, base+msg.Addr(i)*setStride, uint64(200+i))
	}
	sc.drain()
	if sc.sent(msg.WbPing) == 0 {
		t.Fatal("lost WbData not detected")
	}
	for i := 0; i < 3; i++ {
		if res := sc.read(1, base+msg.Addr(i)*setStride); res.Value != uint64(200+i) {
			t.Fatalf("dirty line %d lost: %+v", i, res)
		}
	}
	sc.drain()
}

func TestBlockedOwnershipDefersForwards(t *testing.T) {
	// Core 0 receives ownership cache-to-cache but its AckBD is lost, so
	// it sits in a blocked-ownership state (Mb). A forward for the same
	// line arriving meanwhile must be deferred — not answered, not lost —
	// and replayed once the lost-AckBD timeout resends the AckO and the
	// AckBD arrives.
	cfg := scriptConfig(FtDirCMP)
	cfg.Injector = fault.NewNthOfType(msg.AckBD, 1)
	sc := newScript(t, cfg)
	const addr = 0x11c0
	sc.write(1, addr, 1) // owner: core 1
	// Core 0 takes ownership; its miss completes even though the AckBD
	// (dropped) leaves it blocked.
	if res := sc.write(0, addr, 2); res.Version != 2 {
		t.Fatalf("blocked write result: %+v", res)
	}
	// While core 0 is still blocked, core 2 wants the line.
	if res := sc.write(2, addr, 3); res.Version != 3 || res.Value != 3 {
		t.Fatalf("deferred transfer result: %+v", res)
	}
	sc.drain()
	if sc.s.Stats().Proto.LostAckBDTimeouts == 0 {
		t.Fatal("the AckBD loss was never detected")
	}
	if res := sc.read(3, addr); res.Value != 3 || res.Version != 3 {
		t.Fatalf("final value wrong: %+v", res)
	}
	sc.drain()
}

func TestBackupResendsOnReissuedForward(t *testing.T) {
	// The DataEx of a cache-to-cache transfer is lost; the requester's
	// lost-request timeout reissues the GetX; the L2 re-forwards it to the
	// old owner, which now only holds a backup — and must resend the data
	// from it (§3.2: "a node which holds a line in backup state should
	// also detect reissued requests").
	cfg := scriptConfig(FtDirCMP)
	// DataEx #1: mem->L2 for core 1's fetch; #2: L2->core1; the plain
	// GetS by core 2 produces a Data (not DataEx); #3 is the forwarded
	// GetX response core1 -> core0, the one we drop.
	inj := fault.NewNthOfType(msg.DataEx, 3)
	cfg.Injector = inj
	sc := newScript(t, cfg)
	const addr = 0x12c0
	sc.write(1, addr, 1)
	sc.read(2, addr)
	if res := sc.write(0, addr, 2); res.Value != 2 {
		t.Fatalf("write after drop: %+v", res)
	}
	sc.drain()
	if !inj.Fired() {
		t.Fatal("the targeted DataEx was never sent — restage the scenario")
	}
	st := sc.s.Stats().Proto
	if st.LostRequestTimeouts == 0 {
		t.Fatal("the lost forwarded response was never detected")
	}
	if res := sc.read(3, addr); res.Value != 2 {
		t.Fatalf("data lost: %+v", res)
	}
	sc.drain()
}
