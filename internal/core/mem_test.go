package core

// White-box tests for the FtDirCMP memory controller.

import (
	"testing"

	"repro/internal/memctrl"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

func testMem(t *testing.T) (*Mem, *fakeNet, *sim.Engine, proto.Topology) {
	t.Helper()
	topo := proto.Topology{Tiles: 4, Mems: 2, LineSize: 64}
	engine := sim.NewEngine()
	net := &fakeNet{}
	run := stats.NewRun("FtDirCMP", "unit")
	m := NewMem(topo.Mem(0), topo, testParams(), engine, net, run, memctrl.NewStore(), true)
	return m, net, engine, topo
}

// runFor executes events for a bounded window; with re-arming ping timers
// the queue never drains, so unbounded Run(0) would spin forever.
func runFor(e *sim.Engine, cycles uint64) {
	limit := e.Now() + cycles
	e.RunUntil(limit, func() bool { return false })
}

// memAddr returns a line homed at memory controller 0.
func memAddr(topo proto.Topology) msg.Addr {
	for line := uint64(0); ; line++ {
		addr := msg.Addr(line * uint64(topo.LineSize))
		if topo.HomeMem(addr) == topo.Mem(0) {
			return addr
		}
	}
}

func TestMemFetchGrantAndUnblock(t *testing.T) {
	m, net, engine, topo := testMem(t)
	addr := memAddr(topo)
	l2 := topo.L2(0)
	m.Handle(&msg.Message{Type: msg.GetX, Src: l2, Dst: m.id, Addr: addr, SN: 7})
	// The DataEx is delayed by the access latency.
	if net.lastOfType(msg.DataEx) != nil {
		t.Fatal("data before the memory latency elapsed")
	}
	runFor(engine, 500)
	dx := net.lastOfType(msg.DataEx)
	if dx == nil || dx.Dst != l2 || dx.SN != 7 {
		t.Fatalf("grant wrong: %v", net.sent)
	}
	if !m.Owned(addr) {
		t.Fatal("ownership not recorded")
	}
	net.take()
	m.Handle(&msg.Message{Type: msg.UnblockEx, Src: l2, Dst: m.id, Addr: addr, SN: 7, PiggybackAckO: true})
	bd := net.lastOfType(msg.AckBD)
	if bd == nil || bd.Dst != l2 || bd.SN != 7 {
		t.Fatalf("piggybacked AckO unanswered: %v", net.sent)
	}
	if !m.Quiesced() {
		t.Fatal("transaction not closed")
	}
}

func TestMemReissuedFetchResendsData(t *testing.T) {
	m, net, engine, topo := testMem(t)
	addr := memAddr(topo)
	l2 := topo.L2(0)
	m.Handle(&msg.Message{Type: msg.GetX, Src: l2, Dst: m.id, Addr: addr, SN: 7})
	runFor(engine, 500)
	net.take()
	// The L2 reissues the fetch: the data is re-sent with the new number.
	m.Handle(&msg.Message{Type: msg.GetX, Src: l2, Dst: m.id, Addr: addr, SN: 8})
	dx := net.lastOfType(msg.DataEx)
	if dx == nil || dx.SN != 8 {
		t.Fatalf("reissued fetch unanswered: %v", net.sent)
	}
}

func TestMemWbDataHandshakeBlocksQueue(t *testing.T) {
	m, net, engine, topo := testMem(t)
	addr := memAddr(topo)
	l2 := topo.L2(0)
	// Give the chip the line first.
	m.Handle(&msg.Message{Type: msg.GetX, Src: l2, Dst: m.id, Addr: addr, SN: 7})
	runFor(engine, 500)
	m.Handle(&msg.Message{Type: msg.UnblockEx, Src: l2, Dst: m.id, Addr: addr, SN: 7, PiggybackAckO: true})
	net.take()
	// Eviction: Put, WbData.
	m.Handle(&msg.Message{Type: msg.Put, Src: l2, Dst: m.id, Addr: addr, SN: 9})
	wa := net.lastOfType(msg.WbAck)
	if wa == nil || !wa.WantData {
		t.Fatalf("no WbAck(WantData): %v", net.sent)
	}
	net.take()
	m.Handle(&msg.Message{
		Type: msg.WbData, Src: l2, Dst: m.id, Addr: addr, SN: 9,
		Payload: msg.Payload{Value: 3, Version: 5}, Dirty: true,
	})
	if a := net.lastOfType(msg.AckO); a == nil || a.SN != 9 {
		t.Fatalf("no AckO for the writeback: %v", net.sent)
	}
	if m.Owned(addr) {
		t.Fatal("ownership not returned")
	}
	net.take()
	// A refetch queued behind the open handshake must wait for the AckBD.
	m.Handle(&msg.Message{Type: msg.GetX, Src: l2, Dst: m.id, Addr: addr, SN: 11})
	runFor(engine, 500)
	if net.lastOfType(msg.DataEx) != nil {
		t.Fatal("refetch serviced while the backup handshake is open")
	}
	m.Handle(&msg.Message{Type: msg.AckBD, Src: l2, Dst: m.id, Addr: addr, SN: 9})
	runFor(engine, 500)
	dx := net.lastOfType(msg.DataEx)
	if dx == nil || dx.SN != 11 || dx.Payload.Version != 5 {
		t.Fatalf("queued refetch wrong: %v", net.sent)
	}
}

func TestMemStaleGetXAfterCloseAnswersWithoutStateChange(t *testing.T) {
	m, net, engine, topo := testMem(t)
	addr := memAddr(topo)
	l2 := topo.L2(0)
	m.Handle(&msg.Message{Type: msg.GetX, Src: l2, Dst: m.id, Addr: addr, SN: 7})
	runFor(engine, 500)
	m.Handle(&msg.Message{Type: msg.UnblockEx, Src: l2, Dst: m.id, Addr: addr, SN: 7, PiggybackAckO: true})
	net.take()
	// A superseded fetch attempt arrives after everything closed.
	m.Handle(&msg.Message{Type: msg.GetX, Src: l2, Dst: m.id, Addr: addr, SN: 6})
	dx := net.lastOfType(msg.DataEx)
	if dx == nil || dx.SN != 6 {
		t.Fatalf("stale fetch must be answered idempotently: %v", net.sent)
	}
	if !m.Owned(addr) || !m.Quiesced() {
		t.Fatal("stale fetch changed state")
	}
}

func TestMemOwnershipPingAnswers(t *testing.T) {
	m, net, engine, topo := testMem(t)
	addr := memAddr(topo)
	l2 := topo.L2(0)
	// Chip owns the line and pings (its WbData lost?): memory is still
	// waiting for the data → NackO.
	m.Handle(&msg.Message{Type: msg.GetX, Src: l2, Dst: m.id, Addr: addr, SN: 7})
	runFor(engine, 500)
	m.Handle(&msg.Message{Type: msg.UnblockEx, Src: l2, Dst: m.id, Addr: addr, SN: 7, PiggybackAckO: true})
	m.Handle(&msg.Message{Type: msg.Put, Src: l2, Dst: m.id, Addr: addr, SN: 9})
	net.take()
	m.Handle(&msg.Message{Type: msg.OwnershipPing, Src: l2, Dst: m.id, Addr: addr, SN: 2})
	if n := net.lastOfType(msg.NackO); n == nil {
		t.Fatalf("want NackO while waiting for WbData: %v", net.sent)
	}
	net.take()
	// After the data arrives, the same ping is confirmed.
	m.Handle(&msg.Message{
		Type: msg.WbData, Src: l2, Dst: m.id, Addr: addr, SN: 9,
		Payload: msg.Payload{Value: 3, Version: 5}, Dirty: true,
	})
	net.take()
	m.Handle(&msg.Message{Type: msg.OwnershipPing, Src: l2, Dst: m.id, Addr: addr, SN: 3})
	if a := net.lastOfType(msg.AckO); a == nil {
		t.Fatalf("want AckO after WbData: %v", net.sent)
	}
}

func TestMemStandaloneAckOAnswered(t *testing.T) {
	m, net, _, topo := testMem(t)
	m.Handle(&msg.Message{Type: msg.AckO, Src: topo.L2(0), Dst: m.id, Addr: memAddr(topo), SN: 4})
	bd := net.lastOfType(msg.AckBD)
	if bd == nil || bd.SN != 4 {
		t.Fatalf("standalone AckO unanswered: %v", net.sent)
	}
}

// TestMemInspectLinesYieldsEachLineOnce: memory reports every home line it
// has state for exactly once, whether the line is owned by the chip and
// written back, owned only, written only, or returned (an owned entry of
// false beside stored data); stored lines homed elsewhere are not its.
func TestMemInspectLinesYieldsEachLineOnce(t *testing.T) {
	m, _, _, topo := testMem(t)
	var home []msg.Addr
	var foreign msg.Addr
	for line := uint64(0); len(home) < 4 || foreign == 0; line++ {
		addr := msg.Addr(line * uint64(topo.LineSize))
		if topo.HomeMem(addr) == topo.Mem(0) {
			home = append(home, addr)
		} else if foreign == 0 {
			foreign = addr
		}
	}
	ownedWritten, ownedOnly, writtenOnly, returned := home[0], home[1], home[2], home[3]
	m.owned[ownedWritten] = true
	m.store.Write(ownedWritten, msg.Payload{Version: 2})
	m.owned[ownedOnly] = true
	m.store.Write(writtenOnly, msg.Payload{Version: 3})
	m.owned[returned] = false
	m.store.Write(returned, msg.Payload{Version: 4})
	m.store.Write(foreign, msg.Payload{Version: 5})

	seen := map[msg.Addr]proto.LineView{}
	m.InspectLines(func(v proto.LineView) {
		if _, dup := seen[v.Addr]; dup {
			t.Errorf("line %#x reported twice", v.Addr)
		}
		seen[v.Addr] = v
	})
	if len(seen) != 4 {
		t.Fatalf("reported %d lines, want the 4 home lines: %v", len(seen), seen)
	}
	for addr, wantOwner := range map[msg.Addr]bool{
		ownedWritten: false, ownedOnly: false, writtenOnly: true, returned: true,
	} {
		v, ok := seen[addr]
		if !ok {
			t.Fatalf("line %#x not reported", addr)
		}
		if v.Owner != wantOwner {
			t.Errorf("line %#x: memory owner=%t, want %t", addr, v.Owner, wantOwner)
		}
	}
	if v := seen[writtenOnly]; v.Payload.Version != 3 || v.State != "mem" {
		t.Errorf("written-only line reported as %+v, want v3 in state mem", v)
	}
	if v := seen[ownedWritten]; v.Payload.Version != 2 || v.State != "chip" {
		t.Errorf("owned line reported as %+v, want v2 in state chip", v)
	}
}
