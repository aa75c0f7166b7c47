package core

// White-box tests for the FtDirCMP L2 bank: reissue re-answering, the
// WbData ownership handshake, the deferred memory unblock chain (§3.1.1)
// and the external-block discipline.

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// testL2 builds an isolated L2 bank (tile 0) with a fake network.
func testL2(t *testing.T) (*L2, *fakeNet, *sim.Engine, proto.Topology) {
	t.Helper()
	topo := proto.Topology{Tiles: 4, Mems: 2, LineSize: 64}
	engine := sim.NewEngine()
	net := &fakeNet{}
	run := stats.NewRun("FtDirCMP", "unit")
	l2, err := NewL2(topo.L2(0), topo, testParams(), engine, net, run, true)
	if err != nil {
		t.Fatal(err)
	}
	return l2, net, engine, topo
}

// addrForBank returns a line address homed at L2 bank 0 and memory 0.
func addrForBank(topo proto.Topology) msg.Addr {
	for line := uint64(0); ; line++ {
		addr := msg.Addr(line * uint64(topo.LineSize))
		if topo.HomeL2(addr) == topo.L2(0) && topo.HomeMem(addr) == topo.Mem(0) {
			return addr
		}
	}
}

// fetchLine walks the L2 through a memory fetch so the line is installed,
// granted to l1 and fully unblocked. Returns the address.
func fetchLine(t *testing.T, l *L2, net *fakeNet, topo proto.Topology, l1 msg.NodeID) msg.Addr {
	t.Helper()
	addr := addrForBank(topo)
	l.Handle(&msg.Message{Type: msg.GetX, Src: l1, Dst: l.id, Addr: addr, SN: 10})
	fetch := net.lastOfType(msg.GetX)
	if fetch == nil || fetch.Dst != topo.Mem(0) {
		t.Fatalf("no fetch to memory: %v", net.sent)
	}
	net.take()
	l.Handle(&msg.Message{
		Type: msg.DataEx, Src: topo.Mem(0), Dst: l.id, Addr: addr, SN: fetch.SN,
		Payload: msg.Payload{Value: 5, Version: 2},
	})
	grant := net.lastOfType(msg.DataEx)
	if grant == nil || grant.Dst != l1 || grant.SN != 10 {
		t.Fatalf("no immediate grant to the L1 (§3.1.1): %v", net.sent)
	}
	net.take()
	// The L1 unblocks with the piggybacked AckO.
	l.Handle(&msg.Message{Type: msg.UnblockEx, Src: l1, Dst: l.id, Addr: addr, SN: 10, PiggybackAckO: true})
	// The L2 must now answer AckBD to the L1 and send its own
	// UnblockEx+AckO to memory.
	if bd := net.lastOfType(msg.AckBD); bd == nil || bd.Dst != l1 {
		t.Fatalf("no AckBD to the L1: %v", net.sent)
	}
	memUn := net.lastOfType(msg.UnblockEx)
	if memUn == nil || memUn.Dst != topo.Mem(0) || !memUn.PiggybackAckO {
		t.Fatalf("no UnblockEx+AckO to memory: %v", net.sent)
	}
	net.take()
	// Memory's AckBD clears the external block.
	l.Handle(&msg.Message{Type: msg.AckBD, Src: topo.Mem(0), Dst: l.id, Addr: addr, SN: memUn.SN})
	if l.ext.Len() != 0 {
		t.Fatal("external block not cleared")
	}
	net.take()
	return addr
}

func TestL2FetchChainAndExternalBlock(t *testing.T) {
	l, net, _, topo := testL2(t)
	addr := fetchLine(t, l, net, topo, topo.L1(1))
	if !l.Quiesced() {
		t.Fatal("L2 not quiescent after the full chain")
	}
	line := l.array.Lookup(addr)
	if line == nil || line.State != L2StateM || line.Owner != topo.L1(1) {
		t.Fatalf("directory state wrong after grant: %+v", line)
	}
}

func TestL2ReissueResendsWbAck(t *testing.T) {
	l, net, _, topo := testL2(t)
	addr := fetchLine(t, l, net, topo, topo.L1(1))
	// The owner writes back.
	l.Handle(&msg.Message{Type: msg.Put, Src: topo.L1(1), Dst: l.id, Addr: addr, SN: 20})
	first := net.lastOfType(msg.WbAck)
	if first == nil || !first.WantData {
		t.Fatalf("no WbAck(WantData): %v", net.sent)
	}
	net.take()
	// The WbAck is lost; the L1 reissues the Put with a new serial number.
	l.Handle(&msg.Message{Type: msg.Put, Src: topo.L1(1), Dst: l.id, Addr: addr, SN: 21})
	second := net.lastOfType(msg.WbAck)
	if second == nil || second.SN != 21 || !second.WantData {
		t.Fatalf("reissued Put not re-answered: %v", net.sent)
	}
}

func TestL2WbDataTriggersAckOHandshake(t *testing.T) {
	l, net, _, topo := testL2(t)
	addr := fetchLine(t, l, net, topo, topo.L1(1))
	l.Handle(&msg.Message{Type: msg.Put, Src: topo.L1(1), Dst: l.id, Addr: addr, SN: 20})
	net.take()
	l.Handle(&msg.Message{
		Type: msg.WbData, Src: topo.L1(1), Dst: l.id, Addr: addr, SN: 20,
		Payload: msg.Payload{Value: 9, Version: 3}, Dirty: true,
	})
	acko := net.lastOfType(msg.AckO)
	if acko == nil || acko.Dst != topo.L1(1) || acko.SN != 20 {
		t.Fatalf("no AckO for the received ownership: %v", net.sent)
	}
	// The transaction stays open until the AckBD; a queued request waits.
	l.Handle(&msg.Message{Type: msg.GetS, Src: topo.L1(2), Dst: l.id, Addr: addr, SN: 30})
	net.take()
	l.Handle(&msg.Message{Type: msg.AckBD, Src: topo.L1(1), Dst: l.id, Addr: addr, SN: 20})
	// Now the queued GetS is serviced from the fresh L2 copy.
	grant := net.lastOfType(msg.DataEx) // no sharers -> exclusive grant
	if grant == nil || grant.Dst != topo.L1(2) || grant.Payload.Version != 3 {
		t.Fatalf("queued request not serviced after AckBD: %v", net.sent)
	}
}

func TestL2ReissueResendsDataExWithInvalidations(t *testing.T) {
	l, net, engine, topo := testL2(t)
	addr := fetchLine(t, l, net, topo, topo.L1(1)) // L1(1) owns in M
	// Two readers join: forwarded GetS, owner degrades to O, sharers grow.
	for i, sn := range []msg.SerialNumber{40, 41} {
		reader := topo.L1(2 + i)
		l.Handle(&msg.Message{Type: msg.GetS, Src: reader, Dst: l.id, Addr: addr, SN: sn})
		fwd := net.lastOfType(msg.GetS)
		if fwd == nil || fwd.Dst != topo.L1(1) || !fwd.Forwarded {
			t.Fatalf("reader %d not forwarded to the owner: %v", i, net.sent)
		}
		l.Handle(&msg.Message{Type: msg.Unblock, Src: reader, Dst: l.id, Addr: addr, SN: sn})
		net.take()
	}
	// The owner writes back; sharers {L1(2),L1(3)} remain, line becomes SS.
	l.Handle(&msg.Message{Type: msg.Put, Src: topo.L1(1), Dst: l.id, Addr: addr, SN: 20})
	net.take()
	l.Handle(&msg.Message{
		Type: msg.WbData, Src: topo.L1(1), Dst: l.id, Addr: addr, SN: 20,
		Payload: msg.Payload{Value: 9, Version: 3}, Dirty: true,
	})
	l.Handle(&msg.Message{Type: msg.AckBD, Src: topo.L1(1), Dst: l.id, Addr: addr, SN: 20})
	net.take()
	// A fourth L1 (tile 0) writes: DataEx with 2 invalidations.
	l.Handle(&msg.Message{Type: msg.GetX, Src: topo.L1(0), Dst: l.id, Addr: addr, SN: 50})
	if dx := net.lastOfType(msg.DataEx); dx == nil || dx.AckCount != 2 {
		t.Fatalf("grant wrong: %v", net.sent)
	}
	invs := 0
	for _, m := range net.take() {
		if m.Type == msg.Inv {
			if m.Requestor != topo.L1(0) || m.SN != 50 {
				t.Fatalf("bad Inv: %v", m)
			}
			invs++
		}
	}
	if invs != 2 {
		t.Fatalf("sent %d Invs, want 2", invs)
	}
	// Reissue: everything re-sent with the new serial number.
	l.Handle(&msg.Message{Type: msg.GetX, Src: topo.L1(0), Dst: l.id, Addr: addr, SN: 51})
	resent := net.take()
	var dx *msg.Message
	invs = 0
	for _, m := range resent {
		switch m.Type {
		case msg.DataEx:
			dx = m
		case msg.Inv:
			if m.SN != 51 {
				t.Fatalf("resent Inv with stale SN: %v", m)
			}
			invs++
		}
	}
	if dx == nil || dx.SN != 51 || dx.AckCount != 2 || invs != 2 {
		t.Fatalf("reissue not fully re-answered: %v", resent)
	}
	_ = engine
}

func TestL2UnblockPingFromMemory(t *testing.T) {
	l, net, _, topo := testL2(t)
	addr := addrForBank(topo)
	// Start a fetch and deliver the data, but do NOT let the L1 unblock:
	// the chain owes memory its unblock.
	l.Handle(&msg.Message{Type: msg.GetX, Src: topo.L1(1), Dst: l.id, Addr: addr, SN: 10})
	fetch := net.lastOfType(msg.GetX)
	net.take()
	l.Handle(&msg.Message{
		Type: msg.DataEx, Src: topo.Mem(0), Dst: l.id, Addr: addr, SN: fetch.SN,
		Payload: msg.Payload{Value: 5, Version: 2},
	})
	net.take()
	// Memory pings: the L1's AckO has not arrived, so the ping is ignored.
	l.Handle(&msg.Message{Type: msg.UnblockPing, Src: topo.Mem(0), Dst: l.id, Addr: addr, SN: fetch.SN})
	if len(net.take()) != 0 {
		t.Fatal("ping answered while the chain is still owed")
	}
	// The L1 completes; now a second ping is answered from the ext block.
	l.Handle(&msg.Message{Type: msg.UnblockEx, Src: topo.L1(1), Dst: l.id, Addr: addr, SN: 10, PiggybackAckO: true})
	net.take()
	l.Handle(&msg.Message{Type: msg.UnblockPing, Src: topo.Mem(0), Dst: l.id, Addr: addr, SN: fetch.SN})
	un := net.lastOfType(msg.UnblockEx)
	if un == nil || !un.PiggybackAckO || un.Dst != topo.Mem(0) {
		t.Fatalf("ext-blocked ping not answered with UnblockEx+AckO: %v", net.sent)
	}
}

func TestL2StaleMessagesCounted(t *testing.T) {
	l, net, _, topo := testL2(t)
	// A WbData with no transaction: stale, ignored.
	l.Handle(&msg.Message{Type: msg.WbData, Src: topo.L1(1), Dst: l.id, Addr: 0x999c0, SN: 3,
		Payload: msg.Payload{Value: 1, Version: 1}})
	// An AckBD from memory with no ext block: stale.
	l.Handle(&msg.Message{Type: msg.AckBD, Src: topo.Mem(0), Dst: l.id, Addr: 0x999c0, SN: 3})
	if l.run.Proto.StaleSNDiscarded < 2 {
		t.Fatalf("stale messages not counted: %d", l.run.Proto.StaleSNDiscarded)
	}
	if len(net.take()) != 0 {
		t.Fatal("stale messages were answered")
	}
}

func TestL2OwnershipPingFromMemoryConfirmed(t *testing.T) {
	l, net, _, topo := testL2(t)
	addr := fetchLine(t, l, net, topo, topo.L1(1))
	// A late OwnershipPing from memory after the chain completed: the L2
	// (whose line is present) confirms idempotently.
	l.Handle(&msg.Message{Type: msg.OwnershipPing, Src: topo.Mem(0), Dst: l.id, Addr: addr, SN: 8})
	if a := net.lastOfType(msg.AckO); a == nil || a.Dst != topo.Mem(0) {
		t.Fatalf("no confirmation: %v", net.sent)
	}
}
