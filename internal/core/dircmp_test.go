package core

// White-box tests for the controllers in DirCMP mode (ft false): the
// baseline's miss, invalidation and memory transitions, and the absence of
// every FtDirCMP mechanism — no timer, no ownership handshake, serial
// number 0 on every message.

import (
	"testing"

	"repro/internal/memctrl"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

func testDirL1(t *testing.T) (*L1, *fakeNet, *sim.Engine, proto.Topology) {
	t.Helper()
	topo := proto.Topology{Tiles: 4, Mems: 2, LineSize: 64}
	engine := sim.NewEngine()
	net := &fakeNet{}
	l1, err := NewL1(topo.L1(0), topo, testParams(), engine, net, stats.NewRun("DirCMP", "unit"), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return l1, net, engine, topo
}

func testDirMem(t *testing.T) (*Mem, *fakeNet, *sim.Engine, proto.Topology, *memctrl.Store) {
	t.Helper()
	topo := proto.Topology{Tiles: 4, Mems: 2, LineSize: 64}
	engine := sim.NewEngine()
	net := &fakeNet{}
	store := memctrl.NewStore()
	m := NewMem(topo.Mem(0), topo, testParams(), engine, net, stats.NewRun("DirCMP", "unit"), store, false)
	return m, net, engine, topo, store
}

func TestDirCMPL1ReadMissIssuesGetS(t *testing.T) {
	l1, net, engine, topo := testDirL1(t)
	done := false
	var got proto.AccessResult
	l1.Read(0x40, func(r proto.AccessResult) { done = true; got = r })
	req := net.lastOfType(msg.GetS)
	if req == nil || req.Dst != topo.HomeL2(0x40) {
		t.Fatalf("no GetS to the home bank: %v", net.sent)
	}
	net.take()
	l1.Handle(&msg.Message{
		Type: msg.Data, Src: req.Dst, Dst: l1.NodeID(), Addr: 0x40,
		Payload: msg.Payload{Value: 11, Version: 2},
	})
	engine.RunUntil(1000, func() bool { return done })
	if !done || got.Value != 11 || got.Version != 2 || got.Hit {
		t.Fatalf("miss result %+v", got)
	}
	if un := net.lastOfType(msg.Unblock); un == nil {
		t.Fatalf("no Unblock after the fill: %v", net.sent)
	}
}

func TestDirCMPL1WriteMissWaitsForAcks(t *testing.T) {
	l1, net, engine, topo := testDirL1(t)
	done := false
	l1.Write(0x40, 9, func(proto.AccessResult) { done = true })
	net.take()
	l1.Handle(&msg.Message{
		Type: msg.DataEx, Src: topo.HomeL2(0x40), Dst: l1.NodeID(), Addr: 0x40, AckCount: 2,
		Payload: msg.Payload{Value: 1, Version: 1},
	})
	engine.RunUntil(1000, func() bool { return done })
	if done {
		t.Fatal("write completed before the invalidation acks")
	}
	l1.Handle(&msg.Message{Type: msg.Ack, Src: topo.L1(1), Dst: l1.NodeID(), Addr: 0x40})
	l1.Handle(&msg.Message{Type: msg.Ack, Src: topo.L1(2), Dst: l1.NodeID(), Addr: 0x40})
	engine.RunUntil(1000, func() bool { return done })
	if !done {
		t.Fatal("write never completed")
	}
	un := net.lastOfType(msg.UnblockEx)
	if un == nil || un.PiggybackAckO {
		t.Fatalf("want a plain UnblockEx: %v", net.sent)
	}
	if !l1.Quiesced() {
		t.Fatal("DirCMP L1 left blocked ownership behind")
	}
}

func TestDirCMPL1AcksArrivingBeforeData(t *testing.T) {
	l1, _, engine, topo := testDirL1(t)
	done := false
	l1.Write(0x40, 9, func(proto.AccessResult) { done = true })
	// Both acks overtake the data (different virtual channels).
	l1.Handle(&msg.Message{Type: msg.Ack, Src: topo.L1(1), Dst: l1.NodeID(), Addr: 0x40})
	l1.Handle(&msg.Message{Type: msg.Ack, Src: topo.L1(2), Dst: l1.NodeID(), Addr: 0x40})
	l1.Handle(&msg.Message{
		Type: msg.DataEx, Src: topo.HomeL2(0x40), Dst: l1.NodeID(), Addr: 0x40, AckCount: 2,
		Payload: msg.Payload{Value: 1, Version: 1},
	})
	engine.RunUntil(1000, func() bool { return done })
	if !done {
		t.Fatal("early acks were lost")
	}
}

func TestDirCMPMemPutWithoutOwnershipWantsNoData(t *testing.T) {
	mem, net, _, topo, _ := testDirMem(t)
	mem.Handle(&msg.Message{Type: msg.Put, Src: topo.L2(0), Dst: mem.NodeID(), Addr: 0})
	wa := net.lastOfType(msg.WbAck)
	if wa == nil || wa.WantData {
		t.Fatalf("stale Put answered wrongly: %v", net.sent)
	}
	mem.Handle(&msg.Message{Type: msg.WbNoData, Src: topo.L2(0), Dst: mem.NodeID(), Addr: 0})
	if !mem.Quiesced() {
		t.Fatal("transaction not closed")
	}
}

func TestDirCMPMemStoresWbData(t *testing.T) {
	mem, net, engine, topo, store := testDirMem(t)
	l2 := topo.L2(0)
	mem.Handle(&msg.Message{Type: msg.GetX, Src: l2, Dst: mem.NodeID(), Addr: 0})
	if err := engine.Run(0); err != nil {
		t.Fatal(err)
	}
	mem.Handle(&msg.Message{Type: msg.UnblockEx, Src: l2, Dst: mem.NodeID(), Addr: 0})
	mem.Handle(&msg.Message{Type: msg.Put, Src: l2, Dst: mem.NodeID(), Addr: 0})
	mem.Handle(&msg.Message{
		Type: msg.WbData, Src: l2, Dst: mem.NodeID(), Addr: 0,
		Payload: msg.Payload{Value: 77, Version: 4}, Dirty: true,
	})
	if got := store.Read(0); got.Value != 77 || got.Version != 4 {
		t.Fatalf("store holds %+v", got)
	}
	if mem.Owned(0) {
		t.Fatal("ownership not cleared")
	}
	// The WbData closes the writeback outright: no AckO to the L2.
	if ack := net.lastOfType(msg.AckO); ack != nil {
		t.Fatalf("DirCMP memory sent %v", ack)
	}
	if !mem.Quiesced() {
		t.Fatal("transaction not closed")
	}
}

// loopNet delivers every message to its destination's handler one cycle
// after it is sent, and keeps a copy of each for inspection.
type loopNet struct {
	engine   *sim.Engine
	handlers map[msg.NodeID]func(*msg.Message)
	sent     []msg.Message
}

func (n *loopNet) Send(m *msg.Message) {
	n.sent = append(n.sent, *m)
	n.engine.ScheduleCall(1, n.deliver, m, 0)
}

// deliver is the delivery event: arg is the message.
func (n *loopNet) deliver(arg any, _ uint64) {
	m := arg.(*msg.Message)
	n.handlers[m.Dst](m)
}

// dirSystem wires four L1s, four L2 banks and two memory controllers over
// a loopNet, with the four FtDirCMP mechanisms on or off.
func dirSystem(t *testing.T, ft bool) ([]*L1, *loopNet, *sim.Engine) {
	t.Helper()
	topo := proto.Topology{Tiles: 4, Mems: 2, LineSize: 64}
	engine := sim.NewEngine()
	net := &loopNet{engine: engine, handlers: map[msg.NodeID]func(*msg.Message){}}
	run := stats.NewRun("unit", "unit")
	store := memctrl.NewStore()
	var l1s []*L1
	for i := 0; i < topo.Tiles; i++ {
		l1, err := NewL1(topo.L1(i), topo, testParams(), engine, net, run, nil, ft)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := NewL2(topo.L2(i), topo, testParams(), engine, net, run, ft)
		if err != nil {
			t.Fatal(err)
		}
		net.handlers[l1.NodeID()] = l1.Handle
		net.handlers[l2.NodeID()] = l2.Handle
		l1s = append(l1s, l1)
	}
	for i := 0; i < topo.Mems; i++ {
		m := NewMem(topo.Mem(i), topo, testParams(), engine, net, run, store, ft)
		net.handlers[m.NodeID()] = m.Handle
	}
	return l1s, net, engine
}

// exchange runs one access to completion and drains the event queue,
// returning the messages it sent and the cycle the queue drained at.
func exchange(t *testing.T, net *loopNet, engine *sim.Engine, access func(done func(proto.AccessResult))) ([]msg.Message, uint64) {
	t.Helper()
	net.sent = nil
	done := false
	access(func(proto.AccessResult) { done = true })
	if err := engine.Run(0); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("access never completed")
	}
	if n := engine.Pending(); n != 0 {
		t.Fatalf("%d events still pending after the drain", n)
	}
	return net.sent, engine.Now()
}

// TestDirCMPArmsNoTimer drives a GetS→Data→Unblock exchange (a read served
// by the owning L1) and a GetX that invalidates a sharer through full
// DirCMP controllers: no timer is ever armed (the queue drains long before
// the shortest Table 3 timeout could fire), no AckO or AckBD is sent, and
// every message carries serial number 0. The same exchanges under FtDirCMP
// run the ownership handshake and leave timer events behind, so the test
// tells the two modes apart.
func TestDirCMPArmsNoTimer(t *testing.T) {
	const addr = 0x40
	shortest := testParams().LostRequestTimeout
	for _, ft := range []bool{false, true} {
		l1s, net, engine := dirSystem(t, ft)
		var sent []msg.Message
		var drained uint64
		steps := []struct {
			name   string
			access func(done func(proto.AccessResult))
		}{
			{"exclusive read", func(done func(proto.AccessResult)) { l1s[0].Read(addr, done) }},
			{"GetS→Data→Unblock", func(done func(proto.AccessResult)) { l1s[1].Read(addr, done) }},
			{"GetX with invalidations", func(done func(proto.AccessResult)) { l1s[2].Write(addr, 5, done) }},
		}
		for _, step := range steps {
			start := engine.Now()
			msgs, at := exchange(t, net, engine, step.access)
			sent = append(sent, msgs...)
			drained = max(drained, at-start)
			if !ft && at-start >= shortest {
				t.Fatalf("DirCMP %s: queue drained %d cycles in, a timer must have been armed", step.name, at-start)
			}
		}
		counts := map[msg.Type]int{}
		for _, m := range sent {
			counts[m.Type]++
			if !ft && m.SN != 0 {
				t.Fatalf("DirCMP sent %v with a serial number", &m)
			}
		}
		for _, typ := range []msg.Type{msg.GetS, msg.Data, msg.Unblock, msg.GetX, msg.Inv, msg.Ack, msg.DataEx, msg.UnblockEx} {
			if counts[typ] == 0 {
				t.Errorf("ft=%v: exchange sent no %v: %v", ft, typ, counts)
			}
		}
		handshake := counts[msg.AckO] + counts[msg.AckBD]
		if !ft && handshake != 0 {
			t.Errorf("DirCMP sent %d AckO/AckBD messages", handshake)
		}
		if ft && (handshake == 0 || drained < shortest) {
			t.Errorf("FtDirCMP: %d AckO/AckBD, drained after %d cycles; the contrast run shows nothing", handshake, drained)
		}
		for i, l1 := range l1s {
			if !l1.Quiesced() {
				t.Errorf("ft=%v: L1 %d not quiescent", ft, i)
			}
		}
	}
}

// TestDirCMPStateHelpers checks the state helpers DirCMP shares with
// FtDirCMP, and that a DirCMP L1 reports its lines through them: an
// untracked miss (serial number 0), then a shared, read-only fill.
func TestDirCMPStateHelpers(t *testing.T) {
	if !ownerState(StateM) || !ownerState(StateE) || !ownerState(StateO) || ownerState(StateS) {
		t.Fatal("ownerState wrong")
	}
	if !writableState(StateM) || !writableState(StateE) || writableState(StateO) || writableState(StateS) {
		t.Fatal("writableState wrong")
	}
	if permOf(StateS) != proto.PermRead || permOf(StateM) != proto.PermWrite || permOf(0) != proto.PermNone {
		t.Fatal("permOf wrong")
	}
	for _, s := range []int{StateS, StateE, StateM, StateO} {
		if stateName(s) == "" {
			t.Fatal("missing state name")
		}
	}

	l1, net, engine, _ := testDirL1(t)
	view := func() []proto.LineView {
		var vs []proto.LineView
		l1.InspectLines(func(v proto.LineView) { vs = append(vs, v) })
		return vs
	}
	done := false
	l1.Read(0x40, func(proto.AccessResult) { done = true })
	if vs := view(); len(vs) != 1 || vs[0].State != "I+miss" || !vs[0].Transient || vs[0].SN != 0 {
		t.Fatalf("pending miss reported as %+v", vs)
	}
	req := net.lastOfType(msg.GetS)
	if req == nil {
		t.Fatalf("no GetS: %v", net.sent)
	}
	l1.Handle(&msg.Message{
		Type: msg.Data, Src: req.Dst, Dst: l1.NodeID(), Addr: 0x40,
		Payload: msg.Payload{Value: 11, Version: 2},
	})
	engine.RunUntil(1000, func() bool { return done })
	vs := view()
	if len(vs) != 1 || vs[0].State != stateName(StateS) || vs[0].Perm != permOf(StateS) ||
		vs[0].Owner != ownerState(StateS) || vs[0].Transient || vs[0].Backup {
		t.Fatalf("filled line reported as %+v", vs)
	}
}
