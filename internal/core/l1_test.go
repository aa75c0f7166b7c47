package core

// White-box tests driving the FtDirCMP L1 controller directly with a fake
// network: each test crafts the exact incoming messages and asserts the
// exact outgoing ones, isolating transitions that are hard to pin from
// system-level runs (stale-message tolerance, idempotent acknowledgments,
// ping answers).

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeNet records sent messages.
type fakeNet struct {
	sent []*msg.Message
}

func (f *fakeNet) Send(m *msg.Message) { f.sent = append(f.sent, m) }

func (f *fakeNet) take() []*msg.Message {
	out := f.sent
	f.sent = nil
	return out
}

// lastOfType returns the most recent sent message of the given type.
func (f *fakeNet) lastOfType(t msg.Type) *msg.Message {
	for i := len(f.sent) - 1; i >= 0; i-- {
		if f.sent[i].Type == t {
			return f.sent[i]
		}
	}
	return nil
}

func testParams() proto.Params {
	return proto.Params{
		LineSize:           64,
		L1Size:             4 * 1024,
		L1Ways:             4,
		L2Size:             16 * 1024,
		L2Ways:             4,
		L1HitLatency:       1,
		L2HitLatency:       2,
		MemLatency:         10,
		MigratoryOpt:       true,
		SerialBits:         8,
		LostRequestTimeout: 1000,
		LostUnblockTimeout: 1500,
		LostAckBDTimeout:   1500,
		BackupTimeout:      2000,
	}
}

// testL1 builds an isolated L1 with a fake network.
func testL1(t *testing.T) (*L1, *fakeNet, *sim.Engine) {
	t.Helper()
	topo := proto.Topology{Tiles: 4, Mems: 2, LineSize: 64}
	engine := sim.NewEngine()
	net := &fakeNet{}
	run := stats.NewRun("FtDirCMP", "unit")
	l1, err := NewL1(topo.L1(0), topo, testParams(), engine, net, run, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	return l1, net, engine
}

// fill gives the L1 the line in the requested state via a normal miss
// (avoiding white-box state surgery so the path under test is realistic).
func fill(t *testing.T, l *L1, net *fakeNet, engine *sim.Engine, addr msg.Addr, write bool) {
	t.Helper()
	done := false
	if write {
		l.Write(addr, 0xabc, func(proto.AccessResult) { done = true })
	} else {
		l.Read(addr, func(proto.AccessResult) { done = true })
	}
	req := net.lastOfType(msg.GetX)
	if !write {
		req = net.lastOfType(msg.GetS)
	}
	if req == nil {
		t.Fatal("no request issued")
	}
	home := l.topo.HomeL2(addr)
	typ := msg.Data
	if write {
		typ = msg.DataEx
	}
	net.take()
	l.Handle(&msg.Message{
		Type: typ, Src: home, Dst: l.id, Addr: addr, SN: req.SN,
		Payload: msg.Payload{Value: 1, Version: 1}, Dirty: write,
	})
	engine.RunUntil(1_000_000, func() bool { return done })
	if !done {
		t.Fatal("fill miss never completed")
	}
	// Complete the ownership handshake so the line is not blocked.
	if write {
		un := net.lastOfType(msg.UnblockEx)
		if un == nil || !un.PiggybackAckO {
			t.Fatalf("fill write did not piggyback AckO: %v", net.sent)
		}
		l.Handle(&msg.Message{Type: msg.AckBD, Src: home, Dst: l.id, Addr: addr, SN: un.SN})
	}
	net.take()
}

func TestL1StaleInvDoesNotKillOwnedLine(t *testing.T) {
	l, net, engine := testL1(t)
	const addr = 0x40
	fill(t, l, net, engine, addr, true) // M state
	// A stale invalidation from a superseded attempt arrives.
	l.Handle(&msg.Message{Type: msg.Inv, Src: l.topo.HomeL2(addr), Dst: l.id, Addr: addr, SN: 99, Requestor: 2})
	// The Ack is sent (harmless), the line survives.
	if ack := net.lastOfType(msg.Ack); ack == nil || ack.Dst != 2 || ack.SN != 99 {
		t.Fatalf("no echoing Ack: %v", net.sent)
	}
	if line := l.array.Lookup(addr); line == nil || !ownerState(line.State) {
		t.Fatal("stale Inv destroyed an owned line")
	}
}

func TestL1InvDropsSharedCopy(t *testing.T) {
	l, net, engine := testL1(t)
	const addr = 0x40
	fill(t, l, net, engine, addr, false)
	line := l.array.Lookup(addr)
	if line == nil {
		t.Fatal("fill failed")
	}
	line.State = StateS // the Data fill grants S only when sharers exist; force it
	l.Handle(&msg.Message{Type: msg.Inv, Src: l.topo.HomeL2(addr), Dst: l.id, Addr: addr, SN: 7, Requestor: 3})
	if l.array.Lookup(addr) != nil {
		t.Fatal("shared copy survived an Inv")
	}
	if ack := net.lastOfType(msg.Ack); ack == nil || ack.SN != 7 {
		t.Fatal("no Ack")
	}
}

func TestL1DuplicateAckOGetsAckBD(t *testing.T) {
	l, net, _ := testL1(t)
	// An AckO for a line with no backup: reply AckBD anyway (§3.4).
	l.Handle(&msg.Message{Type: msg.AckO, Src: 2, Dst: l.id, Addr: 0x40, SN: 5})
	bd := net.lastOfType(msg.AckBD)
	if bd == nil || bd.Dst != 2 || bd.SN != 5 {
		t.Fatalf("no idempotent AckBD: %v", net.sent)
	}
}

func TestL1OwnershipPingAnswers(t *testing.T) {
	l, net, engine := testL1(t)
	const addr = 0x40
	// No state at all: NackO.
	l.Handle(&msg.Message{Type: msg.OwnershipPing, Src: 2, Dst: l.id, Addr: addr, SN: 3})
	if n := net.lastOfType(msg.NackO); n == nil || n.SN != 3 {
		t.Fatalf("want NackO, got %v", net.sent)
	}
	net.take()
	// Owner: AckO.
	fill(t, l, net, engine, addr, true)
	l.Handle(&msg.Message{Type: msg.OwnershipPing, Src: 2, Dst: l.id, Addr: addr, SN: 4})
	if a := net.lastOfType(msg.AckO); a == nil {
		t.Fatalf("owner did not confirm ownership: %v", net.sent)
	}
}

func TestL1UnblockPingWithNothingAnswersUnblock(t *testing.T) {
	l, net, _ := testL1(t)
	// No MSHR, no line: the only consistent history is a silently evicted
	// shared copy — answer Unblock.
	l.Handle(&msg.Message{Type: msg.UnblockPing, Src: 6, Dst: l.id, Addr: 0x40, SN: 9})
	un := net.lastOfType(msg.Unblock)
	if un == nil || un.SN != 9 {
		t.Fatalf("want Unblock, got %v", net.sent)
	}
}

func TestL1UnblockPingOwnedLineAnswersUnblockEx(t *testing.T) {
	l, net, engine := testL1(t)
	const addr = 0x40
	fill(t, l, net, engine, addr, true)
	l.Handle(&msg.Message{Type: msg.UnblockPing, Src: l.topo.HomeL2(addr), Dst: l.id, Addr: addr, SN: 12})
	un := net.lastOfType(msg.UnblockEx)
	if un == nil {
		t.Fatalf("want UnblockEx, got %v", net.sent)
	}
}

func TestL1UnblockPingIgnoredForCurrentMiss(t *testing.T) {
	l, net, _ := testL1(t)
	const addr = 0x40
	l.Read(addr, func(proto.AccessResult) {})
	req := net.lastOfType(msg.GetS)
	net.take()
	// A ping carrying the current attempt's serial number: in progress.
	l.Handle(&msg.Message{Type: msg.UnblockPing, Src: l.topo.HomeL2(addr), Dst: l.id, Addr: addr, SN: req.SN})
	if len(net.take()) != 0 {
		t.Fatal("ping for the in-flight miss was answered")
	}
}

func TestL1UnblockPingForOldTransactionAnswered(t *testing.T) {
	l, net, engine := testL1(t)
	const addr = 0x40
	fill(t, l, net, engine, addr, false) // completed GetS (line E or S)
	l.array.Lookup(addr).State = StateS
	// A new write miss is outstanding...
	l.Write(addr, 9, func(proto.AccessResult) {})
	net.take()
	// ...but the ping names the old GetS attempt: it must be answered from
	// the line's current state.
	l.Handle(&msg.Message{Type: msg.UnblockPing, Src: l.topo.HomeL2(addr), Dst: l.id, Addr: addr, SN: 77})
	if un := net.lastOfType(msg.Unblock); un == nil || un.SN != 77 {
		t.Fatalf("old transaction's ping unanswered: %v", net.sent)
	}
}

func TestL1StaleDataDiscarded(t *testing.T) {
	l, net, _ := testL1(t)
	const addr = 0x40
	done := false
	l.Write(addr, 5, func(proto.AccessResult) { done = true })
	net.take()
	// A response with the wrong serial number must not complete the miss.
	l.Handle(&msg.Message{
		Type: msg.DataEx, Src: l.topo.HomeL2(addr), Dst: l.id, Addr: addr, SN: 123,
		Payload: msg.Payload{Value: 66, Version: 66},
	})
	if done {
		t.Fatal("stale response completed the miss")
	}
	if l.run.Proto.StaleSNDiscarded == 0 {
		t.Fatal("stale response not counted")
	}
}

func TestL1WbPingWithNoEntryCancels(t *testing.T) {
	l, net, _ := testL1(t)
	l.Handle(&msg.Message{Type: msg.WbPing, Src: 6, Dst: l.id, Addr: 0x40, SN: 4})
	wc := net.lastOfType(msg.WbCancel)
	if wc == nil || wc.Dst != 6 || wc.SN != 4 {
		t.Fatalf("want WbCancel, got %v", net.sent)
	}
}

func TestL1StaleForwardIgnored(t *testing.T) {
	l, net, _ := testL1(t)
	// A forwarded GetX for a line this cache has no trace of (transfer
	// completed long ago): silently ignored, counted.
	l.Handle(&msg.Message{
		Type: msg.GetX, Src: 6, Dst: l.id, Addr: 0x40, SN: 2,
		Forwarded: true, Requestor: 3,
	})
	if len(net.take()) != 0 {
		t.Fatal("stale forward was answered")
	}
	if l.run.Proto.StaleSNDiscarded == 0 {
		t.Fatal("stale forward not counted")
	}
}

func TestL1BlockedOwnershipDefersAndReplays(t *testing.T) {
	l, net, _ := testL1(t)
	const addr = 0x40
	done := false
	l.Write(addr, 5, func(proto.AccessResult) { done = true })
	req := net.lastOfType(msg.GetX)
	net.take()
	// Cache-to-cache data from node 2: standalone AckO expected.
	l.Handle(&msg.Message{
		Type: msg.DataEx, Src: 2, Dst: l.id, Addr: addr, SN: req.SN,
		Payload: msg.Payload{Value: 7, Version: 3}, Dirty: true,
	})
	if !done {
		t.Fatal("miss did not complete on data")
	}
	acko := net.lastOfType(msg.AckO)
	if acko == nil || acko.Dst != 2 {
		t.Fatalf("no standalone AckO to the previous owner: %v", net.sent)
	}
	net.take()

	// While blocked, a forward arrives: deferred.
	l.Handle(&msg.Message{
		Type: msg.GetX, Src: l.topo.HomeL2(addr), Dst: l.id, Addr: addr, SN: 50,
		Forwarded: true, Requestor: 3,
	})
	if len(net.take()) != 0 {
		t.Fatal("blocked line answered a forward")
	}

	// AckBD arrives: the deferred forward replays and ownership moves.
	l.Handle(&msg.Message{Type: msg.AckBD, Src: 2, Dst: l.id, Addr: addr, SN: acko.SN})
	if !l.engine.RunUntil(1000, func() bool { return net.lastOfType(msg.DataEx) != nil }) {
		t.Fatalf("deferred forward never replayed: %v", net.sent)
	}
	dx := net.lastOfType(msg.DataEx)
	if dx.Dst != 3 || dx.SN != 50 || dx.Payload.Version != 4 {
		t.Fatalf("replayed response wrong: %v", dx)
	}
}

// TestL1DeferredForwardsReplayInRequestorOrder: a blocked line keeps the
// newest forward per requester and, once the AckBD arrives, replays them
// in ascending Requestor order, whatever order they arrived in.
func TestL1DeferredForwardsReplayInRequestorOrder(t *testing.T) {
	l, net, _ := testL1(t)
	const addr = 0x40
	l.Write(addr, 5, func(proto.AccessResult) {})
	req := net.lastOfType(msg.GetX)
	l.Handle(&msg.Message{
		Type: msg.DataEx, Src: 2, Dst: l.id, Addr: addr, SN: req.SN,
		Payload: msg.Payload{Value: 7, Version: 3}, Dirty: true,
	})
	acko := net.lastOfType(msg.AckO)
	if acko == nil {
		t.Fatalf("no AckO: %v", net.sent)
	}
	net.take()

	// Plain GetS forwards keep ownership here, so every replay answers.
	home := l.topo.HomeL2(addr)
	for _, f := range []struct {
		from msg.NodeID
		sn   msg.SerialNumber
	}{{3, 50}, {1, 51}, {3, 52}, {2, 53}} {
		l.Handle(&msg.Message{
			Type: msg.GetS, Src: home, Dst: l.id, Addr: addr, SN: f.sn,
			Forwarded: true, Requestor: f.from,
		})
	}
	if len(net.take()) != 0 {
		t.Fatal("blocked line answered a forward")
	}

	l.Handle(&msg.Message{Type: msg.AckBD, Src: 2, Dst: l.id, Addr: addr, SN: acko.SN})
	l.engine.Run(1000)
	var got []msg.Message
	for _, m := range net.take() {
		if m.Type == msg.Data {
			got = append(got, *m)
		}
	}
	want := []struct {
		dst msg.NodeID
		sn  msg.SerialNumber
	}{{1, 51}, {2, 53}, {3, 52}}
	if len(got) != len(want) {
		t.Fatalf("%d Data replies, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Dst != w.dst || got[i].SN != w.sn {
			t.Fatalf("reply %d went to %d with SN %d, want %d with SN %d", i, got[i].Dst, got[i].SN, w.dst, w.sn)
		}
	}
}

func TestL1QuiescedLifecycle(t *testing.T) {
	l, net, engine := testL1(t)
	if !l.Quiesced() {
		t.Fatal("fresh L1 not quiesced")
	}
	l.Read(0x40, func(proto.AccessResult) {})
	if l.Quiesced() {
		t.Fatal("L1 with outstanding miss claims quiescence")
	}
	_ = net
	_ = engine
}
