package token

// White-box tests for the token-protocol controllers with a fake network.

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

type fakeNet struct {
	sent []*msg.Message
}

func (f *fakeNet) NewMessage() *msg.Message { return new(msg.Message) }
func (f *fakeNet) Send(m *msg.Message)      { f.sent = append(f.sent, m) }
func (f *fakeNet) Recycle(*msg.Message)     {}

func (f *fakeNet) take() []*msg.Message {
	out := f.sent
	f.sent = nil
	return out
}

func (f *fakeNet) lastOfType(t msg.Type) *msg.Message {
	for i := len(f.sent) - 1; i >= 0; i-- {
		if f.sent[i].Type == t {
			return f.sent[i]
		}
	}
	return nil
}

func (f *fakeNet) countOfType(t msg.Type) int {
	n := 0
	for _, m := range f.sent {
		if m.Type == t {
			n++
		}
	}
	return n
}

func testParams() proto.Params {
	return proto.Params{
		LineSize: 64, L1Size: 4 * 1024, L1Ways: 4,
		L2Size: 16 * 1024, L2Ways: 4,
		L1HitLatency: 1, L2HitLatency: 2, MemLatency: 10,
		SerialBits: 8, LostRequestTimeout: 100,
		LostUnblockTimeout: 150, LostAckBDTimeout: 150, BackupTimeout: 200,
	}
}

func testTopo() proto.Topology {
	return proto.Topology{Tiles: 4, Mems: 2, LineSize: 64}
}

func build(t *testing.T, ft bool) (*L1, *Home, *fakeNet, *sim.Engine, proto.Topology) {
	t.Helper()
	topo := testTopo()
	engine := sim.NewEngine()
	net := &fakeNet{}
	run := stats.NewRun("token", "unit")
	l1, err := NewL1(topo.L1(0), topo, testParams(), engine, net, run, nil, ft)
	if err != nil {
		t.Fatal(err)
	}
	home := NewHome(topo.L2(0), topo, testParams(), engine, net, run, ft)
	return l1, home, net, engine, topo
}

// homeAddr returns a line homed at bank 0.
func homeAddr(topo proto.Topology) msg.Addr {
	for line := uint64(0); ; line++ {
		addr := msg.Addr(line * uint64(topo.LineSize))
		if topo.HomeL2(addr) == topo.L2(0) {
			return addr
		}
	}
}

func TestMissBroadcastsToEveryoneAndHome(t *testing.T) {
	l1, _, net, _, topo := build(t, false)
	l1.Read(homeAddr(topo), func(proto.AccessResult) {})
	sent := net.take()
	// 3 other L1s + the home node.
	if len(sent) != 4 {
		t.Fatalf("broadcast reached %d nodes, want 4: %v", len(sent), sent)
	}
	for _, m := range sent {
		if m.Type != msg.TrGetS {
			t.Fatalf("wrong request type %v", m.Type)
		}
	}
}

func TestHomeIdleLineGrantsAllTokens(t *testing.T) {
	_, home, net, engine, topo := build(t, false)
	addr := homeAddr(topo)
	home.Handle(&msg.Message{Type: msg.TrGetS, Src: topo.L1(1), Dst: home.id, Addr: addr})
	engine.Run(0)
	g := net.lastOfType(msg.TokenGrant)
	if g == nil || g.AckCount != topo.Tiles || !g.Owner {
		t.Fatalf("idle-line grant wrong: %v", net.sent)
	}
}

func TestHomeColdMissPaysMemoryLatency(t *testing.T) {
	_, home, net, engine, topo := build(t, false)
	addr := homeAddr(topo)
	home.Handle(&msg.Message{Type: msg.TrGetX, Src: topo.L1(1), Dst: home.id, Addr: addr})
	if net.lastOfType(msg.TokenGrant) != nil {
		t.Fatal("grant before the memory latency elapsed")
	}
	engine.Run(0)
	if engine.Now() != testParams().MemLatency {
		t.Fatalf("grant at cycle %d, want %d", engine.Now(), testParams().MemLatency)
	}
}

func TestWriteNeedsAllTokens(t *testing.T) {
	l1, _, net, engine, topo := build(t, false)
	addr := homeAddr(topo)
	done := false
	l1.Write(addr, 7, func(proto.AccessResult) { done = true })
	net.take()
	// Two tokens with data: not enough for a write (T = 4).
	l1.Handle(&msg.Message{
		Type: msg.TokenGrant, Src: topo.L2(0), Dst: l1.id, Addr: addr,
		AckCount: 2, Payload: msg.Payload{Value: 1, Version: 1},
	})
	engine.RunUntil(1000, func() bool { return done })
	if done {
		t.Fatal("write completed with 2/4 tokens")
	}
	// The remaining tokens, including the owner token.
	l1.Handle(&msg.Message{
		Type: msg.TokenGrant, Src: topo.L1(1), Dst: l1.id, Addr: addr,
		AckCount: 2, Owner: true, Payload: msg.Payload{Value: 1, Version: 1},
	})
	engine.RunUntil(1000, func() bool { return done })
	if !done {
		t.Fatal("write never completed with all tokens")
	}
}

func TestOnlyOwnerAnswersReads(t *testing.T) {
	l1, _, net, engine, topo := build(t, false)
	addr := homeAddr(topo)
	// Give the L1 two plain tokens with data (no owner token).
	done := false
	l1.Read(addr, func(proto.AccessResult) { done = true })
	net.take()
	l1.Handle(&msg.Message{
		Type: msg.TokenGrant, Src: topo.L2(0), Dst: l1.id, Addr: addr,
		AckCount: 2, Payload: msg.Payload{Value: 3, Version: 1},
	})
	engine.RunUntil(1000, func() bool { return done })
	net.take()
	l1.Handle(&msg.Message{Type: msg.TrGetS, Src: topo.L1(1), Dst: l1.id, Addr: addr})
	if len(net.take()) != 0 {
		t.Fatal("non-owner answered a read request")
	}
	// A write request drains all tokens though.
	l1.Handle(&msg.Message{Type: msg.TrGetX, Src: topo.L1(1), Dst: l1.id, Addr: addr})
	g := net.lastOfType(msg.TokenGrant)
	if g == nil || g.AckCount != 2 || g.Owner || !g.NoPayload {
		t.Fatalf("TrGetX answer wrong: %v", net.sent)
	}
}

func TestOwnerHandsOverLastTokenWithData(t *testing.T) {
	l1, _, net, engine, topo := build(t, true) // ft: expect a backup
	addr := homeAddr(topo)
	done := false
	l1.Read(addr, func(proto.AccessResult) { done = true })
	net.take()
	l1.Handle(&msg.Message{
		Type: msg.TokenGrant, Src: topo.L2(0), Dst: l1.id, Addr: addr,
		AckCount: 1, Owner: true, Payload: msg.Payload{Value: 3, Version: 1},
	})
	engine.RunUntil(1000, func() bool { return done })
	// The ft handshake for the received owner token.
	if net.lastOfType(msg.AckO) == nil {
		t.Fatalf("no AckO for received owner token: %v", net.sent)
	}
	l1.Handle(&msg.Message{Type: msg.AckBD, Src: topo.L2(0), Dst: l1.id, Addr: addr})
	net.take()
	// A read request: the single (owner) token moves with the data.
	l1.Handle(&msg.Message{Type: msg.TrGetS, Src: topo.L1(1), Dst: l1.id, Addr: addr})
	g := net.lastOfType(msg.TokenGrant)
	if g == nil || g.AckCount != 1 || !g.Owner || g.NoPayload {
		t.Fatalf("last-token handover wrong: %v", net.sent)
	}
	if l1.backups.Get(addr) == nil {
		t.Fatal("no backup for the owner-token transfer")
	}
}

func TestPersistentActivationForwardsTokens(t *testing.T) {
	l1, _, net, engine, topo := build(t, false)
	addr := homeAddr(topo)
	done := false
	l1.Read(addr, func(proto.AccessResult) { done = true })
	net.take()
	l1.Handle(&msg.Message{
		Type: msg.TokenGrant, Src: topo.L2(0), Dst: l1.id, Addr: addr,
		AckCount: 2, Payload: msg.Payload{Value: 3, Version: 1},
	})
	engine.RunUntil(1000, func() bool { return done })
	net.take()
	// Activation for node 2: our tokens leave immediately.
	l1.Handle(&msg.Message{Type: msg.PersistentAct, Src: topo.L2(0), Dst: l1.id, Addr: addr, Requestor: topo.L1(2)})
	g := net.lastOfType(msg.TokenGrant)
	if g == nil || g.Dst != topo.L1(2) || g.AckCount != 2 {
		t.Fatalf("activation did not forward tokens: %v", net.sent)
	}
	net.take()
	// Tokens arriving later are forwarded too, preserving the source.
	l1.Handle(&msg.Message{
		Type: msg.TokenGrant, Src: topo.L1(3), Dst: l1.id, Addr: addr, AckCount: 1, NoPayload: true,
	})
	fwd := net.lastOfType(msg.TokenGrant)
	if fwd == nil || fwd.Dst != topo.L1(2) || fwd.Src != topo.L1(3) {
		t.Fatalf("late tokens not forwarded with source preserved: %v", net.sent)
	}
	net.take()
	// Deactivation stops the forwarding.
	l1.Handle(&msg.Message{Type: msg.PersistentDeact, Src: topo.L2(0), Dst: l1.id, Addr: addr})
	l1.Handle(&msg.Message{
		Type: msg.TokenGrant, Src: topo.L1(3), Dst: l1.id, Addr: addr, AckCount: 1, NoPayload: true,
	})
	if g := net.lastOfType(msg.TokenGrant); g != nil {
		t.Fatalf("tokens still forwarded after deactivation: %v", g)
	}
}

func TestHomePersistentQueueArbitration(t *testing.T) {
	_, home, net, engine, topo := build(t, false)
	addr := homeAddr(topo)
	home.Handle(&msg.Message{Type: msg.PersistentReq, Src: topo.L1(1), Dst: home.id, Addr: addr})
	engine.RunUntil(engine.Now()+50, func() bool { return false })
	if n := net.countOfType(msg.PersistentAct); n != topo.Tiles {
		t.Fatalf("activation broadcast reached %d nodes", n)
	}
	if g := net.lastOfType(msg.TokenGrant); g == nil || g.Dst != topo.L1(1) {
		t.Fatalf("home did not forward its tokens to the starver: %v", net.sent)
	}
	net.take()
	// A second starver queues; the first deactivates; the second runs.
	home.Handle(&msg.Message{Type: msg.PersistentReq, Src: topo.L1(2), Dst: home.id, Addr: addr})
	if len(net.take()) != 0 {
		t.Fatal("second starver activated while the first is live")
	}
	home.Handle(&msg.Message{Type: msg.PersistentDeact, Src: topo.L1(1), Dst: home.id, Addr: addr})
	acts := 0
	for _, m := range net.take() {
		if m.Type == msg.PersistentAct && m.Requestor == topo.L1(2) {
			acts++
		}
	}
	if acts != topo.Tiles {
		t.Fatalf("second starver activations: %d", acts)
	}
}

func TestRecreationStashReplaysDataAck(t *testing.T) {
	l1, _, net, engine, topo := build(t, true)
	addr := homeAddr(topo)
	// The L1 owns the line with data v3.
	done := false
	l1.Write(addr, 3, func(proto.AccessResult) { done = true })
	net.take()
	l1.Handle(&msg.Message{
		Type: msg.TokenGrant, Src: topo.L2(0), Dst: l1.id, Addr: addr,
		AckCount: topo.Tiles, Owner: true, Payload: msg.Payload{Value: 0, Version: 2},
	})
	engine.RunUntil(1000, func() bool { return done })
	l1.Handle(&msg.Message{Type: msg.AckBD, Src: topo.L2(0), Dst: l1.id, Addr: addr})
	net.take()
	// First invalidation: the ack carries v3 and destroys the frame.
	l1.Handle(&msg.Message{Type: msg.RecreateInv, Src: topo.L2(0), Dst: l1.id, Addr: addr, SN: 1})
	first := net.lastOfType(msg.RecreateAck)
	if first == nil || first.NoPayload || first.Payload.Version != 3 {
		t.Fatalf("first recreate ack wrong: %v", net.sent)
	}
	net.take()
	// The ack was lost; the home re-asks: the stash must replay the data.
	l1.Handle(&msg.Message{Type: msg.RecreateInv, Src: topo.L2(0), Dst: l1.id, Addr: addr, SN: 1})
	second := net.lastOfType(msg.RecreateAck)
	if second == nil || second.NoPayload || second.Payload.Version != 3 {
		t.Fatalf("stashed recreate ack lost the data: %v", net.sent)
	}
}

func TestStaleSerialGrantsDiscarded(t *testing.T) {
	l1, _, net, _, topo := build(t, true)
	addr := homeAddr(topo)
	// Learn serial 2.
	l1.Handle(&msg.Message{Type: msg.RecreateInv, Src: topo.L2(0), Dst: l1.id, Addr: addr, SN: 2})
	net.take()
	l1.Read(addr, func(proto.AccessResult) {})
	net.take()
	// A grant under the old serial must be discarded.
	l1.Handle(&msg.Message{
		Type: msg.TokenGrant, Src: topo.L2(0), Dst: l1.id, Addr: addr,
		AckCount: 4, Owner: true, SN: 1, Payload: msg.Payload{Value: 9, Version: 9},
	})
	if line := l1.array.Lookup(addr); line != nil && line.State != 0 {
		t.Fatalf("stale-serial tokens accepted: %d", line.State)
	}
	if l1.run.Proto.StaleSNDiscarded == 0 {
		t.Fatal("stale grant not counted")
	}
}

func TestHomeRecreationCollectsFreshest(t *testing.T) {
	_, home, net, engine, topo := build(t, true)
	addr := homeAddr(topo)
	home.Handle(&msg.Message{Type: msg.RecreateReq, Src: topo.L1(1), Dst: home.id, Addr: addr})
	// Bounded: the recreation timer re-arms until every ack arrives.
	engine.RunUntil(engine.Now()+50, func() bool { return false })
	if n := net.countOfType(msg.RecreateInv); n != topo.Tiles {
		t.Fatalf("invalidation reached %d nodes", n)
	}
	net.take()
	// Acks: node 2 has v5, the rest nothing.
	for i := 0; i < topo.Tiles; i++ {
		ack := &msg.Message{Type: msg.RecreateAck, Src: topo.L1(i), Dst: home.id, Addr: addr, SN: 1, NoPayload: true}
		if i == 2 {
			ack.NoPayload = false
			ack.Payload = msg.Payload{Value: 55, Version: 5}
			ack.Dirty = true
		}
		home.Handle(ack)
	}
	ln := home.lines[addr]
	if ln.recreating || ln.tokens != topo.Tiles || !ln.owner {
		t.Fatalf("recreation did not reconstitute: %+v", ln)
	}
	if ln.data.Version != 5 || ln.data.Value != 55 {
		t.Fatalf("freshest data not elected: %+v", ln.data)
	}
	if home.run.Proto.TokenRecreations != 1 {
		t.Fatalf("recreations = %d", home.run.Proto.TokenRecreations)
	}
}

func TestSerialTablePeakTracked(t *testing.T) {
	l1, _, _, _, topo := build(t, true)
	for i := 0; i < 3; i++ {
		addr := homeAddr(topo) + msg.Addr(i*64*topo.Tiles)
		l1.Handle(&msg.Message{Type: msg.RecreateInv, Src: topo.L2(0), Dst: l1.id, Addr: addr, SN: 1})
	}
	if l1.run.Proto.TokenSerialPeak != 3 {
		t.Fatalf("serial table peak = %d, want 3", l1.run.Proto.TokenSerialPeak)
	}
}
