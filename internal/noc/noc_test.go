package noc

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/msg"
	"repro/internal/sim"
)

func testConfig() Config {
	return Config{
		Width: 4, Height: 4,
		HopLatency: 4, LocalLatency: 1,
		FlitBytes: 16, ControlSize: 8, DataSize: 72,
	}
}

type capture struct {
	sent, dropped, delivered []msg.Message
	latencies                []uint64
}

func (c *capture) MessageSent(m *msg.Message, bytes int) { c.sent = append(c.sent, *m) }
func (c *capture) MessageDropped(m *msg.Message)         { c.dropped = append(c.dropped, *m) }
func (c *capture) MessageDelivered(m *msg.Message, l uint64) {
	c.delivered = append(c.delivered, *m)
	c.latencies = append(c.latencies, l)
}

func buildNet(t *testing.T, cfg Config, drop DropFunc, rec Recorder) (*sim.Engine, *Network, map[msg.NodeID][]msg.Message) {
	t.Helper()
	e := sim.NewEngine()
	n, err := New(e, cfg, drop, rec)
	if err != nil {
		t.Fatal(err)
	}
	inbox := make(map[msg.NodeID][]msg.Message)
	for r := 0; r < cfg.Width*cfg.Height; r++ {
		id := msg.NodeID(r + 1)
		router := r
		if err := n.Attach(id, router, func(m *msg.Message) {
			inbox[m.Dst] = append(inbox[m.Dst], *m)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return e, n, inbox
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 1, FlitBytes: 8, ControlSize: 8, DataSize: 72},
		{Width: 2, Height: 2, FlitBytes: 0, ControlSize: 8, DataSize: 72},
		{Width: 2, Height: 2, FlitBytes: 8, ControlSize: 0, DataSize: 72},
		{Width: 2, Height: 2, FlitBytes: 8, ControlSize: 80, DataSize: 72},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated unexpectedly", i)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestAttachErrors(t *testing.T) {
	e := sim.NewEngine()
	n, err := New(e, testConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := func(*msg.Message) {}
	if err := n.Attach(1, 0, h); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(1, 1, h); err == nil {
		t.Error("duplicate attach accepted")
	}
	if err := n.Attach(2, 99, h); err == nil {
		t.Error("out-of-range router accepted")
	}
	if err := n.Attach(3, 0, nil); err == nil {
		t.Error("nil handler accepted")
	}
	// Node IDs index the node table and pack into 16-bit channel keys.
	for _, id := range []msg.NodeID{0, -1, math.MinInt16, math.MaxUint16 + 1} {
		if err := n.Attach(id, 0, h); err == nil {
			t.Errorf("node ID %d accepted", id)
		}
	}
	if err := n.Attach(math.MaxUint16, 3, h); err != nil {
		t.Fatalf("largest node ID rejected: %v", err)
	}
	if r, ok := n.RouterOf(math.MaxUint16); !ok || r != 3 {
		t.Errorf("RouterOf(largest ID) = %d, %t; want 3, true", r, ok)
	}
}

// TestUnattachedLookups: RouterOf and Hops on IDs never attached — zero,
// negative, between attached IDs, and past the node table — report
// false and 0 rather than panicking.
func TestUnattachedLookups(t *testing.T) {
	e := sim.NewEngine()
	n, err := New(e, testConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := func(*msg.Message) {}
	if err := n.Attach(1, 0, h); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(4, 15, h); err != nil {
		t.Fatal(err)
	}
	if got := n.Hops(1, 4); got != 6 {
		t.Fatalf("Hops(1, 4) = %d, want 6", got)
	}
	for _, id := range []msg.NodeID{0, -1, 2, 3, 5, 1 << 20} {
		if r, ok := n.RouterOf(id); ok || r != 0 {
			t.Errorf("RouterOf(%d) = %d, %t; want 0, false", id, r, ok)
		}
		if got := n.Hops(1, id); got != 0 {
			t.Errorf("Hops(1, %d) = %d, want 0", id, got)
		}
		if got := n.Hops(id, 4); got != 0 {
			t.Errorf("Hops(%d, 4) = %d, want 0", id, got)
		}
	}
}

func TestDeliveryAndLatency(t *testing.T) {
	rec := &capture{}
	e, n, inbox := buildNet(t, testConfig(), nil, rec)
	// Node 1 (router 0) to node 16 (router 15): 3+3 = 6 hops.
	n.Send(&msg.Message{Type: msg.GetS, Src: 1, Dst: 16, Addr: 0x40})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(inbox[16]) != 1 {
		t.Fatalf("delivered %d messages", len(inbox[16]))
	}
	if hops := n.Hops(1, 16); hops != 6 {
		t.Fatalf("hops = %d, want 6", hops)
	}
	// Serialization of an 8-byte control message over 16-byte links is 1
	// cycle per link; 6 hops * (hop latency + ...) — check it is at least
	// hops*HopLatency and bounded by a sane figure.
	lat := rec.latencies[0]
	if lat < 6*4 || lat > 6*4+8+2 {
		t.Fatalf("latency = %d, outside expected range", lat)
	}
}

func TestDataMessagesSlowerThanControl(t *testing.T) {
	recC := &capture{}
	e, n, _ := buildNet(t, testConfig(), nil, recC)
	n.Send(&msg.Message{Type: msg.GetS, Src: 1, Dst: 16, Addr: 0x40})
	n.Send(&msg.Message{Type: msg.Data, Src: 1, Dst: 16, Addr: 0x80})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(recC.latencies) != 2 {
		t.Fatal("missing deliveries")
	}
	// The 72-byte data message occupies each link for 5 cycles instead of
	// 1, so it must take longer end to end.
	if recC.latencies[1] <= recC.latencies[0] {
		t.Fatalf("data latency %d not above control latency %d",
			recC.latencies[1], recC.latencies[0])
	}
}

func TestSameClassFIFOOrdering(t *testing.T) {
	e, n, inbox := buildNet(t, testConfig(), nil, nil)
	for i := 0; i < 20; i++ {
		n.Send(&msg.Message{Type: msg.GetS, Src: 1, Dst: 16, Addr: msg.Addr(i)})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	got := inbox[16]
	if len(got) != 20 {
		t.Fatalf("delivered %d/20", len(got))
	}
	for i, m := range got {
		if m.Addr != msg.Addr(i) {
			t.Fatalf("message %d out of order: addr=%#x", i, m.Addr)
		}
	}
}

// TestFIFOOrderingProperty: any interleaving of messages between random
// pairs is delivered in per-(src,dst,class) FIFO order — the property the
// coherence protocol's Figure 2 argument relies on.
func TestFIFOOrderingProperty(t *testing.T) {
	prop := func(seed uint64, count uint8) bool {
		rng := sim.NewRNG(seed)
		e, n, inbox := buildNet(t, testConfig(), nil, nil)
		types := []msg.Type{msg.GetS, msg.Inv, msg.Data, msg.Unblock, msg.AckO, msg.WbPing}
		nmsgs := int(count%64) + 2
		seq := uint64(0)
		for i := 0; i < nmsgs; i++ {
			src := msg.NodeID(rng.Intn(16) + 1)
			dst := msg.NodeID(rng.Intn(16) + 1)
			if src == dst {
				continue
			}
			seq++
			n.Send(&msg.Message{
				Type: types[rng.Intn(len(types))],
				Src:  src, Dst: dst,
				Addr: msg.Addr(seq), // encodes global send order
				SN:   msg.SerialNumber(seq),
			})
		}
		if err := e.Run(0); err != nil {
			return false
		}
		// Per (src, class) stream at each destination, addresses must be
		// increasing.
		last := make(map[[2]int]uint64)
		for dst, msgs := range inbox {
			for _, m := range msgs {
				key := [2]int{int(m.Src)*1000 + int(dst), int(m.Class())}
				if uint64(m.Addr) < last[key] {
					return false
				}
				last[key] = uint64(m.Addr)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestContentionDelaysSecondMessage(t *testing.T) {
	rec := &capture{}
	e, n, _ := buildNet(t, testConfig(), nil, rec)
	// Two large data messages over the same path and class contend for the
	// same links: the second must arrive later than the first.
	n.Send(&msg.Message{Type: msg.Data, Src: 1, Dst: 4, Addr: 0x40})
	n.Send(&msg.Message{Type: msg.Data, Src: 1, Dst: 4, Addr: 0x80})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(rec.latencies) != 2 {
		t.Fatal("missing deliveries")
	}
	if rec.latencies[1] <= rec.latencies[0] {
		t.Fatalf("no contention: %v", rec.latencies)
	}
}

func TestDifferentClassesDoNotBlockEachOther(t *testing.T) {
	rec := &capture{}
	e, n, _ := buildNet(t, testConfig(), nil, rec)
	// Saturate the request class, then send one response-class message:
	// it must not pay the request-class queueing delay.
	for i := 0; i < 10; i++ {
		n.Send(&msg.Message{Type: msg.GetS, Src: 1, Dst: 4, Addr: msg.Addr(i)})
	}
	n.Send(&msg.Message{Type: msg.Data, Src: 1, Dst: 4, Addr: 0x999})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	var dataLat, lastReqLat uint64
	for i, m := range rec.delivered {
		if m.Type == msg.Data {
			dataLat = rec.latencies[i]
		} else {
			lastReqLat = rec.latencies[i]
		}
	}
	if dataLat >= lastReqLat {
		t.Fatalf("response (lat %d) queued behind requests (lat %d)", dataLat, lastReqLat)
	}
}

func TestDropConsumesButDoesNotDeliver(t *testing.T) {
	rec := &capture{}
	dropAll := func(*msg.Message) bool { return true }
	e, n, inbox := buildNet(t, testConfig(), dropAll, rec)
	n.Send(&msg.Message{Type: msg.GetS, Src: 1, Dst: 16, Addr: 0x40})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(inbox[16]) != 0 {
		t.Fatal("dropped message was delivered")
	}
	if len(rec.dropped) != 1 || len(rec.sent) != 1 || len(rec.delivered) != 0 {
		t.Fatalf("recorder saw sent=%d dropped=%d delivered=%d",
			len(rec.sent), len(rec.dropped), len(rec.delivered))
	}
}

func TestSendToUnattachedPanics(t *testing.T) {
	e := sim.NewEngine()
	n, err := New(e, testConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(1, 0, func(*msg.Message) {}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Send(&msg.Message{Type: msg.GetS, Src: 1, Dst: 99})
}

func TestSameRouterDelivery(t *testing.T) {
	e := sim.NewEngine()
	n, err := New(e, testConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []msg.Message
	if err := n.Attach(1, 5, func(*msg.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(2, 5, func(m *msg.Message) { got = append(got, *m) }); err != nil {
		t.Fatal(err)
	}
	n.Send(&msg.Message{Type: msg.GetS, Src: 1, Dst: 2, Addr: 0x40})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatal("same-tile message not delivered")
	}
	if n.Hops(1, 2) != 0 {
		t.Fatalf("hops = %d, want 0", n.Hops(1, 2))
	}
}

func BenchmarkNetworkSend(b *testing.B) {
	e := sim.NewEngine()
	n, err := New(e, testConfig(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < 16; r++ {
		if err := n.Attach(msg.NodeID(r+1), r, func(*msg.Message) {}); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(&msg.Message{
			Type: msg.GetS,
			Src:  msg.NodeID(rng.Intn(16) + 1),
			Dst:  msg.NodeID(rng.Intn(16) + 1),
			Addr: msg.Addr(i),
		})
		if e.Pending() > 4096 {
			if err := e.Run(0); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Run(0); err != nil {
		b.Fatal(err)
	}
}

func TestRoutingYXDiffersFromXY(t *testing.T) {
	// A message from corner to corner takes different intermediate links
	// under XY vs YX; both must deliver with identical latency on an
	// uncontended mesh.
	latency := func(r Routing) uint64 {
		cfg := testConfig()
		cfg.Routing = r
		rec := &capture{}
		e, n, _ := buildNet(t, cfg, nil, rec)
		n.Send(&msg.Message{Type: msg.GetS, Src: 1, Dst: 16, Addr: 0x40})
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return rec.latencies[0]
	}
	if latency(RoutingXY) != latency(RoutingYX) {
		t.Fatal("XY and YX latencies differ on an empty mesh")
	}
}

func TestAdaptiveRoutingDelivers(t *testing.T) {
	cfg := testConfig()
	cfg.Routing = RoutingAdaptive
	cfg.RoutingSeed = 7
	e, n, inbox := buildNet(t, cfg, nil, nil)
	for i := 0; i < 200; i++ {
		n.Send(&msg.Message{Type: msg.GetS, Src: 1, Dst: 16, Addr: msg.Addr(i)})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(inbox[16]) != 200 {
		t.Fatalf("delivered %d/200", len(inbox[16]))
	}
}

func TestRoutingStrings(t *testing.T) {
	for _, r := range []Routing{RoutingXY, RoutingYX, RoutingAdaptive} {
		if r.String() == "" || r.String()[0] == 'R' {
			t.Errorf("Routing(%d) renders %q", int(r), r.String())
		}
	}
}

func TestRouterOf(t *testing.T) {
	e := sim.NewEngine()
	n, err := New(e, testConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(5, 9, func(*msg.Message) {}); err != nil {
		t.Fatal(err)
	}
	if r, ok := n.RouterOf(5); !ok || r != 9 {
		t.Fatalf("RouterOf = %d,%t", r, ok)
	}
	if _, ok := n.RouterOf(99); ok {
		t.Fatal("unattached node resolved")
	}
}

// alternateChooser takes the first choice at every choice point, losing
// every other one.
type alternateChooser struct{ n, drops int }

func (c *alternateChooser) Choose(_ uint64, choices []sim.Choice) sim.Decision {
	c.n++
	drop := c.n%2 == 0 && choices[0].CanDrop
	if drop {
		c.drops++
	}
	return sim.Decision{Index: 0, Drop: drop}
}

// TestInFlightSumAcrossExits: with ChoiceDelivery on, the in-flight sum
// and count take every sent message in and every one out again, whichever
// way it leaves — delivery, a loss chosen at its ejection, an injector
// drop, a dead link on its path, or no path at Send.
func TestInFlightSumAcrossExits(t *testing.T) {
	cfg := testConfig()
	cfg.ChoiceDelivery = true
	rec := &capture{}
	injector := func(m *msg.Message) bool { return m.Addr%3 == 1 } // drops 4 of the 12 to node 16
	e, n, _ := buildNet(t, cfg, injector, rec)
	ch := &alternateChooser{}
	e.SetChooser(ch)
	var sum uint64
	send := func(m *msg.Message) {
		sum += msg.Fingerprint(m)
		n.Send(m)
	}
	for i := 0; i < 12; i++ {
		send(&msg.Message{Type: msg.GetS, Src: msg.NodeID(i + 1), Dst: 16, Addr: msg.Addr(i)})
	}
	send(&msg.Message{Type: msg.GetS, Src: 16, Dst: 1, Addr: 0x80})
	const sent = 13
	if got, count := n.InFlight(); got != sum || count != sent {
		t.Fatalf("after %d sends InFlight = (%#x, %d), want (%#x, %d)", sent, got, count, sum, sent)
	}
	// Cut router 0 off: the message on its way to node 1 is lost where it
	// stands, and one sent from node 1 now is lost at Send without ever
	// counting.
	n.KillLink(0, 1)
	n.KillLink(0, 4)
	n.Send(&msg.Message{Type: msg.GetS, Src: 1, Dst: 16, Addr: 0x40})
	if got, count := n.InFlight(); got != sum || count != sent {
		t.Fatalf("a message with no path counted: InFlight = (%#x, %d), want (%#x, %d)", got, count, sum, sent)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got, count := n.InFlight(); got != 0 || count != 0 {
		t.Fatalf("drained network: InFlight = (%#x, %d), want (0, 0)", got, count)
	}
	// 4 injector drops, 1 dead link on the way, 1 with no path at Send.
	if ch.drops == 0 || len(rec.delivered) == 0 || len(rec.dropped) != ch.drops+6 {
		t.Fatalf("exits not all taken: %d delivered, %d dropped, %d of them chosen losses",
			len(rec.delivered), len(rec.dropped), ch.drops)
	}
}
