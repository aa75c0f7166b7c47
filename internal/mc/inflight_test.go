package mc

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/msg"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/workload"
)

// The network keeps the in-flight half of every state hash itself: it
// fingerprints each message once, at Send, adds it to a running sum and
// subtracts it when the message leaves, and offers the stored fingerprint
// as the delivery choice's Info. These tests recount both from the
// messages actually in flight.

// inflightChecker drives decoded decision prefixes like byteChooser and,
// at every choice point (every state the explorer evaluates), checks the
// network's in-flight sum and count against a recount with
// msg.Fingerprint and each offered choice's Info against the messages on
// its channel. As a network recorder it checks that the message a
// decision delivers or loses has the fingerprint its choice offered.
type inflightChecker struct {
	t       testing.TB
	net     *noc.Network
	bytes   byteChooser
	want    uint64 // Info of the choice just taken
	pending bool   // a decision was taken and its message has not left yet
	states  int
}

func (c *inflightChecker) Choose(now uint64, choices []sim.Choice) sim.Decision {
	c.checkState(choices)
	d := c.bytes.Choose(now, choices)
	if !d.Halt {
		c.want, c.pending = choices[d.Index].Info, true
	}
	return d
}

// channelOf is the (source, destination, class) channel key the network
// files a message's delivery choice under.
func channelOf(m *msg.Message) uint64 {
	return uint64(uint16(m.Src))<<32 | uint64(uint16(m.Dst))<<16 | uint64(m.Class())
}

func (c *inflightChecker) checkState(choices []sim.Choice) {
	c.t.Helper()
	c.states++
	var sum uint64
	count := 0
	onChannel := make(map[uint64][]uint64)
	c.net.ForEachInFlight(func(m *msg.Message, stored uint64) {
		fp := msg.Fingerprint(m)
		if stored != fp {
			c.t.Fatalf("state %d: message %v carries fingerprint %#x, msg.Fingerprint gives %#x", c.states, m, stored, fp)
		}
		sum += fp
		count++
		onChannel[channelOf(m)] = append(onChannel[channelOf(m)], fp)
	})
	if gotSum, gotCount := c.net.InFlight(); gotSum != sum || gotCount != count {
		c.t.Fatalf("state %d: network keeps in-flight (%#x, %d), recount gives (%#x, %d)",
			c.states, gotSum, gotCount, sum, count)
	}
	for i, ch := range choices {
		if !slices.Contains(onChannel[ch.Key], ch.Info) {
			c.t.Fatalf("state %d: choice %d offers Info %#x, not the fingerprint of any message on its channel %#x (%#x)",
				c.states, i, ch.Info, ch.Key, onChannel[ch.Key])
		}
	}
}

func (c *inflightChecker) left(m *msg.Message) {
	if !c.pending {
		return
	}
	c.pending = false
	if fp := msg.Fingerprint(m); fp != c.want {
		c.t.Fatalf("state %d: the chosen delivery offered Info %#x, but %v (fingerprint %#x) left the network",
			c.states, c.want, m, fp)
	}
}

func (c *inflightChecker) MessageSent(*msg.Message, int)             {}
func (c *inflightChecker) MessageDropped(m *msg.Message)             { c.left(m) }
func (c *inflightChecker) MessageDelivered(m *msg.Message, _ uint64) { c.left(m) }

// TestInFlightMatchesRecount runs every byte prefix of the reset tests,
// one after another on one reset system, on every gate shape and
// protocol, with message pooling on and off.
func TestInFlightMatchesRecount(t *testing.T) {
	defer msg.SetPooling(msg.PoolingEnabled())
	for _, pooling := range []bool{true, false} {
		msg.SetPooling(pooling)
		for _, p := range resetProtocols {
			for _, shape := range resetShapes {
				t.Run(fmt.Sprintf("pooling=%t/%v/%s", pooling, p, shape), func(t *testing.T) {
					checkInFlight(t, p, shape)
				})
			}
		}
	}
}

func checkInFlight(t *testing.T, p system.Protocol, shape string) {
	w, err := workload.ByName(shape)
	if err != nil {
		t.Fatal(err)
	}
	// The explorer's instance configuration (newInstance), with the
	// checker as the extra network recorder.
	cfg := mcConfig(p, 2)
	cfg.Net.ChoiceDelivery = true
	cfg.CheckIntegrity = true
	c := &inflightChecker{t: t}
	cfg.ExtraRecorder = c
	sys, err := system.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.net = sys.Network()
	ops := coreOps(cfg, w)
	for i, prefix := range resetPrefixes {
		if i > 0 {
			if err := sys.Reset(nil); err != nil {
				t.Fatal(err)
			}
			if sum, count := c.net.InFlight(); sum != 0 || count != 0 {
				t.Fatalf("reset network keeps in-flight (%#x, %d), want (0, 0)", sum, count)
			}
		}
		sys.BeginOps(w.Name(), ops)
		c.bytes = byteChooser{data: prefix}
		c.pending = false
		sys.Engine().SetChooser(c)
		if err := sys.Engine().Run(cfg.Limit); err != nil {
			t.Fatal(err)
		}
		c.checkState(nil) // where the prefix stopped: a choice point or the drained queue
	}
	if c.states < 2*len(resetPrefixes) {
		t.Fatalf("checked only %d states", c.states)
	}
}
