// Package fault provides the transient-fault injectors used to evaluate the
// protocols. The paper's failure model is that the interconnection network
// either delivers a message correctly or not at all (lost outright, or
// corrupted and discarded on arrival by the CRC check); every injector here
// produces exactly that effect through the network's drop hook.
package fault

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
)

// Injector decides which messages are lost. Implementations must be
// deterministic given their construction parameters.
type Injector interface {
	// Drop reports whether this message is lost. Called exactly once per
	// injected message, in injection order.
	Drop(m *msg.Message) bool
	// Dropped returns how many messages this injector has lost so far.
	Dropped() uint64
	// Description returns a human-readable summary for reports.
	Description() string
}

// None never drops anything (the fault-free scenario).
type None struct{}

// Drop implements Injector.
func (None) Drop(*msg.Message) bool { return false }

// Dropped implements Injector.
func (None) Dropped() uint64 { return 0 }

// Description implements Injector.
func (None) Description() string { return "no faults" }

// Rate drops messages uniformly at a rate expressed in messages lost per
// million messages, the metric used by the paper's Figure 3 (e.g. 2000
// means 0.2% of messages are lost).
type Rate struct {
	perMillion int
	rng        *sim.RNG
	dropped    uint64
}

// NewRate builds a uniform injector. perMillion of 0 never drops.
func NewRate(perMillion int, seed uint64) *Rate {
	if perMillion < 0 {
		perMillion = 0
	}
	return &Rate{perMillion: perMillion, rng: sim.NewRNG(seed)}
}

// Drop implements Injector.
func (r *Rate) Drop(*msg.Message) bool {
	if r.perMillion == 0 {
		return false
	}
	if r.rng.Intn(1_000_000) < r.perMillion {
		r.dropped++
		return true
	}
	return false
}

// Dropped returns how many messages have been lost so far.
func (r *Rate) Dropped() uint64 { return r.dropped }

// Description implements Injector.
func (r *Rate) Description() string {
	return fmt.Sprintf("uniform loss, %d per million", r.perMillion)
}

// Burst drops runs of consecutive messages: each time the (rarer) burst
// trigger fires, the next Length messages are all lost. The paper's model
// explicitly includes bursts ("either an isolated message or a burst of
// them").
type Burst struct {
	perMillion int // burst starts per million messages
	length     int
	remaining  int
	rng        *sim.RNG
	dropped    uint64
}

// NewBurst builds a burst injector: bursts begin at startsPerMillion and
// each burst loses length consecutive messages.
func NewBurst(startsPerMillion, length int, seed uint64) *Burst {
	if length < 1 {
		length = 1
	}
	return &Burst{perMillion: startsPerMillion, length: length, rng: sim.NewRNG(seed)}
}

// Drop implements Injector.
func (b *Burst) Drop(*msg.Message) bool {
	if b.remaining > 0 {
		b.remaining--
		b.dropped++
		return true
	}
	if b.perMillion > 0 && b.rng.Intn(1_000_000) < b.perMillion {
		b.remaining = b.length - 1
		b.dropped++
		return true
	}
	return false
}

// Dropped returns how many messages have been lost so far.
func (b *Burst) Dropped() uint64 { return b.dropped }

// Description implements Injector.
func (b *Burst) Description() string {
	return fmt.Sprintf("bursty loss, %d bursts per million, length %d", b.perMillion, b.length)
}

// NthOfType drops the nth occurrence (1-based) of a specific message type.
// A fault slot (Type, Nth) names one exact message of a deterministic run,
// which is what makes exhaustive fault-space enumeration possible: the
// coverage harness (internal/coverage) first counts every slot in a
// fault-free run, then re-runs the simulation once per slot with this
// injector. The correctness campaign also uses it to prove every message
// type is recoverable at every point in a transaction.
//
// Two optional compound-fault modes inject a second loss after the first
// drop, exercising recovery of the recovery itself:
//
//   - SecondDropAfter(k) additionally drops the k-th message injected after
//     the first drop, whatever its type — a random second loss inside the
//     recovery window.
//   - AlsoDropReissue additionally drops the next message with the same
//     type, source and line address as the first drop — the reissue of the
//     dropped request, forcing a second timeout on the same transaction.
type NthOfType struct {
	typ msg.Type
	nth uint64

	secondAfter  uint64 // 0 = off
	chaseReissue bool

	seen        uint64 // messages of typ observed (drops included)
	index       uint64 // all injected messages observed
	firedAt     uint64 // index of the first drop (0 = not yet)
	firedSrc    msg.NodeID
	firedAddr   msg.Addr
	secondFired bool
	secondType  msg.Type
	dropped     uint64
}

// NewNthOfType drops the nth message of type t (nth counts from 1).
func NewNthOfType(t msg.Type, nth uint64) *NthOfType {
	if nth < 1 {
		nth = 1
	}
	return &NthOfType{typ: t, nth: nth}
}

// SecondDropAfter arms a second drop k injected messages after the first
// drop (k counts from 1; 0 disarms). It returns the injector for chaining.
func (t *NthOfType) SecondDropAfter(k uint64) *NthOfType {
	t.secondAfter = k
	return t
}

// AlsoDropReissue arms a second drop on the reissue of the first dropped
// message: the next message with the same type, source and line address.
// It returns the injector for chaining.
func (t *NthOfType) AlsoDropReissue() *NthOfType {
	t.chaseReissue = true
	return t
}

// Drop implements Injector.
func (t *NthOfType) Drop(m *msg.Message) bool {
	t.index++
	if m.Type == t.typ {
		t.seen++
	}
	if t.firedAt == 0 {
		if m.Type == t.typ && t.seen == t.nth {
			t.firedAt = t.index
			t.firedSrc, t.firedAddr = m.Src, m.Addr
			t.dropped++
			return true
		}
		return false
	}
	if t.secondFired {
		return false
	}
	if t.chaseReissue && m.Type == t.typ && m.Src == t.firedSrc && m.Addr == t.firedAddr {
		t.secondFired = true
		t.secondType = m.Type
		t.dropped++
		return true
	}
	if t.secondAfter > 0 && t.index == t.firedAt+t.secondAfter {
		t.secondFired = true
		t.secondType = m.Type
		t.dropped++
		return true
	}
	return false
}

// Fired reports whether the targeted drop actually happened (the run may
// not have produced enough messages of the type).
func (t *NthOfType) Fired() bool { return t.firedAt != 0 }

// SecondFired reports whether the armed second drop happened; SecondHit
// returns the type of the message it removed.
func (t *NthOfType) SecondFired() bool { return t.secondFired }

// SecondHit returns the type of the message the second drop removed (zero
// if the second drop never fired).
func (t *NthOfType) SecondHit() msg.Type { return t.secondType }

// Seen returns how many messages of the targeted type were observed.
func (t *NthOfType) Seen() uint64 { return t.seen }

// Dropped implements Injector.
func (t *NthOfType) Dropped() uint64 { return t.dropped }

// Description implements Injector.
func (t *NthOfType) Description() string {
	d := fmt.Sprintf("drop %v #%d", t.typ, t.nth)
	if t.chaseReissue {
		d += " and its reissue"
	}
	if t.secondAfter > 0 {
		d += fmt.Sprintf(" and the %d-th message after it", t.secondAfter)
	}
	return d
}

// Script drops an explicit list of message indices (0-based, counted over
// all injected messages). Unit tests use it to build exact fault scenarios.
type Script struct {
	drops   map[uint64]bool
	index   uint64
	dropped uint64
}

// NewScript builds a scripted injector from message indices.
func NewScript(indices ...uint64) *Script {
	drops := make(map[uint64]bool, len(indices))
	for _, i := range indices {
		drops[i] = true
	}
	return &Script{drops: drops}
}

// Drop implements Injector.
func (s *Script) Drop(*msg.Message) bool {
	i := s.index
	s.index++
	if s.drops[i] {
		s.dropped++
		return true
	}
	return false
}

// Dropped implements Injector.
func (s *Script) Dropped() uint64 { return s.dropped }

// Description implements Injector.
func (s *Script) Description() string {
	return fmt.Sprintf("scripted loss of %d messages", len(s.drops))
}

// Corrupting wraps another injector: instead of deleting the message it
// flips bits in the encoded form and runs the receiver's CRC check, which
// is how a real receiver converts corruption into loss. A corruption the
// CRC detects is discarded (the message is lost); a corruption the CRC
// misses is *accepted*, so the message is delivered, not lost. With the
// default single-bit flip the CRC-16 catches every corruption and the
// observable effect is identical to dropping.
type Corrupting struct {
	inner Injector
	rng   *sim.RNG
	// FlipBits is how many (not necessarily distinct) bit positions are
	// flipped per corrupted message; values below 1 flip a single bit.
	// CRC-16 detects all single- and double-bit errors, so undetected
	// corruption requires at least three flips.
	FlipBits int
	// Undetected counts corruptions the CRC missed. Those messages were
	// delivered (Drop returned false), modeling silent data corruption
	// rather than loss.
	Undetected uint64

	dropped uint64
	buf     []byte // scratch encoding, reused across corrupted messages
}

// NewCorrupting wraps inner; seed drives which bits are flipped.
func NewCorrupting(inner Injector, seed uint64) *Corrupting {
	return &Corrupting{inner: inner, rng: sim.NewRNG(seed)}
}

// Drop implements Injector.
func (c *Corrupting) Drop(m *msg.Message) bool {
	if !c.inner.Drop(m) {
		return false
	}
	c.buf = msg.EncodeAppend(c.buf[:0], m)
	buf := c.buf
	if len(buf) == 0 {
		// Nothing to corrupt: treat as an outright loss rather than
		// feeding a zero-length range to the RNG.
		c.dropped++
		return true
	}
	flips := c.FlipBits
	if flips < 1 {
		flips = 1
	}
	for i := 0; i < flips; i++ {
		bit := c.rng.Intn(len(buf) * 8)
		buf[bit/8] ^= 1 << (bit % 8)
	}
	if _, ok := msg.Decode(buf); ok {
		// The CRC missed the corruption, so the receiver accepts the
		// message: it is delivered, not lost.
		c.Undetected++
		return false
	}
	c.dropped++
	return true
}

// Dropped implements Injector: corruptions the CRC caught (the messages
// actually lost), not the inner injector's attempts.
func (c *Corrupting) Dropped() uint64 { return c.dropped }

// Description implements Injector.
func (c *Corrupting) Description() string {
	return "corrupting(" + c.inner.Description() + ")"
}

// Chain combines injectors; a message is lost if any injector drops it.
// Every injector sees every message, keeping each stream deterministic.
type Chain struct {
	injs    []Injector
	dropped uint64
}

// NewChain combines injectors into one.
func NewChain(injs ...Injector) *Chain {
	return &Chain{injs: injs}
}

// Drop implements Injector.
func (c *Chain) Drop(m *msg.Message) bool {
	lost := false
	for _, in := range c.injs {
		if in.Drop(m) {
			lost = true
		}
	}
	if lost {
		c.dropped++
	}
	return lost
}

// Dropped implements Injector: the number of distinct messages lost (a
// message dropped by several chained injectors counts once).
func (c *Chain) Dropped() uint64 { return c.dropped }

// Description implements Injector.
func (c *Chain) Description() string {
	out := "chain["
	for i, in := range c.injs {
		if i > 0 {
			out += "; "
		}
		out += in.Description()
	}
	return out + "]"
}
