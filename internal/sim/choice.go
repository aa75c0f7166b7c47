// Model-checking choice points.
//
// In a normal run the engine fires events strictly in (time, sequence)
// order, which is exactly one interleaving of the protocol. The model
// checker (internal/mc) needs to explore the others. The hook is small:
// producers mark selected events as *choice events* (the network marks
// final message deliveries, see noc.Config.ChoiceDelivery), and when a
// Chooser is installed, any step whose earliest pending event is a choice
// event is resolved by the chooser instead of by timestamp order.
//
// The engine does not offer every pending choice event: each choice event
// carries a channel key, and only the head (earliest by (time, sequence))
// event of each channel is eligible. For the network this encodes the
// point-to-point ordering guarantee the protocols are built on — messages
// on the same (source, destination, class) channel may not overtake each
// other, so delivering a non-head event would explore physically
// impossible interleavings and report false violations.
//
// Time under a chooser stays monotone but becomes an abstraction: the
// chosen event fires at the timestamp of the earliest pending choice
// (the queue minimum), not at its own nominal arrival time. Non-choice
// events (timers, core issue slots, intermediate hops) still fire in
// timestamp order when they are the queue minimum, so a timeout only fires
// on paths where every earlier-timed delivery choice has been consumed —
// bounded-delay network semantics. Arbitrarily late delivery beyond a
// timeout is modeled explicitly as a dropped message (Decision.Drop)
// followed by the protocol's reissue path.
package sim

import (
	"math/bits"
	"slices"
)

// Choice is one eligible decision at a choice point: the head event of one
// ordered channel. Key identifies the channel, Info is the opaque payload
// the producer attached (the network uses the message fingerprint), At is
// the event's nominal timestamp, and CanDrop reports whether the producer
// supplied a drop path for it.
type Choice struct {
	Key     uint64
	Info    uint64
	At      uint64
	CanDrop bool
}

// Decision is a chooser's answer: fire choices[Index] (with Drop selecting
// its loss path instead of delivery), or Halt the engine without firing
// anything — Step returns false and the run can be inspected mid-state.
type Decision struct {
	Index int
	Drop  bool
	Halt  bool
}

// Chooser resolves choice points. choices is ordered deterministically (by
// the events' (time, sequence)) and is only valid for the duration of the
// call — the engine reuses the backing array.
type Chooser interface {
	Choose(now uint64, choices []Choice) Decision
}

// SetChooser installs (or with nil removes) the engine's chooser. With no
// chooser installed, choice events fire like plain events in timestamp
// order, so a system built with choice scheduling behaves identically to a
// normal run.
func (e *Engine) SetChooser(c Chooser) { e.chooser = c }

// Halted reports whether a chooser halted the engine. A halted engine
// executes no further events.
func (e *Engine) Halted() bool { return e.halted }

// ScheduleChoiceAt schedules a choice event at absolute cycle at. fn is the
// delivery callback, dropFn (optional) the loss callback; key names the
// event's ordered channel and info is carried to the chooser verbatim.
// Scheduling in the past is a programming error and panics, as with
// ScheduleCallAt.
func (e *Engine) ScheduleChoiceAt(at uint64, fn, dropFn func(arg any, tick uint64), arg any, tick, key, info uint64) {
	if at < e.now {
		e.ScheduleCallAt(at, fn, arg, tick) // panics with the standard message
		return
	}
	s := e.schedule(at, fn, arg, tick)
	s.choice, s.key, s.info, s.dropFn = true, key, info, dropFn
}

// channelHead is the earliest queued choice event of one channel: the
// channel's key, the event's slot, and its index in the overflow heap (-1
// when it sits in the ring).
type channelHead struct {
	key  uint64
	slot int32
	hidx int32
}

// before reports whether slot i precedes slot j in (at, seq) order.
func (e *Engine) before(i, j int32) bool {
	a, b := &e.slab[i], &e.slab[j]
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// offerHead records queued choice event i (at overflow index hidx, or -1)
// in heads, replacing its channel's entry if i comes earlier. Channels are
// few at any choice point, so a linear scan beats a map.
func (e *Engine) offerHead(heads []channelHead, i, hidx int32) []channelHead {
	key := e.slab[i].key
	for j := range heads {
		if heads[j].key == key {
			if e.before(i, heads[j].slot) {
				heads[j].slot, heads[j].hidx = i, hidx
			}
			return heads
		}
	}
	return append(heads, channelHead{key, i, hidx})
}

// stepChoice resolves one choice point at minAt, the earliest queued
// event's cycle: gather the per-channel head events from the ring and the
// overflow heap, present them to the chooser in deterministic (at, seq)
// order, and fire (or drop) the chosen one at minAt.
func (e *Engine) stepChoice(minAt uint64) stepResult {
	heads := e.headScratch[:0]
	for occ := e.occ; occ != 0; occ &= occ - 1 {
		tail := e.tails[bits.TrailingZeros64(occ)]
		for i := e.slab[tail].next; ; i = e.slab[i].next {
			if e.slab[i].choice {
				heads = e.offerHead(heads, i, -1)
			}
			if i == tail {
				break
			}
		}
	}
	for h, k := range e.overflow {
		if e.slab[k.slot].choice {
			heads = e.offerHead(heads, k.slot, int32(h))
		}
	}
	slices.SortFunc(heads, func(a, b channelHead) int {
		if e.before(a.slot, b.slot) {
			return -1
		}
		return 1
	})
	choices := e.choiceScratch[:0]
	for _, h := range heads {
		s := &e.slab[h.slot]
		choices = append(choices, Choice{Key: s.key, Info: s.info, At: s.at, CanDrop: s.dropFn != nil})
	}
	e.headScratch, e.choiceScratch = heads, choices

	d := e.chooser.Choose(minAt, choices)
	if d.Halt {
		e.halted = true
		return stepIdle
	}
	if d.Index < 0 || d.Index >= len(heads) {
		panic("sim: chooser decision index out of range")
	}
	h := heads[d.Index]
	s := &e.slab[h.slot]
	fn, arg, tick := s.fn, s.arg, s.tick
	if d.Drop {
		if s.dropFn == nil {
			panic("sim: chooser drop decision for an undroppable choice")
		}
		fn = s.dropFn
	}
	e.unlink(h.slot, h.hidx)
	e.release(h.slot)
	e.now = minAt
	e.events++
	fn(arg, tick)
	e.maybeCompact()
	return stepFired
}
