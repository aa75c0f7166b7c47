package noc

import (
	"errors"

	"repro/internal/msg"
	"repro/internal/sim"
)

// netSnapshot is what Snapshot copies of a network: the link occupancy,
// the routing generator, the in-flight multiset, every traversal record
// and every message that is not free, and the message freelist.
type netSnapshot struct {
	routers     []meshRouter
	rng         sim.RNG
	flightSum   uint64
	flightCount int
	transits    []transit  // allTransits' values
	freeT       []*transit // the transit freelist
	msgs        []*msg.Message
	vals        []msg.Message // msgs' values
	pool        msg.PoolSnapshot
	args        []any // scratch for the engine's queued arguments
}

// Snapshot copies the network's mutable state into its snapshot buffer,
// replacing any earlier snapshot, for Restore to return to. The messages
// it copies are the ones in flight and the ones only a queued engine event
// holds (a controller's latency-delayed send, a replayed forward); from
// now until the next Reset the network keeps every message it takes in
// (msg.Pool.Snapshot). It refuses the detailed router model and a network
// with a dead link, whose buffers and detour tables it does not copy.
func (n *Network) Snapshot() error {
	if n.cfg.DetailedRouters {
		return errors.New("noc: cannot snapshot the detailed router model")
	}
	if n.anyDead {
		return errors.New("noc: cannot snapshot a network with a dead link")
	}
	if n.snap == nil {
		n.snap = new(netSnapshot)
	}
	s := n.snap
	s.routers = append(s.routers[:0], n.routers...)
	s.rng = n.rng
	s.flightSum, s.flightCount = n.flightSum, n.flightCount
	s.transits = s.transits[:0]
	s.msgs, s.vals = s.msgs[:0], s.vals[:0]
	for _, t := range n.allTransits {
		s.transits = append(s.transits, *t)
		if t.m != nil {
			s.msgs = append(s.msgs, t.m)
			s.vals = append(s.vals, *t.m)
		}
	}
	s.freeT = append(s.freeT[:0], n.transits...)
	s.args = n.engine.QueuedArgs(s.args[:0])
	for _, a := range s.args {
		if m, ok := a.(*msg.Message); ok {
			s.msgs = append(s.msgs, m)
			s.vals = append(s.vals, *m)
		}
	}
	clear(s.args)
	n.pool.Snapshot(&s.pool)
	return nil
}

// Restore returns the network to its last Snapshot, taken since its last
// Reset: the links, the generator and the in-flight multiset read as they
// did, every traversal record and every message live then holds its value
// then, and the rest are free. Traversal records built since wait below
// the restored freelist. The engine must be restored too, after the
// network: the events that carry the restored transits and messages are
// the engine's.
func (n *Network) Restore() {
	s := n.snap
	copy(n.routers, s.routers)
	n.rng = s.rng
	n.flightSum, n.flightCount = s.flightSum, s.flightCount
	extra := n.allTransits[len(s.transits):]
	for i := range s.transits {
		*n.allTransits[i] = s.transits[i]
	}
	for _, t := range extra {
		t.m = nil
	}
	n.transits = append(append(n.transits[:0], extra...), s.freeT...)
	for i, m := range s.msgs {
		*m = s.vals[i]
	}
	n.pool.Restore(&s.pool)
}
