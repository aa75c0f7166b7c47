package noc

// Detailed network mode: a virtual cut-through router model with finite
// per-link per-virtual-channel input buffers and credit-based
// backpressure, replacing the simple infinite-queue link model. A message
// advances from router to router only when the downstream input buffer has
// room for all of its flits; messages that cannot advance wait in FIFO
// order and exert backpressure upstream. With deterministic dimension-
// ordered routing and per-class virtual channels the channel-dependency
// graph is acyclic, so the model is deadlock-free; adaptive routing is
// rejected in this mode (mixing XY and YX paths over shared finite buffers
// can deadlock, which is why O1TURN-style schemes dedicate VCs per
// sub-route).

import (
	"fmt"

	"repro/internal/msg"
)

// flight is a message traversing the detailed network, recycled through the
// Network's freelist once delivered (or dropped) — like the simple model's
// transit, advancing a flight allocates nothing in steady state.
type flight struct {
	net     *Network
	m       *msg.Message
	vc      int
	flits   int
	dst     int // destination router
	sentAt  uint64
	dropped bool

	router int    // current router
	buf    *vcBuf // input buffer currently holding the message (nil at injection)
	ready  uint64 // when the message is ready to leave the current router

	// nextRouter/nextBuf stage the state the flight assumes when its
	// scheduled arrival event fires (set by departTo).
	nextRouter int
	nextBuf    *vcBuf
}

func (n *Network) getFlight() *flight {
	if len(n.flights) == 0 {
		f := &flight{net: n}
		n.allFlights = append(n.allFlights, f)
		return f
	}
	f := n.flights[len(n.flights)-1]
	n.flights = n.flights[:len(n.flights)-1]
	return f
}

func (n *Network) putFlight(f *flight) {
	f.m = nil
	f.buf = nil
	f.nextBuf = nil
	n.flights = append(n.flights, f)
}

// vcBuf is the flit buffer on the receiving side of one directed link for
// one virtual-channel class.
type vcBuf struct {
	net      *Network
	capacity int
	used     int
	waiters  []*flight
}

// vcBufFree is the scheduled tail-flit departure: it releases the flits the
// message occupied in its upstream buffer (carried in the event's tick).
func vcBufFree(arg any, flits uint64) {
	b := arg.(*vcBuf)
	b.net.bufFree(b, int(flits))
}

// free releases n flits and lets waiting upstream messages retry, in FIFO
// order.
func (n *Network) bufFree(b *vcBuf, flits int) {
	b.used -= flits
	if b.used < 0 {
		panic("noc: buffer underflow")
	}
	for len(b.waiters) > 0 {
		f := b.waiters[0]
		if b.capacity-b.used < f.flits {
			return
		}
		b.waiters = b.waiters[1:]
		if n.anyDead {
			// A link death may have re-routed this flight away from b;
			// recompute its path instead of departing into a stale buffer.
			n.tryAdvance(f)
			continue
		}
		b.used += f.flits
		n.departTo(f, b)
	}
}

// detailedBufKey identifies the input buffer fed by router's output link
// in direction dir, for one VC.
type detailedBufKey struct {
	router int
	dir    direction
	vc     int
}

// detailedSend injects a message into the router-pipeline model.
func (n *Network) detailedSend(m *msg.Message, srcRouter, dstRouter int, serFlits int, dropped bool) {
	f := n.getFlight()
	f.m = m
	f.vc = int(m.Class()) - 1
	f.flits = serFlits
	f.dst = dstRouter
	f.sentAt = n.engine.Now()
	f.dropped = dropped
	f.router = srcRouter
	f.ready = n.engine.Now()
	n.tryAdvance(f)
}

// tryAdvance moves the flight one hop if the downstream buffer has credit,
// otherwise parks it on the buffer's waiter list.
func (n *Network) tryAdvance(f *flight) {
	dir := n.route(f.router, f.dst, n.cfg.Routing == RoutingYX)
	if dir == dirLocal {
		if n.anyDead && f.router != f.dst {
			// Cut off from the destination by a link death: lost in place.
			f.dropped = true
		}
		n.eject(f)
		return
	}
	b := n.detailedBuf(detailedBufKey{router: f.router, dir: dir, vc: f.vc})
	if b.capacity-b.used < f.flits {
		b.waiters = append(b.waiters, f)
		return
	}
	b.used += f.flits
	n.departTo(f, b)
}

// flightArrive is the scheduled head-flit arrival at the next router: the
// flight assumes its staged position and tries to advance further.
func flightArrive(arg any, _ uint64) {
	f := arg.(*flight)
	f.router = f.nextRouter
	f.buf = f.nextBuf
	f.ready = f.net.engine.Now()
	f.net.tryAdvance(f)
}

// departTo sends the flight over the link into downstream buffer b: it
// serializes on the output link, frees the current buffer when the tail
// flit has left, and arrives downstream after the hop latency.
func (n *Network) departTo(f *flight, b *vcBuf) {
	dir := n.route(f.router, f.dst, n.cfg.Routing == RoutingYX)
	lnk := &n.links[f.router][dir]
	depart := f.ready
	if lnk.freeAt[f.vc] > depart {
		depart = lnk.freeAt[f.vc]
	}
	if depart < n.engine.Now() {
		depart = n.engine.Now()
	}
	serLat := uint64(f.flits)
	lnk.freeAt[f.vc] = depart + serLat

	// The tail flit leaves the current buffer at depart+serLat.
	if cur := f.buf; cur != nil {
		n.engine.ScheduleCallAt(depart+serLat, vcBufFree, cur, uint64(f.flits))
	}

	f.nextRouter = n.neighbor(f.router, dir)
	f.nextBuf = b
	n.engine.ScheduleCallAt(depart+n.cfg.HopLatency, flightArrive, f, 0)
}

// flightDeliver is the scheduled ejection: it hands the message to the
// destination handler (or records the drop), then recycles the flight and
// the message.
func flightDeliver(arg any, _ uint64) {
	f := arg.(*flight)
	n, m, dropped, sentAt := f.net, f.m, f.dropped, f.sentAt
	n.putFlight(f)
	if dropped {
		n.rec.MessageDropped(m)
		n.pool.Put(m)
		return
	}
	nd := n.nodes[m.Dst]
	n.rec.MessageDelivered(m, n.engine.Now()-sentAt)
	nd.handler(m)
	n.pool.Put(m)
}

// eject delivers (or drops) the flight at its destination router.
func (n *Network) eject(f *flight) {
	lnk := &n.links[f.router][dirLocal]
	depart := f.ready
	if lnk.freeAt[f.vc] > depart {
		depart = lnk.freeAt[f.vc]
	}
	serLat := uint64(f.flits)
	lnk.freeAt[f.vc] = depart + serLat
	if cur := f.buf; cur != nil {
		n.engine.ScheduleCallAt(depart+serLat, vcBufFree, cur, uint64(f.flits))
	}
	n.engine.ScheduleCallAt(depart+serLat+n.cfg.LocalLatency, flightDeliver, f, 0)
}

// detailedBuf returns (allocating on first use) the buffer for key.
func (n *Network) detailedBuf(key detailedBufKey) *vcBuf {
	b := n.bufs[key]
	if b == nil {
		b = &vcBuf{net: n, capacity: n.cfg.BufferFlits}
		n.bufs[key] = b
	}
	return b
}

// validateDetailed checks the detailed-mode configuration.
func (c Config) validateDetailed() error {
	if !c.DetailedRouters {
		return nil
	}
	if c.Routing == RoutingAdaptive {
		return fmt.Errorf("noc: adaptive routing is not deadlock-free with finite buffers; use XY or YX in detailed mode")
	}
	minFlits := (c.DataSize + c.FlitBytes - 1) / c.FlitBytes
	if c.BufferFlits < minFlits {
		return fmt.Errorf("noc: buffer of %d flits cannot hold a %d-byte message (%d flits)",
			c.BufferFlits, c.DataSize, minFlits)
	}
	return nil
}
