// Package noc models the on-chip interconnection network: a 2D mesh with
// dimension-ordered (XY) routing, virtual channels, per-link flit
// serialization and contention.
//
// Two properties matter to the coherence protocol and are guaranteed here:
//
//   - Point-to-point ordering: two messages sent from node A to node B in
//     the same virtual-channel class are delivered in send order, because
//     XY routing is deterministic (same path) and every link is a FIFO
//     queue per virtual channel. The paper's Figure 2 argument relies on
//     this property.
//   - Unreliability under fault injection: a message may be dropped (lost
//     in the network or discarded on arrival after a CRC failure); the
//     network never duplicates, corrupts-silently or misdelivers.
package noc

import (
	"fmt"
	"math"

	"repro/internal/msg"
	"repro/internal/sim"
)

// Routing selects the routing algorithm.
type Routing int

const (
	// RoutingXY is deterministic dimension-ordered routing (X first): the
	// default. Together with per-VC FIFO links it yields point-to-point
	// ordered delivery, the assumption of the paper's base architecture.
	RoutingXY Routing = iota
	// RoutingYX routes Y first; also deterministic and ordered.
	RoutingYX
	// RoutingAdaptive picks XY or YX per message (deterministically from
	// the message sequence), so two messages between the same endpoints
	// may take different paths and arrive out of order. This models the
	// unordered-network extension the paper points to (§2): FtDirCMP's
	// serial numbers make it tolerate reordering as well as loss.
	RoutingAdaptive
)

func (r Routing) String() string {
	switch r {
	case RoutingXY:
		return "xy"
	case RoutingYX:
		return "yx"
	case RoutingAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Routing(%d)", int(r))
	}
}

// Config describes the mesh.
type Config struct {
	// Width and Height are the mesh dimensions (Width*Height routers).
	Width, Height int
	// HopLatency is the router pipeline plus link traversal delay per hop,
	// in cycles.
	HopLatency uint64
	// LocalLatency is the injection/ejection (network interface) delay in
	// cycles, paid once at each end.
	LocalLatency uint64
	// FlitBytes is the channel bandwidth in bytes per cycle; a message of
	// size S occupies each link for ceil(S/FlitBytes) cycles.
	FlitBytes int
	// ControlSize and DataSize are the message sizes in bytes (Table 4:
	// 8 and 72 by default).
	ControlSize, DataSize int
	// Routing selects the routing algorithm (default RoutingXY).
	Routing Routing
	// RoutingSeed drives the adaptive path choice.
	RoutingSeed uint64
	// DetailedRouters switches to the virtual cut-through router model
	// with finite per-link per-VC input buffers and credit backpressure
	// (see detailed.go). Requires deterministic routing.
	DetailedRouters bool
	// BufferFlits is the input buffer capacity per link per virtual
	// channel in detailed mode; it must hold at least one data message.
	BufferFlits int
	// ChoiceDelivery schedules every final message ejection as a sim
	// choice event keyed by its (src, dst, class) channel, so that with a
	// sim.Chooser installed the delivery order becomes a model-checking
	// decision and any delivery may be turned into a loss (see
	// internal/mc). Per-channel FIFO order — the ordering guarantee above
	// — is preserved: only channel-head events are offered as choices.
	// Without a chooser the network behaves exactly as with the flag off.
	// Requires the simple link model and deterministic routing.
	ChoiceDelivery bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width < 1 || c.Height < 1 {
		return fmt.Errorf("noc: invalid mesh %dx%d", c.Width, c.Height)
	}
	if c.FlitBytes < 1 {
		return fmt.Errorf("noc: flit bytes must be positive, got %d", c.FlitBytes)
	}
	if c.ControlSize < 1 || c.DataSize < c.ControlSize {
		return fmt.Errorf("noc: invalid message sizes control=%d data=%d", c.ControlSize, c.DataSize)
	}
	if c.ChoiceDelivery {
		if c.DetailedRouters {
			return fmt.Errorf("noc: choice delivery requires the simple link model (DetailedRouters off)")
		}
		if c.Routing == RoutingAdaptive {
			return fmt.Errorf("noc: choice delivery requires deterministic routing (got %v)", c.Routing)
		}
	}
	return c.validateDetailed()
}

// Handler consumes a delivered message.
type Handler func(*msg.Message)

// DropFunc decides, at injection time, whether a message will be lost. The
// fault injector provides it; nil means a perfectly reliable network.
type DropFunc func(*msg.Message) bool

// Recorder observes network activity. Implementations must be cheap;
// every message passes through these hooks. The system fans the hooks out
// to the statistics collector, the debug message trace (package trace)
// and the structured event recorder (package obs), each of which
// implements this interface.
type Recorder interface {
	// MessageSent is called once per injected message with its wire size.
	MessageSent(m *msg.Message, bytes int)
	// MessageDropped is called when a message is lost to a fault.
	MessageDropped(m *msg.Message)
	// MessageDelivered is called on delivery with the end-to-end latency.
	MessageDelivered(m *msg.Message, latency uint64)
}

// nopRecorder is used when the caller passes a nil Recorder.
type nopRecorder struct{}

func (nopRecorder) MessageSent(*msg.Message, int)         {}
func (nopRecorder) MessageDropped(*msg.Message)           {}
func (nopRecorder) MessageDelivered(*msg.Message, uint64) {}

// direction indexes a router's output links.
type direction int

const (
	dirEast direction = iota
	dirWest
	dirNorth
	dirSouth
	dirLocal
	numDirections
)

// link tracks when each virtual-channel class of a directed link is next
// free. Contention is modeled by delaying departure until the link frees.
type link struct {
	freeAt [6]uint64 // indexed by msg.Class - 1
}

type node struct {
	router  int
	handler Handler
}

// meshRouter is one router: its output links, indexed by direction, and
// its column x and row y, so routing a hop needs no division by the mesh
// width.
type meshRouter struct {
	out  [numDirections]link
	x, y int32
}

// Network is the mesh interconnect. Create with New, register endpoints
// with Attach, then Send messages.
//
// The network owns every message passed to Send: after the destination
// handler returns (or the drop has been recorded), the message is recycled
// into the network's freelist, from which NewMessage draws. Handlers must
// copy out anything they need past their own return (see
// docs/PERFORMANCE.md for the ownership rules).
type Network struct {
	engine *sim.Engine
	cfg    Config
	drop   DropFunc
	rec    Recorder
	// pool is the network's message freelist. The engine flushes it into
	// the shared pool each time a Run or RunUntil returns (flushPool).
	pool msg.Pool

	// routers[r] is router r; routers[r].out[dir] is its output link in
	// direction dir.
	routers []meshRouter
	// nodes is indexed by node ID; IDs are dense from 1 (proto.Topology),
	// and a slot with a nil handler is unattached.
	nodes []node
	rng   sim.RNG
	bufs  map[detailedBufKey]*vcBuf

	// transits and flights are freelists of per-message traversal state;
	// the simulation is single-goroutine per engine, so a plain slice
	// suffices. In steady state every hop is allocation-free. allTransits
	// and allFlights hold every one ever built, so Reset can reclaim those
	// still in flight (their m is non-nil).
	transits    []*transit
	flights     []*flight
	allTransits []*transit
	allFlights  []*flight

	// Dead-link state (see deadlink.go). deadOut[router][dir] marks a dead
	// output link; nextHop is the BFS detour table consulted by route()
	// only while anyDead is set, so the fault-free path is untouched.
	deadOut [][numDirections]bool
	anyDead bool
	nextHop []int8

	// flightSum and flightCount are the in-flight message multiset the
	// model checker folds into its state identity, kept with
	// ChoiceDelivery on: the sum of msg.Fingerprint over every message
	// between Send and its delivery or loss, and their number. Addition
	// (not XOR) makes the sum a multiset hash — two copies of an identical
	// message count twice.
	flightSum   uint64
	flightCount int

	// snap is the buffer Snapshot copies the network into, built by the
	// first Snapshot (snapshot.go).
	snap *netSnapshot
}

// transit is the traversal state of one in-flight message in the simple
// link model, recycled through the Network's freelist between messages.
type transit struct {
	net       *Network
	m         *msg.Message
	router    int
	dstRouter int
	vc        int
	serLat    uint64
	sentAt    uint64
	fp        uint64 // msg.Fingerprint(m), computed once by Send with ChoiceDelivery on
	dropped   bool
	yFirst    bool
}

func (n *Network) getTransit() *transit {
	if len(n.transits) == 0 {
		t := &transit{net: n}
		n.allTransits = append(n.allTransits, t)
		return t
	}
	t := n.transits[len(n.transits)-1]
	n.transits = n.transits[:len(n.transits)-1]
	return t
}

func (n *Network) putTransit(t *transit) {
	t.m = nil
	n.transits = append(n.transits, t)
}

// New builds the network. rec may be nil.
func New(engine *sim.Engine, cfg Config, drop DropFunc, rec Recorder) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rec == nil {
		rec = nopRecorder{}
	}
	n := &Network{
		engine:  engine,
		cfg:     cfg,
		drop:    drop,
		rec:     rec,
		routers: make([]meshRouter, cfg.Width*cfg.Height),
		bufs:    make(map[detailedBufKey]*vcBuf),
	}
	for r := range n.routers {
		n.routers[r].x, n.routers[r].y = int32(r%cfg.Width), int32(r/cfg.Width)
	}
	engine.AtRunEnd(flushPool, n)
	n.Reset()
	return n, nil
}

// flushPool is the network's engine run-end hook: the free messages go
// back to the shared pool and the pool counters to msg.PoolStats.
func flushPool(arg any) { arg.(*Network).pool.Flush() }

// NewMessage returns a zeroed message from the network's freelist for the
// caller to fill in and Send (it implements proto.Sender).
func (n *Network) NewMessage() *msg.Message { return n.pool.Get() }

// Recycle returns a message the caller owns and will not send to the
// network's freelist (it implements proto.Sender).
func (n *Network) Recycle(m *msg.Message) { n.pool.Put(m) }

// Reset returns the network to the state New leaves it in, with the same
// attached endpoints: every link free, every detailed-mode buffer empty,
// no dead link, no message in flight, and the adaptive-routing generator
// reseeded. The message freelist reads the pooling setting
// (msg.SetPooling) again. Messages still in flight are abandoned —
// recycled without reaching a recorder — and their traversal state
// returned to the freelists. The events that would have advanced them must
// be discarded too, by resetting the engine.
func (n *Network) Reset() {
	n.pool.Reset()
	for r := range n.routers {
		n.routers[r].out = [numDirections]link{}
	}
	for _, b := range n.bufs {
		b.used = 0
		clear(b.waiters)
		b.waiters = b.waiters[:0]
	}
	clear(n.deadOut)
	n.anyDead = false
	n.rng = *sim.NewRNG(n.cfg.RoutingSeed ^ 0x5eed)
	n.flightSum, n.flightCount = 0, 0
	n.transits = n.transits[:0]
	for _, t := range n.allTransits {
		if t.m != nil {
			n.pool.Put(t.m)
		}
		n.putTransit(t)
	}
	n.flights = n.flights[:0]
	for _, f := range n.allFlights {
		if f.m != nil {
			n.pool.Put(f.m)
		}
		n.putFlight(f)
	}
}

// SetDrop replaces the drop decision the network was built with (nil means
// a reliable network). It takes effect from the next Send, so a caller
// that reuses the network for another run installs the run's injector
// between a Reset and the run.
func (n *Network) SetDrop(drop DropFunc) { n.drop = drop }

// Attach registers a protocol agent at the given router (0..W*H-1).
// Multiple agents may share a router (an L1 and an L2 bank on one tile).
// Node IDs are positive and at most math.MaxUint16: the network indexes
// its node table by ID, and a delivery channel packs both endpoints into
// 16 bits each (proto.Topology numbers agents densely from 1).
func (n *Network) Attach(id msg.NodeID, router int, h Handler) error {
	if id < 1 || id > math.MaxUint16 {
		return fmt.Errorf("noc: node ID %d out of range 1..%d", id, math.MaxUint16)
	}
	if router < 0 || router >= len(n.routers) {
		return fmt.Errorf("noc: router %d out of range", router)
	}
	if _, dup := n.node(id); dup {
		return fmt.Errorf("noc: node %d already attached", id)
	}
	if h == nil {
		return fmt.Errorf("noc: nil handler for node %d", id)
	}
	if int(id) >= len(n.nodes) {
		n.nodes = append(n.nodes, make([]node, int(id)+1-len(n.nodes))...)
	}
	n.nodes[id] = node{router: router, handler: h}
	return nil
}

// node returns the attachment of id, and whether id is attached.
func (n *Network) node(id msg.NodeID) (node, bool) {
	if id < 0 || int(id) >= len(n.nodes) || n.nodes[id].handler == nil {
		return node{}, false
	}
	return n.nodes[id], true
}

// RouterOf returns the router a node is attached to.
func (n *Network) RouterOf(id msg.NodeID) (int, bool) {
	nd, ok := n.node(id)
	return nd.router, ok
}

// Hops returns the XY hop count between two nodes' routers.
func (n *Network) Hops(a, b msg.NodeID) int {
	ra, ok := n.node(a)
	if !ok {
		return 0
	}
	rb, ok := n.node(b)
	if !ok {
		return 0
	}
	ax, ay := ra.router%n.cfg.Width, ra.router/n.cfg.Width
	bx, by := rb.router%n.cfg.Width, rb.router/n.cfg.Width
	return abs(ax-bx) + abs(ay-by)
}

// InFlight returns the in-flight message multiset: the sum of
// msg.Fingerprint over every message sent and not yet delivered or lost,
// and their number. The network keeps it only with ChoiceDelivery on
// (both are zero otherwise); the model checker folds it into its state
// identity.
func (n *Network) InFlight() (sum uint64, count int) {
	return n.flightSum, n.flightCount
}

// ForEachInFlight visits every message in flight in the simple link model
// with the fingerprint Send stored for it (zero with ChoiceDelivery off).
// It walks every traversal record, so it is a test oracle for InFlight,
// not a hot-path call.
func (n *Network) ForEachInFlight(fn func(m *msg.Message, fp uint64)) {
	for _, t := range n.allTransits {
		if t.m != nil {
			fn(t.m, t.fp)
		}
	}
}

// Send injects a message. Src, Dst and Type must be set. Delivery (or the
// drop) happens via scheduled events; Send itself never invokes handlers.
func (n *Network) Send(m *msg.Message) {
	src, ok := n.node(m.Src)
	if !ok {
		panic(fmt.Sprintf("noc: send from unattached node %d", m.Src))
	}
	dst, ok := n.node(m.Dst)
	if !ok {
		panic(fmt.Sprintf("noc: send to unattached node %d", m.Dst))
	}

	size := m.SizeBytes(n.cfg.ControlSize, n.cfg.DataSize)
	n.rec.MessageSent(m, size)
	dropped := n.drop != nil && n.drop(m)

	if n.anyDead && !n.reachable(src.router, dst.router) {
		// A dead link partitioned source from destination: the message is
		// lost on the spot. The protocols see a permanently lossy path.
		n.rec.MessageDropped(m)
		n.pool.Put(m)
		return
	}

	serLat := uint64((size + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes)
	if serLat == 0 {
		serLat = 1
	}
	if n.cfg.DetailedRouters {
		n.detailedSend(m, src.router, dst.router, int(serLat), dropped)
		return
	}

	yFirst := n.cfg.Routing == RoutingYX
	if n.cfg.Routing == RoutingAdaptive {
		yFirst = n.rng.Bool(0.5)
	}

	t := n.getTransit()
	t.m = m
	t.router = src.router
	t.dstRouter = dst.router
	t.vc = int(m.Class()) - 1
	t.serLat = serLat
	t.sentAt = n.engine.Now()
	t.dropped = dropped
	t.yFirst = yFirst
	if n.cfg.ChoiceDelivery {
		t.fp = msg.Fingerprint(m)
		n.flightSum += t.fp
		n.flightCount++
	}

	// Injection through the local port of the source router.
	n.traverse(t)
}

// transitHop resumes a transit at its next router; transitDeliver ejects it
// at the destination. Both are scheduled through ScheduleCall with the
// pooled transit as the argument, so advancing a message allocates nothing.
func transitHop(arg any, _ uint64) {
	t := arg.(*transit)
	t.net.traverse(t)
}

func transitDeliver(arg any, _ uint64) {
	t := arg.(*transit)
	n, m, dropped, sentAt := t.net, t.m, t.dropped, t.sentAt
	n.landed(t)
	n.putTransit(t)
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

// transitDropChoice loses a message at its ejection port: the model checker
// chose to consume this delivery as one of its budgeted faults. Accounting
// matches an injector drop — MessageDropped fires and the message and
// transit return to their pools.
func transitDropChoice(arg any, _ uint64) {
	t := arg.(*transit)
	n, m := t.net, t.m
	n.landed(t)
	n.putTransit(t)
	n.rec.MessageDropped(m)
	n.pool.Put(m)
}

// landed removes a transit's message from the in-flight multiset as it
// leaves the network, delivered or lost.
func (n *Network) landed(t *transit) {
	if n.cfg.ChoiceDelivery {
		n.flightSum -= t.fp
		n.flightCount--
	}
}

// channelKey packs a message's point-to-point ordered channel identity —
// (src, dst, virtual-channel class) — for the engine's per-channel
// choice-head filtering.
func channelKey(m *msg.Message) uint64 {
	return uint64(uint16(m.Src))<<32 | uint64(uint16(m.Dst))<<16 | uint64(m.Class())
}

// traverse advances the message one link at a time from its current router
// (where the head flit arrives at the current cycle); the message departs
// on the next link when both the router pipeline delay has elapsed and the
// link is free.
func (n *Network) traverse(t *transit) {
	dir := n.route(t.router, t.dstRouter, t.yFirst)
	if n.anyDead && dir == dirLocal && t.router != t.dstRouter {
		// A link died mid-flight and cut this message off from its
		// destination: it is lost where it stands.
		t.dropped = true
	}
	lnk := &n.routers[t.router].out[dir]
	depart := n.engine.Now()
	if lnk.freeAt[t.vc] > depart {
		depart = lnk.freeAt[t.vc]
	}
	lnk.freeAt[t.vc] = depart + t.serLat

	if dir == dirLocal {
		// Ejection at the destination router.
		at := depart + t.serLat + n.cfg.LocalLatency
		if n.cfg.ChoiceDelivery && !t.dropped {
			// Injector-dropped messages are already lost; only real
			// deliveries become model-checking choices.
			n.engine.ScheduleChoiceAt(at, transitDeliver, transitDropChoice, t, 0, channelKey(t.m), t.fp)
			return
		}
		n.engine.ScheduleCallAt(at, transitDeliver, t, 0)
		return
	}

	t.router = n.neighbor(t.router, dir)
	n.engine.ScheduleCallAt(depart+n.cfg.HopLatency, transitHop, t, 0)
}

// route returns the next output direction at router toward dstRouter,
// resolving the X dimension first (XY) or the Y dimension first (YX).
// While any link is dead it instead follows the BFS detour table.
func (n *Network) route(router, dstRouter int, yFirst bool) direction {
	if n.anyDead {
		return n.detourDir(router, dstRouter)
	}
	at, dst := &n.routers[router], &n.routers[dstRouter]
	x, y, dx, dy := at.x, at.y, dst.x, dst.y
	if yFirst {
		switch {
		case y < dy:
			return dirSouth
		case y > dy:
			return dirNorth
		}
	}
	switch {
	case x < dx:
		return dirEast
	case x > dx:
		return dirWest
	case y < dy:
		return dirSouth
	case y > dy:
		return dirNorth
	default:
		return dirLocal
	}
}

// neighbor returns the router one hop away in direction dir.
func (n *Network) neighbor(router int, dir direction) int {
	w := n.cfg.Width
	switch dir {
	case dirEast:
		return router + 1
	case dirWest:
		return router - 1
	case dirSouth:
		return router + w
	case dirNorth:
		return router - w
	default:
		return router
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
