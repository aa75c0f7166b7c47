package token

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// homeLine is the home node's per-line record: the memory-side token pool
// and data, the persistent-request arbitration, and (FtTokenCMP) the token
// serial number and recreation state. home/addr let the record be its
// timers' handler argument.
type homeLine struct {
	home *Home
	addr msg.Addr

	tokens  int
	owner   bool
	data    msg.Payload
	dirty   bool
	touched bool // fetched at least once (cold misses pay memory latency)

	// Persistent-request arbitration (centralized at the home node).
	active      msg.NodeID
	queue       []msg.NodeID
	activeTimer sim.Timer

	// FtTokenCMP.
	serial     msg.SerialNumber
	recreating bool
	acked      cache.Bitset
	freshest   msg.Payload
	freshDirty bool
	haveFresh  bool
	recTimer   sim.Timer
}

// Home is a token-protocol home node, one per tile: the memory-side token
// holder and the persistent-request arbiter for its slice of the address
// space. It stands in for the L2 bank + memory of the directory protocols.
type Home struct {
	id     msg.NodeID
	topo   proto.Topology
	params proto.Params
	engine *sim.Engine
	net    proto.Sender
	run    *stats.Run
	ft     bool
	obs    *obs.Recorder

	totalTokens int
	lines       map[msg.Addr]*homeLine
	spare       []*homeLine // dropped by Reset, for line to reuse

	sendDelayed func(arg any, _ uint64) // sends a grant the storage latency delayed

	snap *homeSnapshot // Snapshot's buffer, built by the first Snapshot (snapshot.go)
}

var _ proto.Inspectable = (*Home)(nil)

// NewHome builds a token-protocol home node. ft selects FtTokenCMP.
func NewHome(id msg.NodeID, topo proto.Topology, params proto.Params, engine *sim.Engine,
	net proto.Sender, run *stats.Run, ft bool) *Home {
	h := &Home{
		id:          id,
		topo:        topo,
		params:      params,
		engine:      engine,
		net:         net,
		run:         run,
		ft:          ft,
		totalTokens: topo.Tiles,
		lines:       make(map[msg.Addr]*homeLine),
	}
	h.sendDelayed = func(arg any, _ uint64) { h.net.Send(arg.(*msg.Message)) }
	h.Reset()
	return h
}

// Reset returns the home node to the state NewHome leaves it in: every
// line record is dropped with its timers stopped, so each line starts
// again with all tokens and zero data. The observer stays attached.
func (h *Home) Reset() {
	for _, ln := range h.lines {
		ln.activeTimer.Stop()
		ln.recTimer.Stop()
		h.spare = append(h.spare, ln)
	}
	clear(h.lines)
}

// NodeID implements proto.Inspectable.
func (h *Home) NodeID() msg.NodeID { return h.id }

// SetObserver attaches a structured-event recorder. Nil is fine.
func (h *Home) SetObserver(o *obs.Recorder) { h.obs = o }

// Quiesced reports whether no persistent request or recreation is live.
func (h *Home) Quiesced() bool {
	for _, ln := range h.lines {
		if ln.active != 0 || len(ln.queue) > 0 || ln.recreating {
			return false
		}
	}
	return true
}

// line returns (creating on first touch) the record for addr, which starts
// with all tokens, the owner token and zero data — memory semantics.
func (h *Home) line(addr msg.Addr) *homeLine {
	ln := h.lines[addr]
	if ln == nil {
		if n := len(h.spare); n > 0 {
			ln = h.spare[n-1]
			h.spare = h.spare[:n-1]
		} else {
			ln = new(homeLine)
		}
		// A recycled record keeps its timers, whose epochs make firings
		// from its previous life dead, and its queue's capacity.
		*ln = homeLine{home: h, addr: addr, tokens: h.totalTokens, owner: true,
			queue: ln.queue[:0], activeTimer: ln.activeTimer, recTimer: ln.recTimer}
		h.lines[addr] = ln
	}
	return ln
}

// Handle processes a delivered network message.
func (h *Home) Handle(m *msg.Message) {
	switch m.Type {
	case msg.TrGetS:
		h.handleTrGetS(m)
	case msg.TrGetX:
		h.handleTrGetX(m)
	case msg.TokenGrant, msg.TokenRelease:
		h.handleTokens(m)
	case msg.PersistentReq:
		h.handlePersistentReq(m)
	case msg.PersistentDeact:
		h.handlePersistentDeact(m)
	case msg.RecreateReq:
		h.handleRecreateReq(m)
	case msg.RecreateAck:
		h.handleRecreateAck(m)
	case msg.AckO:
		// Ownership acknowledgment for tokens we sent: the home always
		// retains the data, so just confirm the deletion.
		h.send(&msg.Message{Type: msg.AckBD, Dst: m.Src, Addr: m.Addr, SN: m.SN})
	case msg.AckBD:
		// Closing our AckO for received owner tokens: nothing held open.
	case msg.OwnershipPing:
		h.handleOwnershipPing(m)
	case msg.NackO:
		// The home keeps no explicit backups; nothing to restart.
	default:
		protocolPanic("token home %d received unexpected %v", h.id, m)
	}
}

// handleTrGetS answers a read request when the home holds the owner token:
// idle lines are granted every token at once (the exclusive-grant
// optimization mirroring the directory protocols' E state).
func (h *Home) handleTrGetS(m *msg.Message) {
	ln := h.line(m.Addr)
	if ln.recreating || !ln.owner || ln.tokens < 1 {
		return
	}
	if ln.active != 0 && ln.active != m.Src {
		return
	}
	if ln.tokens == h.totalTokens {
		h.grantAll(m.Addr, ln, m.Src)
		return
	}
	ln.tokens--
	grant := &msg.Message{
		Type: msg.TokenGrant, Dst: m.Src, Addr: m.Addr, AckCount: 1,
		SN: ln.serial, Payload: ln.data, Dirty: ln.dirty,
	}
	h.sendAfter(h.accessLatency(ln), grant)
}

// accessLatency models the home's storage: a line's first grant pays the
// memory latency (cold fetch), later ones the L2 hit latency — the home
// acts as an infinite-capacity L2 in front of memory. The directory
// protocols model a finite L2, so capacity effects slightly favor the
// token side; the §5 comparison points (traffic, recovery, hardware) are
// unaffected.
func (h *Home) accessLatency(ln *homeLine) uint64 {
	if !ln.touched {
		ln.touched = true
		return h.params.MemLatency
	}
	return h.params.L2HitLatency
}

// sendAfter delays a send by the storage access latency.
func (h *Home) sendAfter(delay uint64, m *msg.Message) {
	if delay == 0 {
		h.send(m)
		return
	}
	pm := h.net.NewMessage()
	*pm = *m
	pm.Src = h.id
	h.engine.ScheduleCall(delay, h.sendDelayed, pm, 0)
}

// handleTrGetX sends every token the home holds.
func (h *Home) handleTrGetX(m *msg.Message) {
	ln := h.line(m.Addr)
	if ln.recreating || ln.tokens == 0 {
		return
	}
	if ln.active != 0 && ln.active != m.Src {
		return
	}
	h.grantAll(m.Addr, ln, m.Src)
}

// grantAll moves all of the home's tokens (and the owner token plus data,
// if held) to dst, paying the storage latency when data is read.
func (h *Home) grantAll(addr msg.Addr, ln *homeLine, dst msg.NodeID) {
	grant := &msg.Message{
		Type: msg.TokenGrant, Dst: dst, Addr: addr, AckCount: ln.tokens,
		SN: ln.serial, NoPayload: true,
	}
	delay := uint64(0)
	if ln.owner {
		grant.Owner = true
		grant.NoPayload = false
		grant.Payload = ln.data
		grant.Dirty = ln.dirty
		delay = h.accessLatency(ln)
	}
	ln.tokens = 0
	ln.owner = false
	h.sendAfter(delay, grant)
}

// handleTokens absorbs released or bounced tokens — or forwards them to
// the active persistent requester.
func (h *Home) handleTokens(m *msg.Message) {
	ln := h.line(m.Addr)
	if h.ft && m.SN != ln.serial {
		h.run.Proto.StaleSNDiscarded++
		return
	}
	if ln.active != 0 {
		fwd := *m
		fwd.Type = msg.TokenGrant
		fwd.Dst = ln.active
		h.net.Send(&fwd) // preserve Src for the owner handshake
		return
	}
	ln.tokens += m.AckCount
	if ln.tokens > h.totalTokens {
		protocolPanic("token home %d holds %d tokens for %#x", h.id, ln.tokens, m.Addr)
	}
	if m.Owner {
		ln.owner = true
		if !m.NoPayload {
			ln.data = m.Payload
			ln.dirty = m.Dirty
		}
		if h.ft {
			h.run.Proto.AcksOSent++
			h.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: m.Addr, SN: m.SN})
		}
	}
}

// handlePersistentReq queues the starver and activates it if the line has
// no active persistent request yet.
func (h *Home) handlePersistentReq(m *msg.Message) {
	ln := h.line(m.Addr)
	if ln.active == m.Src {
		return
	}
	for _, q := range ln.queue {
		if q == m.Src {
			return
		}
	}
	ln.queue = append(ln.queue, m.Src)
	if ln.active == 0 {
		h.activateNext(m.Addr, ln)
	}
}

// activateNext pops the queue and broadcasts the activation; everyone
// (including the home) forwards the line's tokens to the starver.
func (h *Home) activateNext(addr msg.Addr, ln *homeLine) {
	if len(ln.queue) == 0 {
		return
	}
	ln.active = ln.queue[0]
	ln.queue = ln.queue[1:]
	for i := 0; i < h.topo.Tiles; i++ {
		h.send(&msg.Message{
			Type: msg.PersistentAct, Dst: h.topo.L1(i), Addr: addr, Requestor: ln.active,
		})
	}
	if ln.tokens > 0 {
		h.grantAll(addr, ln, ln.active)
	}
	if h.ft {
		ln.activeTimer.Start(h.engine, h.params.LostUnblockTimeout, activeTimerFired, ln)
	}
}

// activeTimerFired guards a lost PersistentDeact (FtTokenCMP): ping the
// starver; if its miss completed it re-sends the deactivation.
func activeTimerFired(arg any) {
	ln := arg.(*homeLine)
	h, addr := ln.home, ln.addr
	if ln.active == 0 {
		return
	}
	h.run.Proto.LostUnblockTimeouts++
	h.obs.TimeoutFired("home", h.id, addr, 0, obs.TimeoutLostUnblock)
	h.send(&msg.Message{Type: msg.UnblockPing, Dst: ln.active, Addr: addr})
	// Re-broadcast the authoritative activation: lost PersistentAct or
	// PersistentDeact messages can leave nodes with stale entries that
	// point at *different* starvers, making them forward the line's
	// tokens at each other forever. Converging every table to the
	// current starver breaks the cycle.
	for i := 0; i < h.topo.Tiles; i++ {
		h.send(&msg.Message{
			Type: msg.PersistentAct, Dst: h.topo.L1(i), Addr: addr, Requestor: ln.active,
		})
	}
	ln.activeTimer.Start(h.engine, h.params.LostUnblockTimeout, activeTimerFired, ln)
}

// handlePersistentDeact ends the active persistent request and broadcasts
// the deactivation, then activates the next starver if any.
func (h *Home) handlePersistentDeact(m *msg.Message) {
	ln := h.line(m.Addr)
	if ln.active != m.Src {
		return // stale deactivation
	}
	ln.active = 0
	ln.activeTimer.Stop()
	for i := 0; i < h.topo.Tiles; i++ {
		h.send(&msg.Message{Type: msg.PersistentDeact, Dst: h.topo.L1(i), Addr: m.Addr})
	}
	h.activateNext(m.Addr, ln)
}

// handleRecreateReq starts the token recreation process (FtTokenCMP): bump
// the serial, invalidate every node's tokens, collect acknowledgments.
func (h *Home) handleRecreateReq(m *msg.Message) {
	if !h.ft {
		return
	}
	ln := h.line(m.Addr)
	if ln.recreating {
		return
	}
	h.run.Proto.TokenRecreations++
	ln.recreating = true
	ln.serial = (ln.serial + 1) & msg.SerialNumber(1<<h.params.SerialBits-1)
	if ln.serial == 0 {
		ln.serial = 1 // zero means "never recreated"; skip it
	}
	h.obs.Recreate(h.id, m.Addr, ln.serial)
	// The home's own copy is always a valid (if possibly old) version of
	// the line, so it participates in the freshest-version election like
	// any collected acknowledgment; versions are monotonic, so taking the
	// maximum always yields the newest surviving copy. The home's tokens
	// are reconstituted at the end, so drop them now.
	ln.freshest = ln.data
	ln.freshDirty = ln.dirty
	ln.haveFresh = true
	ln.tokens = 0
	ln.owner = false
	ln.acked.Clear()
	h.broadcastRecreate(m.Addr, ln)
	ln.recTimer.Start(h.engine, h.params.LostUnblockTimeout, recreateTimerFired, ln)
}

func (h *Home) broadcastRecreate(addr msg.Addr, ln *homeLine) {
	for i := 0; i < h.topo.Tiles; i++ {
		if ln.acked.Contains(i) {
			continue
		}
		h.send(&msg.Message{Type: msg.RecreateInv, Dst: h.topo.L1(i), Addr: addr, SN: ln.serial})
	}
}

// recreateTimerFired re-broadcasts the invalidation to nodes that have not
// acknowledged (their RecreateInv or RecreateAck was lost).
func recreateTimerFired(arg any) {
	ln := arg.(*homeLine)
	h, addr := ln.home, ln.addr
	if !ln.recreating {
		return
	}
	h.run.Proto.LostUnblockTimeouts++
	h.obs.TimeoutFired("home", h.id, addr, 0, obs.TimeoutLostUnblock)
	h.broadcastRecreate(addr, ln)
	ln.recTimer.Start(h.engine, h.params.LostUnblockTimeout, recreateTimerFired, ln)
}

// handleRecreateAck collects a node's response; when everyone answered,
// all T tokens are reconstituted under the new serial with the freshest
// data observed.
func (h *Home) handleRecreateAck(m *msg.Message) {
	ln := h.line(m.Addr)
	if !ln.recreating || m.SN != ln.serial {
		h.run.Proto.StaleSNDiscarded++
		return
	}
	ln.acked.Add(h.topo.SharerIndex(m.Src))
	if !m.NoPayload {
		if !ln.haveFresh || m.Payload.Version > ln.freshest.Version {
			ln.freshest = m.Payload
			ln.freshDirty = m.Dirty
			ln.haveFresh = true
		}
	}
	if ln.acked.Count() < h.topo.Tiles {
		return
	}
	// Everyone answered: recreate.
	ln.recreating = false
	ln.recTimer.Stop()
	ln.tokens = h.totalTokens
	ln.owner = true
	ln.data = ln.freshest
	ln.dirty = ln.freshDirty
	// An active persistent request owns every token of the line,
	// including freshly recreated ones.
	if ln.active != 0 {
		h.grantAll(m.Addr, ln, ln.active)
	}
}

// handleOwnershipPing answers a backup holder's query: the home has
// ownership when it holds the owner token (or just received it).
func (h *Home) handleOwnershipPing(m *msg.Message) {
	ln := h.line(m.Addr)
	if ln.owner {
		h.run.Proto.AcksOSent++
		h.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: m.Addr, SN: m.SN})
		return
	}
	h.send(&msg.Message{Type: msg.NackO, Dst: m.Src, Addr: m.Addr, SN: m.SN})
}

func (h *Home) send(m *msg.Message) {
	pm := h.net.NewMessage()
	*pm = *m
	pm.Src = h.id
	h.net.Send(pm)
}

// InspectLines implements proto.Inspectable.
func (h *Home) InspectLines(fn func(proto.LineView)) {
	for addr, ln := range h.lines {
		state := fmt.Sprintf("T%d", ln.tokens)
		if ln.recreating {
			state += "+recreating"
		} else if ln.active != 0 || len(ln.queue) > 0 {
			state += "+txn"
		}
		fn(proto.LineView{
			Addr:      addr,
			Owner:     ln.owner,
			Transient: ln.active != 0 || len(ln.queue) > 0 || ln.recreating,
			Payload:   ln.data,
			Tokens:    ln.tokens,
			State:     state,
		})
	}
}
