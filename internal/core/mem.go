package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/memctrl"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Memory-controller transaction phases.
const (
	memIdle = iota
	// memWaitUnblock: DataEx sent; the store is the backup until the L2's
	// UnblockEx+AckO arrives.
	memWaitUnblock
	// memWaitWbData: WbAck sent; waiting for WbData/WbNoData/WbCancel.
	memWaitWbData
	// memWaitAckBD: AckO sent for received WbData; waiting for the L2 to
	// delete its backup.
	memWaitAckBD
)

// memPhaseName names a memory transaction phase for diagnostics.
func memPhaseName(p int) string {
	switch p {
	case memIdle:
		return "idle"
	case memWaitUnblock:
		return "wait-unblock"
	case memWaitWbData:
		return "wait-wbdata"
	case memWaitAckBD:
		return "wait-ackbd"
	default:
		return fmt.Sprintf("phase(%d)", p)
	}
}

// Interned "chip|mem+<phase>" names for InspectLines: the checker inspects
// every line per run, so building these by concatenation would allocate.
var memChipPhase, memMemPhase [4]string

func init() {
	for p := range memChipPhase {
		memChipPhase[p] = "chip+" + memPhaseName(p)
		memMemPhase[p] = "mem+" + memPhaseName(p)
	}
}

func memStatePhaseName(owned bool, p int) string {
	if p < 0 || p >= len(memChipPhase) {
		if owned {
			return "chip+" + memPhaseName(p)
		}
		return "mem+" + memPhaseName(p)
	}
	if owned {
		return memChipPhase[p]
	}
	return memMemPhase[p]
}

// memTrans is a per-line memory transaction.
type memTrans struct {
	owner *Mem
	addr  msg.Addr

	phase int
	requests

	ackOSN msg.SerialNumber

	pingTimer  sim.Timer
	ackBDTimer sim.Timer
}

func (t *memTrans) timersOff() {
	t.pingTimer.Stop()
	t.ackBDTimer.Stop()
}

func resetMemTrans(t *memTrans) {
	t.timersOff()
	*t = memTrans{requests: requests{queue: t.queue[:0]}, pingTimer: t.pingTimer, ackBDTimer: t.ackBDTimer}
}

// Mem is a memory controller. It serializes transactions per line and
// tracks which lines the on-chip L2 currently owns, so that evicted lines
// can be re-fetched and dirty data lands back in the store. With ft set
// (FtDirCMP) it adds reissue detection, the lost-unblock timeout toward the
// L2, and the ownership-acknowledgment handshake on both transfer
// directions. Memory never dies: under structural faults it only detects
// and anchors the reconstruction.
type Mem struct {
	ctrl

	store *memctrl.Store
	owned map[msg.Addr]bool
	trans *cache.Table[memTrans]

	// sendDelayed is the prepared ScheduleCall callback for latency-delayed
	// responses; built once so scheduling one allocates nothing.
	sendDelayed func(arg any, tick uint64)

	snap *memSnapshot // Snapshot's buffer, built by the first Snapshot (snapshot.go)
}

var _ proto.Inspectable = (*Mem)(nil)

// NewMem builds a memory controller over the given store; ft selects
// FtDirCMP.
func NewMem(id msg.NodeID, topo proto.Topology, params proto.Params, engine *sim.Engine,
	net proto.Sender, run *stats.Run, store *memctrl.Store, ft bool) *Mem {
	c := &Mem{
		ctrl:  newCtrl(id, "mem", topo, params, engine, net, run, ft),
		store: store,
		owned: make(map[msg.Addr]bool),
		trans: cache.NewTableReset[memTrans](0, resetMemTrans),
	}
	c.sendDelayed = func(arg any, _ uint64) { c.net.Send(arg.(*msg.Message)) }
	c.Reset()
	return c
}

// Reset returns the controller to the state NewMem leaves it in:
// transactions are freed through their reset hook (stopping their
// timers), no line is on-chip owned, and the serial space restarts. The
// store is shared between controllers; its owner resets it.
func (c *Mem) Reset() {
	c.trans.Reset()
	clear(c.owned)
	c.reset()
}

// Quiesced reports whether no transaction is in flight.
func (c *Mem) Quiesced() bool { return c.trans.Len() == 0 }

// Handle processes a delivered network message.
func (c *Mem) Handle(m *msg.Message) {
	if c.deaf(m) {
		return
	}
	switch m.Type {
	case msg.GetX, msg.Put:
		c.handleRequest(m)
	case msg.UnblockEx, msg.Unblock:
		c.handleUnblock(m)
	case msg.WbData:
		c.handleWbData(m)
	case msg.WbNoData, msg.WbCancel:
		c.handleWbNoData(m)
	case msg.AckO:
		c.handleAckO(m)
	case msg.AckBD:
		c.handleAckBD(m)
	case msg.OwnershipPing:
		c.handleOwnershipPing(m)
	case msg.NackO:
		c.handleNackO(m)
	default:
		protocolPanic("mem %d received unexpected %v", c.id, m)
	}
}

// handleRequest starts, queues or (FtDirCMP) re-answers a reissued L2
// request.
func (c *Mem) handleRequest(m *msg.Message) {
	t := c.trans.Get(m.Addr)
	if t == nil {
		if c.ft && m.Type == msg.GetX && c.owned[m.Addr] {
			// A superseded fetch attempt arriving after the whole exchange
			// completed: answer with a stale-serial response the L2 will
			// discard, changing nothing.
			c.run.Proto.StaleSNDiscarded++
			c.send(&msg.Message{
				Type: msg.DataEx, Dst: m.Src, Addr: m.Addr, TID: m.TID, SN: m.SN,
				Payload: c.store.Read(m.Addr),
			})
			return
		}
		t = c.trans.Alloc(m.Addr)
		t.owner = c
		t.addr = m.Addr
		t.req = reqOf(m)
		c.service(m.Addr, t)
		return
	}
	if t.admit(m, c.ft) {
		c.resendResponse(m.Addr, t)
	}
}

func (c *Mem) service(addr msg.Addr, t *memTrans) {
	switch t.req.typ {
	case msg.GetX:
		if !c.owned[addr] {
			c.obs.StateChange("mem", c.id, addr, t.req.tid, "mem", "chip")
		}
		c.owned[addr] = true
		t.phase = memWaitUnblock
		pm := c.net.NewMessage()
		pm.Type, pm.Dst, pm.Addr = msg.DataEx, t.req.from, addr
		pm.TID, pm.SN = t.req.tid, t.req.sn
		pm.Payload = c.store.Read(addr)
		pm.Src = c.id
		c.engine.ScheduleCall(c.params.MemLatency, c.sendDelayed, pm, 0)
		if c.ft {
			t.arm(obs.TimeoutLostUnblock)
		}
	case msg.Put:
		t.phase = memWaitWbData
		c.send(&msg.Message{
			Type: msg.WbAck, Dst: t.req.from, Addr: addr, TID: t.req.tid, SN: t.req.sn,
			WantData: c.owned[addr],
		})
		if c.ft {
			t.arm(obs.TimeoutLostUnblock)
		}
	default:
		protocolPanic("mem %d cannot service %v", c.id, t.req.typ)
	}
}

// resendResponse re-answers the in-service request after a reissue.
func (c *Mem) resendResponse(addr msg.Addr, t *memTrans) {
	switch t.phase {
	case memWaitUnblock:
		c.send(&msg.Message{
			Type: msg.DataEx, Dst: t.req.from, Addr: addr, TID: t.req.tid, SN: t.req.sn,
			Payload: c.store.Read(addr),
		})
	case memWaitWbData:
		c.send(&msg.Message{
			Type: msg.WbAck, Dst: t.req.from, Addr: addr, TID: t.req.tid, SN: t.req.sn,
			WantData: c.owned[addr],
		})
	}
}

// handleUnblock closes a fetch transaction; the piggybacked AckO deletes
// memory's backup role and is answered with AckBD.
func (c *Mem) handleUnblock(m *msg.Message) {
	t := c.trans.Get(m.Addr)
	if t == nil || t.phase != memWaitUnblock || m.Src != t.req.from {
		if m.PiggybackAckO {
			c.send(&msg.Message{Type: msg.AckBD, Dst: m.Src, Addr: m.Addr, TID: m.TID, SN: m.SN})
		}
		c.run.Proto.StaleSNDiscarded++
		return
	}
	if m.PiggybackAckO {
		c.send(&msg.Message{Type: msg.AckBD, Dst: m.Src, Addr: m.Addr, TID: m.TID, SN: m.SN})
	}
	c.finish(m.Addr, t)
}

// handleWbData stores the written-back data; ownership moved to memory, so
// (FtDirCMP) acknowledge and wait for the L2's backup deletion.
func (c *Mem) handleWbData(m *msg.Message) {
	t := c.trans.Get(m.Addr)
	if t == nil || t.phase != memWaitWbData || m.Src != t.req.from {
		c.run.Proto.StaleSNDiscarded++
		return
	}
	t.pingTimer.Stop()
	c.store.Write(m.Addr, m.Payload)
	if c.owned[m.Addr] {
		c.obs.StateChange("mem", c.id, m.Addr, m.TID, "chip", "mem")
	}
	c.owned[m.Addr] = false
	if !c.ft {
		c.finish(m.Addr, t)
		return
	}
	t.phase = memWaitAckBD
	t.ackOSN = m.SN
	c.run.Proto.AcksOSent++
	c.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: m.Addr, TID: m.TID, SN: m.SN})
	t.arm(obs.TimeoutLostAckBD)
}

// handleWbNoData closes a writeback without data (clean line or WbCancel).
func (c *Mem) handleWbNoData(m *msg.Message) {
	t := c.trans.Get(m.Addr)
	if t == nil || t.phase != memWaitWbData || m.Src != t.req.from {
		c.run.Proto.StaleSNDiscarded++
		return
	}
	t.pingTimer.Stop()
	// WbCancel reports the writeback finished from the L2's point of view.
	// Toward memory that always means the line left the chip: either the
	// data arrived in an earlier exchange (ownership already cleared) or
	// the eviction was clean and its WbNoData was lost. A refetch cannot
	// have been granted meanwhile — this very transaction blocks the line —
	// so clearing ownership is safe in both cases.
	if c.owned[m.Addr] {
		c.obs.StateChange("mem", c.id, m.Addr, m.TID, "chip", "mem")
	}
	c.owned[m.Addr] = false
	c.finish(m.Addr, t)
}

// handleAckO answers a standalone ownership acknowledgment (the L2's
// lost-AckBD resend): the backup role here is implicit (memory always has
// the data), so just acknowledge the deletion.
func (c *Mem) handleAckO(m *msg.Message) {
	c.send(&msg.Message{Type: msg.AckBD, Dst: m.Src, Addr: m.Addr, TID: m.TID, SN: m.SN})
}

// handleAckBD closes the WbData handshake.
func (c *Mem) handleAckBD(m *msg.Message) {
	t := c.trans.Get(m.Addr)
	if t == nil || t.phase != memWaitAckBD || m.Src != t.req.from {
		c.run.Proto.StaleSNDiscarded++
		return
	}
	if m.SN != t.ackOSN {
		c.run.Proto.StaleSNDiscarded++
		c.run.Proto.FalsePositives++
		return
	}
	t.ackBDTimer.Stop()
	c.finish(m.Addr, t)
}

// handleOwnershipPing confirms whether memory received the WbData the
// pinging L2 holds a backup for.
func (c *Mem) handleOwnershipPing(m *msg.Message) {
	t := c.trans.Get(m.Addr)
	if t != nil && t.phase == memWaitAckBD && t.req.from == m.Src {
		c.run.Proto.AcksOSent++
		c.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: m.Addr, TID: t.req.tid, SN: t.ackOSN})
		return
	}
	if t != nil && t.phase == memWaitWbData {
		// Still waiting for the data: the L2's copy is the only one.
		c.send(&msg.Message{Type: msg.NackO, Dst: m.Src, Addr: m.Addr, TID: m.TID, SN: m.SN})
		return
	}
	if !c.owned[m.Addr] {
		// The handshake completed earlier; confirm idempotently.
		c.run.Proto.AcksOSent++
		c.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: m.Addr, TID: m.TID, SN: m.SN})
		return
	}
	c.send(&msg.Message{Type: msg.NackO, Dst: m.Src, Addr: m.Addr, TID: m.TID, SN: m.SN})
}

// handleNackO is ignorable at memory: it never holds an explicit backup
// entry (the store always retains the data).
func (c *Mem) handleNackO(m *msg.Message) {}

func (c *Mem) finish(addr msg.Addr, t *memTrans) {
	t.timersOff()
	c.obs.TransactionEnd("mem", c.id, addr, t.req.tid)
	if !t.pop() {
		c.trans.Free(addr)
		return
	}
	t.phase = memIdle
	c.service(addr, t)
}

// InspectLines implements proto.Inspectable. Memory owns every line the
// chip has not claimed; in FtDirCMP, while a DataEx it sent is
// unacknowledged, it reports itself as the (off-chip) backup. Each home
// line is reported once: first every line the owned map has an entry for,
// then the stored lines it has none for.
func (c *Mem) InspectLines(fn func(proto.LineView)) {
	emit := func(addr msg.Addr) {
		if c.topo.HomeMem(addr) != c.id {
			return
		}
		t := c.trans.Get(addr)
		backup := c.ft && t != nil && t.phase == memWaitUnblock
		state := "chip"
		if !c.owned[addr] {
			state = "mem"
		}
		var sn msg.SerialNumber
		if t != nil {
			state = memStatePhaseName(c.owned[addr], t.phase)
			sn = t.req.sn
			if sn == 0 {
				sn = t.ackOSN
			}
		}
		fn(proto.LineView{
			Addr:      addr,
			Owner:     !c.owned[addr] || (t != nil && t.phase == memWaitAckBD),
			Backup:    backup,
			Transient: t != nil,
			Payload:   c.store.Read(addr),
			State:     state,
			SN:        sn,
		})
	}
	for addr := range c.owned {
		emit(addr)
	}
	c.store.ForEach(func(addr msg.Addr, _ msg.Payload) {
		if _, ok := c.owned[addr]; !ok {
			emit(addr)
		}
	})
}

// Owned reports whether the chip currently owns addr.
func (c *Mem) Owned(addr msg.Addr) bool { return c.owned[addr] }
