package core

import (
	"repro/internal/cache"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// l1Miss is an FtDirCMP L1 MSHR entry. Besides the baseline bookkeeping it
// carries the request serial number and the lost-request timer.
type l1Miss struct {
	owner *L1
	addr  msg.Addr

	write    bool
	value    uint64
	issuedAt uint64

	tid msg.TID
	sn  msg.SerialNumber
	// snHistory lists every serial number this miss has used (initial plus
	// reissues). Drawing each attempt from the node's wrapping counter
	// keeps serial numbers unique per node across a full counter period,
	// which the paper requires per address (§3.5); the history lets the
	// UnblockPing handler decide whether a ping refers to this miss or to
	// an earlier, already-satisfied transaction on the same line.
	snHistory []msg.SerialNumber
	reqType   msg.Type
	timer     sim.Timer
	attempts  int

	dataArrived   bool
	exclusive     bool
	dirty         bool
	noPayload     bool
	payload       msg.Payload
	dataFrom      msg.NodeID
	ackCountKnown bool
	needAcks      int
	acksSeen      int

	done    func(proto.AccessResult)
	waiters []proto.Access
}

// usedSN reports whether this miss has used sn in any of its attempts.
func (e *l1Miss) usedSN(sn msg.SerialNumber) bool {
	for _, s := range e.snHistory {
		if s == sn {
			return true
		}
	}
	return false
}

// l1WB is a writeback-buffer entry. Until the WbData is sent it holds the
// owned data (Put outstanding, lost-request timer running); after sending
// WbData it becomes a backup copy guarded by the backup timer until the
// L2's AckO arrives.
type l1WB struct {
	owner *L1
	addr  msg.Addr

	payload msg.Payload
	dirty   bool
	tid     msg.TID
	sn      msg.SerialNumber

	transferred bool // ownership answered a forwarded request instead
	sentData    bool // WbData sent; this entry is now a backup
	attempts    int

	putTimer    sim.Timer
	backupTimer sim.Timer
	waiters     []proto.Access
}

// backupEntry is a backup copy kept after sending owned data to another L1
// (§3.1): retained until the new owner's AckO arrives, able to resend the
// data if the receiver reissues its request.
type backupEntry struct {
	owner *L1
	addr  msg.Addr

	payload  msg.Payload
	dirty    bool
	dest     msg.NodeID
	tid      msg.TID
	sn       msg.SerialNumber
	ackCount int
	timer    sim.Timer
}

// blockedEntry marks a line in a blocked-ownership state (Mb/Eb/Ob): we
// received owned data, sent the AckO, and may not transfer ownership until
// the AckBD arrives. Forwarded requests received meanwhile are deferred.
type blockedEntry struct {
	owner *L1
	addr  msg.Addr

	ackOTo msg.NodeID
	tid    msg.TID
	sn     msg.SerialNumber
	piggy  bool // the AckO rides the UnblockEx to the home L2
	timer  sim.Timer
	// deferred holds the newest forwarded request per requester, by value
	// and in ascending Requestor order, the order handleAckBD replays them
	// in: the network recycles delivered messages when the handler
	// returns, so anything kept for later replay must be copied out.
	deferred []msg.Message
}

// deferFwd records m as the newest forwarded request from its requester.
func (b *blockedEntry) deferFwd(m *msg.Message) {
	i := 0
	for i < len(b.deferred) && b.deferred[i].Requestor < m.Requestor {
		i++
	}
	if i < len(b.deferred) && b.deferred[i].Requestor == m.Requestor {
		b.deferred[i] = *m
		return
	}
	b.deferred = append(b.deferred, msg.Message{})
	copy(b.deferred[i+1:], b.deferred[i:])
	b.deferred[i] = *m
}

// L1 is a level-1 cache controller: FtDirCMP when ft is set, DirCMP
// otherwise.
type L1 struct {
	ctrl

	array   *cache.Array
	mshr    *cache.Table[l1Miss]
	wb      *cache.Table[l1WB]
	backups *cache.Table[backupEntry]
	blocked *cache.Table[blockedEntry]
	onWrite proto.WriteObserver
	results proto.DeferredResults // hit completions and retries in flight

	// victimFilter is the eviction predicate passed to cache.Array.Victim,
	// built once so the miss path does not allocate a closure per install.
	victimFilter func(*cache.Line) bool
	// replayFwd handles a deferred forward copied into a message from the
	// network's freelist (handleAckBD) and recycles it there, as the
	// network does after a delivery; built once so a replay allocates
	// nothing.
	replayFwd func(arg any, _ uint64)

	snap *l1Snapshot // Snapshot's buffer, built by the first Snapshot (snapshot.go)
}

var _ proto.L1Port = (*L1)(nil)
var _ proto.Inspectable = (*L1)(nil)

// NewL1 builds an L1 controller; ft selects FtDirCMP. onWrite may be nil.
func NewL1(id msg.NodeID, topo proto.Topology, params proto.Params, engine *sim.Engine,
	net proto.Sender, run *stats.Run, onWrite proto.WriteObserver, ft bool) (*L1, error) {
	arr, err := cache.NewArray(params.L1Size, params.L1Ways, params.LineSize)
	if err != nil {
		return nil, err
	}
	l := &L1{
		ctrl:    newCtrl(id, "l1", topo, params, engine, net, run, ft),
		array:   arr,
		mshr:    cache.NewTableReset[l1Miss](params.MSHRs, resetL1Miss),
		wb:      cache.NewTableReset[l1WB](0, resetL1WB),
		backups: cache.NewTableReset[backupEntry](0, resetBackup),
		blocked: cache.NewTableReset[blockedEntry](0, resetBlocked),
		onWrite: onWrite,
	}
	l.victimFilter = func(c *cache.Line) bool {
		return l.mshr.Get(c.Addr) == nil && l.wb.Get(c.Addr) == nil && l.blocked.Get(c.Addr) == nil
	}
	l.replayFwd = func(arg any, _ uint64) {
		m := arg.(*msg.Message)
		l.Handle(m)
		l.net.Recycle(m)
	}
	l.Reset()
	return l, nil
}

// Reset returns the controller to the state NewL1 leaves it in: every
// table entry is freed through its reset hook (stopping its timers), the
// cache frames are invalidated but kept, and the serial space and TID
// source restart. The observer and failure detector stay attached.
func (l *L1) Reset() {
	l.mshr.Reset()
	l.wb.Reset()
	l.backups.Reset()
	l.blocked.Reset()
	l.array.Reset()
	l.reset()
	l.results.Reset()
}

// Reset hooks for the recycled entry tables. Each one stops the entry's
// timers (stale firings from the previous life are then discarded by epoch)
// and carries the timers over, along with any other capacity-bearing field
// whose contents cannot outlive the entry. The waiters slices are NOT
// reused: completion paths capture the slice before Free and drain it after,
// so a recycled backing array could be appended to before the drain runs.

func resetL1Miss(e *l1Miss) {
	e.timer.Stop()
	*e = l1Miss{timer: e.timer, snHistory: e.snHistory[:0]}
}

func resetL1WB(w *l1WB) {
	w.putTimer.Stop()
	w.backupTimer.Stop()
	*w = l1WB{putTimer: w.putTimer, backupTimer: w.backupTimer}
}

func resetBackup(b *backupEntry) {
	b.timer.Stop()
	*b = backupEntry{timer: b.timer}
}

func resetBlocked(b *blockedEntry) {
	b.timer.Stop()
	*b = blockedEntry{timer: b.timer, deferred: b.deferred[:0]}
}

// homeL2 is the directory home for addr, re-homed around declared-dead
// banks when structural faults are active.
func (l *L1) homeL2(addr msg.Addr) msg.NodeID {
	if l.domains != nil {
		return l.domains.HomeL2(addr)
	}
	return l.topo.HomeL2(addr)
}

// Halt permanently silences this controller (its tile died): all timers
// stop and every future access, message or callback is ignored. The fault
// injector separately guarantees nothing this node sent after the death
// instant is delivered.
func (l *L1) Halt() {
	l.halted = true
	l.mshr.ForEach(func(_ msg.Addr, e *l1Miss) { e.timer.Stop() })
	l.wb.ForEach(func(_ msg.Addr, w *l1WB) { w.putTimer.Stop(); w.backupTimer.Stop() })
	l.backups.ForEach(func(_ msg.Addr, b *backupEntry) { b.timer.Stop() })
	l.blocked.ForEach(func(_ msg.Addr, b *blockedEntry) { b.timer.Stop() })
}

// Quiesced implements proto.L1Port: no misses, writebacks, backups or
// ownership handshakes in flight.
func (l *L1) Quiesced() bool {
	return l.mshr.Len() == 0 && l.wb.Len() == 0 && l.backups.Len() == 0 && l.blocked.Len() == 0
}

// Read implements proto.L1Port.
func (l *L1) Read(addr msg.Addr, done func(proto.AccessResult)) {
	if l.halted {
		return
	}
	addr = l.topo.LineAddr(addr)
	if line := l.array.Lookup(addr); line != nil && l.mshr.Get(addr) == nil {
		l.array.Touch(line)
		l.run.Proto.ReadHits++
		res := proto.AccessResult{
			Hit:     true,
			Value:   line.Payload.Value,
			Version: line.Payload.Version,
			Latency: l.params.L1HitLatency,
		}
		proto.DeferResult(&l.results, l.engine, l.params.L1HitLatency, done, res)
		return
	}
	if ws := l.waiters(addr); ws != nil {
		*ws = append(*ws, proto.Access{Addr: addr, Done: done})
		return
	}
	l.run.Proto.ReadMisses++
	l.startMiss(addr, false, 0, done)
}

// Write implements proto.L1Port.
func (l *L1) Write(addr msg.Addr, value uint64, done func(proto.AccessResult)) {
	if l.halted {
		return
	}
	addr = l.topo.LineAddr(addr)
	if line := l.array.Lookup(addr); line != nil && l.mshr.Get(addr) == nil && writableState(line.State) {
		l.array.Touch(line)
		if line.State == StateE {
			line.State = StateM
		}
		line.Dirty = true
		line.Payload.Value = value
		line.Payload.Version++
		if l.onWrite != nil {
			l.onWrite(addr, line.Payload.Version, value)
		}
		l.run.Proto.WriteHits++
		res := proto.AccessResult{
			Hit:     true,
			Value:   value,
			Version: line.Payload.Version,
			Latency: l.params.L1HitLatency,
		}
		proto.DeferResult(&l.results, l.engine, l.params.L1HitLatency, done, res)
		return
	}
	if ws := l.waiters(addr); ws != nil {
		*ws = append(*ws, proto.Access{Write: true, Addr: addr, Value: value, Done: done})
		return
	}
	l.run.Proto.WriteMisses++
	l.startMiss(addr, true, value, done)
}

// waiters returns the waiter list of the miss or writeback in progress on
// addr, where an access to the line waits for it to end, or nil when a new
// miss may start.
func (l *L1) waiters(addr msg.Addr) *[]proto.Access {
	if e := l.mshr.Get(addr); e != nil {
		return &e.waiters
	}
	if w := l.wb.Get(addr); w != nil {
		return &w.waiters
	}
	return nil
}

// startMiss allocates an MSHR, picks a serial number and issues the
// request, arming the lost-request timeout (FtDirCMP).
func (l *L1) startMiss(addr msg.Addr, write bool, value uint64, done func(proto.AccessResult)) {
	e := l.mshr.Alloc(addr)
	if e == nil {
		proto.Retry(&l.results, l.engine, 1, l, proto.Access{Write: write, Addr: addr, Value: value, Done: done})
		return
	}
	e.owner = l
	e.addr = addr
	e.write = write
	e.value = value
	e.issuedAt = l.engine.Now()
	e.done = done
	e.tid = l.tids.Next()
	e.sn = nextSN(l.serial)
	e.snHistory = append(e.snHistory, e.sn)
	e.reqType = msg.GetS
	if write {
		e.reqType = msg.GetX
	}
	l.send(&msg.Message{Type: e.reqType, Dst: l.homeL2(addr), Addr: addr, SN: e.sn, TID: e.tid})
	if l.ft {
		e.arm(obs.TimeoutLostRequest)
	}
}

// Handle processes a delivered network message.
func (l *L1) Handle(m *msg.Message) {
	if l.deaf(m) {
		return
	}
	switch m.Type {
	case msg.Data:
		l.handleData(m, false)
	case msg.DataEx:
		l.handleData(m, true)
	case msg.Ack:
		l.handleAck(m)
	case msg.Inv:
		l.handleInv(m)
	case msg.GetS, msg.GetX:
		l.handleFwd(m)
	case msg.WbAck:
		l.handleWbAck(m)
	case msg.AckO:
		l.handleAckO(m)
	case msg.AckBD:
		l.handleAckBD(m)
	case msg.UnblockPing:
		l.handleUnblockPing(m)
	case msg.WbPing:
		l.handleWbPing(m)
	case msg.OwnershipPing:
		l.handleOwnershipPing(m)
	case msg.NackO:
		l.handleNackO(m)
	default:
		protocolPanic("L1 %d received unexpected %v", l.id, m)
	}
}

func (l *L1) handleData(m *msg.Message, exclusive bool) {
	e := l.mshr.Get(m.Addr)
	if e == nil || m.SN != e.sn {
		l.stale(e != nil)
		return
	}
	e.dataArrived = true
	e.exclusive = exclusive
	e.dirty = m.Dirty
	e.noPayload = m.NoPayload
	e.dataFrom = m.Src
	if !m.NoPayload {
		e.payload = m.Payload
	}
	if exclusive {
		e.ackCountKnown = true
		e.needAcks = m.AckCount
	}
	l.tryComplete(m.Addr, e)
}

func (l *L1) handleAck(m *msg.Message) {
	e := l.mshr.Get(m.Addr)
	if e == nil || m.SN != e.sn {
		l.stale(e != nil)
		return
	}
	e.acksSeen++
	l.tryComplete(m.Addr, e)
}

// handleInv drops a shared copy. Owned lines are never invalidated this way
// (a stale Inv from a superseded attempt must not destroy the only copy);
// the Ack is always sent and carries the Inv's serial number so the
// requester can discard it if it belongs to an old attempt.
func (l *L1) handleInv(m *msg.Message) {
	if line := l.array.Lookup(m.Addr); line != nil && !ownerState(line.State) {
		line.Valid = false
		l.obs.StateChange("l1", l.id, m.Addr, m.TID, stateName(line.State), "I")
	}
	l.send(&msg.Message{Type: msg.Ack, Dst: m.Requestor, Addr: m.Addr, SN: m.SN, TID: m.TID})
}

// handleFwd serves a request forwarded by the directory. Ownership leaves
// this cache on GetX and migratory GetS, creating a backup; plain GetS
// degrades M/E to O and keeps ownership here.
func (l *L1) handleFwd(m *msg.Message) {
	addr := m.Addr
	if b := l.blocked.Get(addr); b != nil {
		// Blocked ownership: we may not transfer the line until the AckBD
		// arrives; remember the newest forward per requester.
		b.deferFwd(m)
		return
	}

	transfer := m.Type == msg.GetX || m.Migratory

	if line := l.array.Lookup(addr); line != nil && ownerState(line.State) {
		l.run.Proto.CacheToCacheTransfers++
		if !transfer {
			if line.State != StateO {
				l.obs.StateChange("l1", l.id, addr, m.TID, stateName(line.State), stateName(StateO))
			}
			line.State = StateO
			l.send(&msg.Message{
				Type: msg.Data, Dst: m.Requestor, Addr: addr, SN: m.SN, TID: m.TID,
				Payload: line.Payload, Dirty: line.Dirty,
			})
			return
		}
		l.obs.StateChange("l1", l.id, addr, m.TID, stateName(line.State), "I")
		l.sendOwned(addr, m, line.Payload, line.Dirty || line.State == StateM)
		line.Valid = false
		return
	}

	if w := l.wb.Get(addr); w != nil && !w.transferred && !w.sentData {
		// Put outstanding: the data still lives in the writeback buffer.
		l.run.Proto.CacheToCacheTransfers++
		if !transfer {
			// Serve the read but keep ownership (the eventual WbData will
			// still carry the data to the L2).
			l.send(&msg.Message{
				Type: msg.Data, Dst: m.Requestor, Addr: addr, SN: m.SN, TID: m.TID,
				Payload: w.payload, Dirty: w.dirty,
			})
			return
		}
		w.transferred = true
		l.sendOwned(addr, m, w.payload, w.dirty)
		return
	}

	if b := l.backups.Get(addr); b != nil {
		// We are the backup for this transfer; a reissued forward means the
		// previous data message was lost (§3.2) — resend with the new
		// serial number.
		if m.Requestor == b.dest {
			b.tid = m.TID
			b.sn = m.SN
			b.ackCount = m.AckCount
			l.send(&msg.Message{
				Type: msg.DataEx, Dst: b.dest, Addr: addr, SN: b.sn, TID: b.tid,
				Payload: b.payload, Dirty: true, AckCount: b.ackCount,
			})
			b.arm(obs.TimeoutBackup)
			return
		}
		l.stale(false)
		return
	}

	// The transfer already completed (our backup was deleted after the
	// receiver's AckO): this forward is a stale duplicate.
	l.stale(false)
}

// sendOwned transmits owned data in response to a forwarded request and,
// in FtDirCMP, installs the backup entry that guards the transfer. DirCMP
// hands the ownership over outright.
func (l *L1) sendOwned(addr msg.Addr, m *msg.Message, payload msg.Payload, dirty bool) {
	var b *backupEntry
	if l.ft {
		if b = l.backups.Get(addr); b == nil {
			b = l.backups.Alloc(addr)
			b.owner = l
			b.addr = addr
			l.obs.BackupCreated("l1", l.id, addr, m.TID, m.Requestor)
		}
		b.payload = payload
		b.dirty = dirty
		b.dest = m.Requestor
		b.tid = m.TID
		b.sn = m.SN
		b.ackCount = m.AckCount
	}
	l.send(&msg.Message{
		Type: msg.DataEx, Dst: m.Requestor, Addr: addr, SN: m.SN, TID: m.TID,
		Payload: payload, Dirty: true, AckCount: m.AckCount,
	})
	if b != nil {
		b.arm(obs.TimeoutBackup)
	}
}

// handleWbAck performs the second writeback phase. Sending WbData starts an
// ownership transfer to the L2, so the entry becomes a backup until the
// L2's AckO arrives.
func (l *L1) handleWbAck(m *msg.Message) {
	w := l.wb.Get(m.Addr)
	if w == nil || w.sentData {
		l.stale(false)
		return
	}
	w.putTimer.Stop()
	if m.WantData && !w.transferred {
		l.sendWbData(m.Addr, w, m.SN)
		return
	}
	l.send(&msg.Message{Type: msg.WbNoData, Dst: m.Src, Addr: m.Addr, SN: m.SN, TID: w.tid})
	l.freeWB(m.Addr, w)
}

// sendWbData transmits the writeback data. In FtDirCMP the entry is now
// the backup for an ownership transfer to the L2, guarded by the backup
// timer; in DirCMP the data hands the ownership over outright and the
// entry is freed.
func (l *L1) sendWbData(addr msg.Addr, w *l1WB, sn msg.SerialNumber) {
	home := l.homeL2(addr)
	if l.ft {
		w.sentData = true
		w.sn = sn
		l.obs.BackupCreated("l1", l.id, addr, w.tid, home)
	}
	l.send(&msg.Message{
		Type: msg.WbData, Dst: home, Addr: addr, SN: sn, TID: w.tid,
		Payload: w.payload, Dirty: w.dirty,
	})
	if l.ft {
		w.arm(obs.TimeoutBackup)
	} else {
		l.freeWB(addr, w)
	}
}

// handleAckO deletes our backup (the transfer completed) and returns the
// backup deletion acknowledgment. A node with no backup answers AckBD
// anyway: the AckO was a duplicate from a false-positive timeout (§3.4).
func (l *L1) handleAckO(m *msg.Message) {
	if b := l.backups.Get(m.Addr); b != nil && m.Src == b.dest {
		tid := b.tid // Free recycles the entry; read before, use after
		l.backups.Free(m.Addr)
		l.obs.BackupDeleted("l1", l.id, m.Addr, tid)
		l.send(&msg.Message{Type: msg.AckBD, Dst: m.Src, Addr: m.Addr, SN: m.SN, TID: m.TID})
		return
	}
	if w := l.wb.Get(m.Addr); w != nil && w.sentData {
		l.obs.BackupDeleted("l1", l.id, m.Addr, w.tid)
		l.freeWB(m.Addr, w)
		l.send(&msg.Message{Type: msg.AckBD, Dst: m.Src, Addr: m.Addr, SN: m.SN, TID: m.TID})
		return
	}
	l.send(&msg.Message{Type: msg.AckBD, Dst: m.Src, Addr: m.Addr, SN: m.SN, TID: m.TID})
}

// handleAckBD leaves the blocked-ownership state and replays any deferred
// forwarded requests.
func (l *L1) handleAckBD(m *msg.Message) {
	b := l.blocked.Get(m.Addr)
	if b == nil {
		l.stale(false)
		return
	}
	if m.SN != b.sn {
		// An AckBD answering a superseded AckO: discard (§3.4).
		l.run.Proto.StaleSNDiscarded++
		l.run.Proto.FalsePositives++
		return
	}
	b.timer.Stop()
	tid := b.tid
	for i := range b.deferred {
		fwd := l.net.NewMessage()
		*fwd = b.deferred[i]
		l.engine.ScheduleCall(0, l.replayFwd, fwd, 0)
	}
	l.blocked.Free(m.Addr)
	l.obs.TransactionEnd("l1", l.id, m.Addr, tid)
}

// handleUnblockPing re-sends the unblock for an already-satisfied miss; if
// the miss is still in progress the ping is ignored (§3.3). A live MSHR for
// the same address does not by itself mean the ping's miss is unresolved: a
// later access may have started a new transaction (e.g. an upgrade after a
// completed GetS whose Unblock was lost). The ping's serial number tells
// the transactions apart: it refers to the current miss only if it falls in
// the range of serial numbers this miss has used (§3.5).
func (l *L1) handleUnblockPing(m *msg.Message) {
	addr := m.Addr
	if e := l.mshr.Get(addr); e != nil && e.usedSN(m.SN) {
		return
	}
	home := l.homeL2(addr)
	if b := l.blocked.Get(addr); b != nil && b.piggy {
		// The original UnblockEx carried the AckO; the resend must too.
		l.run.Proto.AcksOSent++
		l.run.Proto.PiggybackedAcksO++
		l.send(&msg.Message{Type: msg.UnblockEx, Dst: home, Addr: addr, SN: b.sn, TID: b.tid, PiggybackAckO: true})
		return
	}
	line := l.array.Lookup(addr)
	switch {
	case line != nil && ownerState(line.State):
		l.send(&msg.Message{Type: msg.UnblockEx, Dst: home, Addr: addr, SN: m.SN, TID: m.TID})
	case line != nil:
		l.send(&msg.Message{Type: msg.Unblock, Dst: home, Addr: addr, SN: m.SN, TID: m.TID})
	case l.wb.Get(addr) != nil:
		l.send(&msg.Message{Type: msg.UnblockEx, Dst: home, Addr: addr, SN: m.SN, TID: m.TID})
	default:
		// The only way the line can be gone without a trace is a silent
		// eviction of a shared copy.
		l.send(&msg.Message{Type: msg.Unblock, Dst: home, Addr: addr, SN: m.SN, TID: m.TID})
	}
}

// handleWbPing answers the L2's query about a writeback in progress: resend
// the data if we still have it, WbCancel if the writeback already finished
// or ownership moved elsewhere (§3.3).
func (l *L1) handleWbPing(m *msg.Message) {
	w := l.wb.Get(m.Addr)
	switch {
	case w == nil:
		l.send(&msg.Message{Type: msg.WbCancel, Dst: m.Src, Addr: m.Addr, SN: m.SN, TID: m.TID})
	case w.transferred:
		l.send(&msg.Message{Type: msg.WbCancel, Dst: m.Src, Addr: m.Addr, SN: m.SN, TID: m.TID})
		l.freeWB(m.Addr, w)
	case w.sentData:
		w.sn = m.SN
		l.send(&msg.Message{
			Type: msg.WbData, Dst: m.Src, Addr: m.Addr, SN: m.SN, TID: w.tid,
			Payload: w.payload, Dirty: w.dirty,
		})
	default:
		// Our Put's WbAck was lost; the ping proves the L2 is waiting for
		// the data, so send it now.
		w.putTimer.Stop()
		l.sendWbData(m.Addr, w, m.SN)
	}
}

// handleOwnershipPing confirms (AckO) or denies (NackO) that we received
// ownership of the line, letting a stuck backup node make progress.
func (l *L1) handleOwnershipPing(m *msg.Message) {
	if b := l.blocked.Get(m.Addr); b != nil && b.ackOTo == m.Src {
		l.run.Proto.AcksOSent++
		l.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: m.Addr, SN: b.sn, TID: b.tid})
		return
	}
	if line := l.array.Lookup(m.Addr); line != nil && ownerState(line.State) {
		l.run.Proto.AcksOSent++
		l.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: m.Addr, SN: m.SN, TID: m.TID})
		return
	}
	l.send(&msg.Message{Type: msg.NackO, Dst: m.Src, Addr: m.Addr, SN: m.SN, TID: m.TID})
}

// handleNackO restarts the backup timer: the receiver does not have the
// data yet; recovery is driven by its own lost-request reissue.
func (l *L1) handleNackO(m *msg.Message) {
	if b := l.backups.Get(m.Addr); b != nil {
		b.arm(obs.TimeoutBackup)
	}
}

// tryComplete finishes the miss once data and acks are in.
func (l *L1) tryComplete(addr msg.Addr, e *l1Miss) {
	if l.halted {
		return
	}
	if !e.dataArrived {
		return
	}
	if e.ackCountKnown && e.acksSeen < e.needAcks {
		return
	}
	if e.write && !e.ackCountKnown {
		return
	}

	var state int
	switch {
	case e.write:
		state = StateM
	case e.exclusive && e.dirty:
		state = StateM
	case e.exclusive:
		state = StateE
	default:
		state = StateS
	}

	payload := e.payload
	if e.noPayload {
		line := l.array.Lookup(addr)
		if line == nil {
			protocolPanic("L1 %d dataless grant for %#x without a local copy", l.id, addr)
		}
		payload = line.Payload
	}
	if e.write {
		payload.Value = e.value
		payload.Version++
	}

	dirty := e.dirty || e.write
	if l.install(addr, state, payload, dirty, e.tid) == nil {
		// Every way in the set is pinned by an in-flight transaction; retry
		// until a victim frees up.
		l.engine.ScheduleCall(4, tryCompleteRetry, e, 0)
		return
	}
	if e.write && l.onWrite != nil {
		l.onWrite(addr, payload.Version, payload.Value)
	}
	e.timer.Stop()

	// Ownership moved to us on any DataEx that carried the data (a
	// dataless grant means we already owned the line): in FtDirCMP, enter
	// the blocked-ownership state and acknowledge (§3.1).
	home := l.homeL2(addr)
	transfer := l.ft && e.exclusive && !e.noPayload
	if transfer {
		b := l.blocked.Alloc(addr)
		b.owner = l
		b.addr = addr
		b.ackOTo = e.dataFrom
		b.tid = e.tid
		b.sn = e.sn
		b.piggy = e.dataFrom == home && !l.params.DisablePiggyback
		l.run.Proto.AcksOSent++
		if b.piggy {
			l.run.Proto.PiggybackedAcksO++
			l.send(&msg.Message{Type: msg.UnblockEx, Dst: home, Addr: addr, SN: e.sn, TID: e.tid, PiggybackAckO: true})
		} else {
			l.send(&msg.Message{Type: msg.UnblockEx, Dst: home, Addr: addr, SN: e.sn, TID: e.tid})
			l.send(&msg.Message{Type: msg.AckO, Dst: e.dataFrom, Addr: addr, SN: e.sn, TID: e.tid})
		}
		b.arm(obs.TimeoutLostAckBD)
	} else {
		unblock := msg.Unblock
		if e.exclusive || e.write {
			unblock = msg.UnblockEx
		}
		l.send(&msg.Message{Type: unblock, Dst: home, Addr: addr, SN: e.sn, TID: e.tid})
	}

	latency := l.engine.Now() - e.issuedAt
	l.run.Proto.MissLatency(latency)
	res := proto.AccessResult{
		Value:   payload.Value,
		Version: payload.Version,
		Latency: latency,
	}
	done := e.done
	waiters := e.waiters
	tid := e.tid // Free recycles the entry; read before, use after
	l.mshr.Free(addr)
	l.obs.TransactionEnd("l1", l.id, addr, tid)
	if done != nil {
		done(res)
	}
	l.wake(waiters)
}

// tryCompleteRetry re-runs tryComplete after a failed install. The MSHR
// check guards against the entry having completed (and possibly been
// recycled for a new miss on the same line) in the meantime.
func tryCompleteRetry(arg any, _ uint64) {
	e := arg.(*l1Miss)
	l := e.owner
	if l.mshr.Get(e.addr) != e {
		return
	}
	l.tryComplete(e.addr, e)
}

// install puts a line in the array, evicting a victim if necessary, and
// returns it; it returns nil when every way in the set is pinned (the caller
// must retry). Lines in blocked ownership cannot be evicted (that would
// transfer ownership), nor can lines with in-flight transactions.
func (l *L1) install(addr msg.Addr, state int, payload msg.Payload, dirty bool, tid msg.TID) *cache.Line {
	if line := l.array.Lookup(addr); line != nil {
		if line.State != state {
			l.obs.StateChange("l1", l.id, addr, tid, stateName(line.State), stateName(state))
		}
		line.State = state
		line.Payload = payload
		line.Dirty = dirty
		l.array.Touch(line)
		return line
	}
	victim := l.array.Victim(addr, l.victimFilter)
	if victim == nil {
		return nil
	}
	if victim.Valid {
		l.evict(victim, tid)
	}
	victim.Reset(addr)
	victim.State = state
	victim.Payload = payload
	victim.Dirty = dirty
	l.array.Touch(victim)
	l.obs.StateChange("l1", l.id, addr, tid, "I", stateName(state))
	return victim
}

// evict starts a three-phase writeback for owned lines (with the Put
// guarded by the lost-request timeout in FtDirCMP); shared lines drop
// silently. cause is the transaction whose placement forced the eviction:
// the silent drop is attributed to it, while an owned eviction starts a
// new writeback transaction with its own TID.
func (l *L1) evict(line *cache.Line, cause msg.TID) {
	if !ownerState(line.State) {
		line.Valid = false
		l.obs.StateChange("l1", l.id, line.Addr, cause, stateName(line.State), "I")
		return
	}
	addr := line.Addr
	w := l.wb.Alloc(addr)
	if w == nil {
		protocolPanic("L1 %d duplicate writeback for %#x", l.id, addr)
	}
	w.owner = l
	w.addr = addr
	w.payload = line.Payload
	w.dirty = line.Dirty || line.State == StateM
	w.tid = l.tids.Next()
	w.sn = nextSN(l.serial)
	l.obs.StateChange("l1", l.id, addr, w.tid, stateName(line.State), "WB")
	l.run.Proto.Writebacks++
	l.send(&msg.Message{Type: msg.Put, Dst: l.homeL2(addr), Addr: addr, SN: w.sn, TID: w.tid})
	if l.ft {
		w.arm(obs.TimeoutLostRequest)
	}
	line.Valid = false
}

// freeWB releases a writeback entry and wakes deferred operations.
func (l *L1) freeWB(addr msg.Addr, w *l1WB) {
	waiters := w.waiters
	tid := w.tid // Free recycles the entry; read before, use after
	l.wb.Free(addr)
	l.obs.TransactionEnd("l1", l.id, addr, tid)
	l.wake(waiters)
}

// stale counts a discarded message; withMSHR marks it as a detected false
// positive (the original response arrived after a reissue).
func (l *L1) stale(withMSHR bool) {
	l.run.Proto.StaleSNDiscarded++
	if withMSHR {
		l.run.Proto.FalsePositives++
	}
}

// wake reissues the accesses that waited for a miss or writeback to end.
func (l *L1) wake(waiters []proto.Access) {
	for _, a := range waiters {
		proto.Retry(&l.results, l.engine, 0, l, a)
	}
}

// InspectLines implements proto.Inspectable.
func (l *L1) InspectLines(fn func(proto.LineView)) {
	l.array.ForEach(func(c *cache.Line) {
		state := stateName(c.State)
		var sn msg.SerialNumber
		if e := l.mshr.Get(c.Addr); e != nil {
			state = stateNameMiss(c.State)
			sn = e.sn
		} else if b := l.blocked.Get(c.Addr); b != nil {
			state = stateNameBlocked(c.State)
			sn = b.sn
		}
		fn(proto.LineView{
			Addr:      c.Addr,
			Perm:      permOf(c.State),
			Owner:     ownerState(c.State),
			Transient: l.mshr.Get(c.Addr) != nil || l.blocked.Get(c.Addr) != nil,
			Payload:   c.Payload,
			State:     state,
			SN:        sn,
		})
	})
	// Misses and blocked requests on lines not (yet) resident in the array
	// are still in-flight transactions; report them so deadlock dumps and
	// coverage tooling see every pending request.
	l.mshr.ForEach(func(addr msg.Addr, e *l1Miss) {
		if l.array.Lookup(addr) == nil {
			fn(proto.LineView{Addr: addr, Transient: true, State: "I+miss", SN: e.sn})
		}
	})
	l.blocked.ForEach(func(addr msg.Addr, b *blockedEntry) {
		if l.array.Lookup(addr) == nil && l.mshr.Get(addr) == nil {
			fn(proto.LineView{Addr: addr, Transient: true, State: "I+blocked", SN: b.sn})
		}
	})
	l.backups.ForEach(func(addr msg.Addr, b *backupEntry) {
		fn(proto.LineView{Addr: addr, Backup: true, Transient: true, Payload: b.payload,
			State: "backup", SN: b.sn})
	})
	l.wb.ForEach(func(addr msg.Addr, w *l1WB) {
		if w.transferred && l.ft {
			// The transfer's backup entry stands for the line; without
			// backups the entry itself is the Put still waiting for WbAck.
			return
		}
		fn(proto.LineView{
			Addr:      addr,
			Owner:     !w.sentData && !w.transferred,
			Backup:    w.sentData,
			Transient: true,
			Payload:   w.payload,
			State:     "WB",
			SN:        w.sn,
		})
	})
}
