package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// l2StateName names the directory states for the event log.
func l2StateName(s int) string {
	switch s {
	case L2StateS:
		return "S"
	case L2StateM:
		return "M"
	default:
		return "I"
	}
}

// Transaction phases for the per-line L2 MSHR. DirCMP uses only
// phaseWaitUnblock, phaseWaitWbData, phaseWaitMemData, phaseWaitRecall and
// phaseWaitMemWbAck, with no timer armed in any of them.
const (
	phaseIdle = iota
	// phaseWaitUnblock: a response or forward went to an L1; waiting for
	// its Unblock/UnblockEx (lost-unblock timer armed).
	phaseWaitUnblock
	// phaseWaitWbData: WbAck sent; waiting for WbData/WbNoData/WbCancel
	// (lost-unblock timer armed, pings with WbPing).
	phaseWaitWbData
	// phaseWaitAckBD: we received owned data (WbData or recall) and sent
	// AckO; waiting for the backup holder's AckBD.
	phaseWaitAckBD
	// phaseWaitMemData: GetX issued to memory (lost-request timer armed).
	phaseWaitMemData
	// phaseWaitRecall: eviction collecting the owner's data and sharers'
	// acks (recall timer armed).
	phaseWaitRecall
	// phaseWaitMemWbAck: Put issued to memory (lost-request timer armed).
	phaseWaitMemWbAck
	// phaseWaitMemAckO: WbData sent to memory; we hold the backup until
	// memory's AckO arrives (backup timer armed).
	phaseWaitMemAckO
)

// Response kinds recorded so a reissued request can be answered again.
const (
	respNone = iota
	// respData: Data sent from the L2's own copy (no ownership moved).
	respData
	// respDataEx: DataEx sent from the L2's own copy (ownership moved;
	// the line payload is retained as the in-chip backup).
	respDataEx
	// respNoPayload: dataless upgrade grant to the current owner.
	respNoPayload
	// respFwd: request forwarded to the owning L1.
	respFwd
	// respWbAck: WbAck sent for a Put.
	respWbAck
)

// pendingReq is a deferred or in-service request.
type pendingReq struct {
	typ  msg.Type
	from msg.NodeID
	tid  msg.TID
	sn   msg.SerialNumber
}

func reqOf(m *msg.Message) pendingReq {
	return pendingReq{typ: m.Type, from: m.Src, tid: m.TID, sn: m.SN}
}

// requests is a responder's (L2 or memory) per-line request order: the
// request in service and the ones queued behind it.
type requests struct {
	req   pendingReq
	queue []pendingReq
}

// admit files m, a request for a line whose transaction is open. With ft
// it first applies reissue detection (§3.2): a request of the in-service
// type from the in-service requester is a duplicate delivery (same serial
// number: dropped) or a reissue, whose new serial number replaces the old
// one; admit then reports true and the caller re-sends its response, as
// the previous attempt's may be lost. A reissue of a queued request
// updates its serial number in place.
func (q *requests) admit(m *msg.Message, ft bool) (resend bool) {
	if ft {
		if q.req.from == m.Src && q.req.typ == m.Type {
			resend = q.req.sn != m.SN
			q.req.sn = m.SN
			return resend
		}
		for i := range q.queue {
			if q.queue[i].from == m.Src && q.queue[i].typ == m.Type {
				q.queue[i].sn = m.SN
				return false
			}
		}
	}
	q.queue = append(q.queue, reqOf(m))
	return false
}

// pop puts the head of the queue in service, or reports false when the
// queue is empty. It shifts the queue in place, so the queue keeps its
// capacity across pops and, through the reset hooks, across transactions.
func (q *requests) pop() bool {
	if len(q.queue) == 0 {
		return false
	}
	q.req = q.queue[0]
	q.queue = q.queue[:copy(q.queue, q.queue[1:])]
	return true
}

// extBlock marks an externally blocked line (§3.1.1): the UnblockEx+AckO
// went to memory and until memory's AckBD arrives the line must not be
// written back off-chip. Internal (L1↔L1↔L2) transfers stay allowed.
type extBlock struct {
	owner *L2
	addr  msg.Addr

	tid   msg.TID
	sn    msg.SerialNumber
	timer sim.Timer
}

func resetExtBlock(eb *extBlock) {
	eb.timer.Stop()
	*eb = extBlock{timer: eb.timer}
}

// l2Trans is the per-line transaction record.
type l2Trans struct {
	owner *L2
	addr  msg.Addr

	phase int
	requests

	// tid drives the current service: the in-service request's TID, or a
	// self-minted one for directory-initiated evictions.
	tid msg.TID

	// Resend record for reissued requests.
	respKind      int
	fwdDest       msg.NodeID
	invTargets    []msg.NodeID
	ackCount      int
	respMigratory bool
	respFwdType   msg.Type
	wantData      bool

	// Unblock bookkeeping for responses that carry ownership out of L2.
	unblockReceived bool
	backupCleared   bool
	sentDataExTo    msg.NodeID
	owedMem         bool

	// AckO we sent for owned data we received (WbData or recall).
	ackOTo msg.NodeID
	ackOSN msg.SerialNumber

	// Memory-facing request state: the GetX fetch or the Put.
	memSN       msg.SerialNumber
	memAttempts int

	// Recall bookkeeping.
	recallSN       msg.SerialNumber
	recallAttempts int
	pendingAcks    int
	needData       bool
	gotData        bool
	recalled       msg.Payload
	recallFrom     msg.NodeID

	evictAfterAckBD bool // the AckBD starts the eviction writeback

	// Parked memory fetch.
	fetched      msg.Payload
	fetchedDirty bool

	// Eviction writeback data between frame release and WbData to memory.
	wbPayload msg.Payload
	wbDirty   bool
	wbValid   bool

	// The fetch waiting for this eviction, if any, and its line (the record
	// may be recycled for another line before the fetch resumes).
	parked     *l2Trans
	parkedAddr msg.Addr

	unblockTimer sim.Timer
	memTimer     sim.Timer
	ackBDTimer   sim.Timer
	backupTimer  sim.Timer
	recallTimer  sim.Timer
}

// timersOff stops every armed timer on the transaction.
func (t *l2Trans) timersOff() {
	t.unblockTimer.Stop()
	t.memTimer.Stop()
	t.ackBDTimer.Stop()
	t.backupTimer.Stop()
	t.recallTimer.Stop()
}

func resetL2Trans(t *l2Trans) {
	t.timersOff()
	*t = l2Trans{
		owner:        t.owner, // a parked fetch may still resume through it
		requests:     requests{queue: t.queue[:0]},
		invTargets:   t.invTargets[:0],
		unblockTimer: t.unblockTimer,
		memTimer:     t.memTimer,
		ackBDTimer:   t.ackBDTimer,
		backupTimer:  t.backupTimer,
		recallTimer:  t.recallTimer,
	}
}

// migInfo is the migratory-sharing detector state.
type migInfo struct {
	lastReader  msg.NodeID
	lastWasRead bool
	migratory   bool
}

// L2 is a shared-L2 bank plus its slice of the directory: FtDirCMP when ft
// is set, DirCMP otherwise.
type L2 struct {
	ctrl

	array *cache.Array
	trans *cache.Table[l2Trans]
	ext   *cache.Table[extBlock]
	mig   map[msg.Addr]migInfo

	// victimFilter is the eviction predicate passed to cache.Array.Victim,
	// built once so installing a fetched line does not allocate a closure.
	victimFilter func(*cache.Line) bool
}

var _ proto.Inspectable = (*L2)(nil)

// NewL2 builds an L2 bank controller; ft selects FtDirCMP.
func NewL2(id msg.NodeID, topo proto.Topology, params proto.Params, engine *sim.Engine,
	net proto.Sender, run *stats.Run, ft bool) (*L2, error) {
	arr, err := cache.NewArray(params.L2Size, params.L2Ways, params.LineSize)
	if err != nil {
		return nil, err
	}
	l := &L2{
		ctrl:  newCtrl(id, "l2", topo, params, engine, net, run, ft),
		array: arr,
		trans: cache.NewTableReset[l2Trans](0, resetL2Trans),
		ext:   cache.NewTableReset[extBlock](0, resetExtBlock),
		mig:   make(map[msg.Addr]migInfo),
	}
	l.victimFilter = func(c *cache.Line) bool {
		return l.trans.Get(c.Addr) == nil && l.ext.Get(c.Addr) == nil
	}
	l.Reset()
	return l, nil
}

// Reset returns the bank to the state NewL2 leaves it in: transactions
// and external blocks are freed through their reset hooks (stopping their
// timers), the cache frames are invalidated but kept, the migratory
// detector forgets every line, and the serial space and TID source
// restart. The observer and failure detector stay attached.
func (l *L2) Reset() {
	l.trans.Reset()
	l.ext.Reset()
	l.array.Reset()
	clear(l.mig)
	l.reset()
}

// Halt permanently silences this bank (its tile died): all timers stop and
// every future message or callback is ignored.
func (l *L2) Halt() {
	l.halted = true
	l.trans.ForEach(func(_ msg.Addr, t *l2Trans) { t.timersOff() })
	l.ext.ForEach(func(_ msg.Addr, eb *extBlock) { eb.timer.Stop() })
}

// Quiesced reports whether no transaction or external block is live.
func (l *L2) Quiesced() bool { return l.trans.Len() == 0 && l.ext.Len() == 0 }

// Handle processes a delivered network message.
func (l *L2) Handle(m *msg.Message) {
	if l.deaf(m) {
		return
	}
	switch m.Type {
	case msg.GetS, msg.GetX, msg.Put:
		l.handleRequest(m)
	case msg.Unblock, msg.UnblockEx:
		l.handleUnblock(m)
	case msg.WbData:
		l.handleWbData(m)
	case msg.WbNoData, msg.WbCancel:
		l.handleWbNoData(m)
	case msg.Data, msg.DataEx:
		l.handleData(m)
	case msg.Ack:
		l.handleRecallAck(m)
	case msg.WbAck:
		l.handleMemWbAck(m)
	case msg.AckO:
		l.handleAckO(m)
	case msg.AckBD:
		l.handleAckBD(m)
	case msg.UnblockPing:
		l.handleUnblockPing(m)
	case msg.WbPing:
		l.handleMemWbPing(m)
	case msg.OwnershipPing:
		l.handleOwnershipPing(m)
	case msg.NackO:
		l.handleNackO(m)
	default:
		protocolPanic("L2 %d received unexpected %v", l.id, m)
	}
}

// handleRequest starts, queues, or (FtDirCMP) recognizes as reissued an L1
// request (see requests.admit).
func (l *L2) handleRequest(m *msg.Message) {
	t := l.trans.Get(m.Addr)
	if t == nil {
		t = l.trans.Alloc(m.Addr)
		t.owner = l
		t.addr = m.Addr
		t.req = reqOf(m)
		l.service(m.Addr, t)
		return
	}
	if t.admit(m, l.ft) {
		l.resendResponse(m.Addr, t)
	}
}

// service executes the current request against the directory state.
func (l *L2) service(addr msg.Addr, t *l2Trans) {
	line := l.array.Lookup(addr)
	r := t.req
	t.tid = r.tid
	t.respKind = respNone
	t.invTargets = t.invTargets[:0] // keeps its capacity, like the queue
	t.unblockReceived = false
	t.backupCleared = false
	t.sentDataExTo = 0

	switch r.typ {
	case msg.GetS:
		l.migOnRead(addr, r.from)
		if line == nil {
			l.startFetch(addr, t)
			return
		}
		l.array.Touch(line)
		if line.State == L2StateS {
			if line.Sharers.Empty() {
				t.respKind = respDataEx
				t.ackCount = 0
				l.send(&msg.Message{
					Type: msg.DataEx, Dst: r.from, Addr: addr, TID: r.tid, SN: r.sn,
					Payload: line.Payload, Dirty: line.Dirty,
				})
				l.obs.StateChange("l2", l.id, addr, r.tid, "S", "M")
				l.keepBackup(addr, t, r.from)
				line.State = L2StateM
				line.Owner = r.from
			} else {
				t.respKind = respData
				l.send(&msg.Message{
					Type: msg.Data, Dst: r.from, Addr: addr, TID: r.tid, SN: r.sn,
					Payload: line.Payload,
				})
				line.Sharers.Add(l.topo.SharerIndex(r.from))
			}
			l.awaitL1(t, phaseWaitUnblock)
			return
		}
		if line.Owner == r.from {
			protocolPanic("L2 %d GetS from current owner %d for %#x", l.id, r.from, addr)
		}
		t.respKind = respFwd
		t.respFwdType = msg.GetS
		t.fwdDest = line.Owner
		t.ackCount = 0
		if l.params.MigratoryOpt && l.migratory(addr) && line.Sharers.Empty() {
			l.run.Proto.MigratoryGrants++
			// The grantee's read-modify-write store will hit locally and
			// never reach the directory, so record the implied write here;
			// otherwise the next reader would look like plain read sharing
			// and demote the line after every migration.
			l.migOnWrite(addr, r.from)
			t.respMigratory = true
			l.send(&msg.Message{
				Type: msg.GetS, Dst: line.Owner, Addr: addr, TID: r.tid, SN: r.sn,
				Forwarded: true, Migratory: true, Requestor: r.from,
			})
			line.Owner = r.from
		} else {
			t.respMigratory = false
			l.send(&msg.Message{
				Type: msg.GetS, Dst: line.Owner, Addr: addr, TID: r.tid, SN: r.sn,
				Forwarded: true, Requestor: r.from,
			})
			line.Sharers.Add(l.topo.SharerIndex(r.from))
		}
		l.awaitL1(t, phaseWaitUnblock)

	case msg.GetX:
		l.migOnWrite(addr, r.from)
		if line == nil {
			l.startFetch(addr, t)
			return
		}
		l.array.Touch(line)
		t.invTargets = l.appendInvTargets(t.invTargets, line, r.from)
		t.ackCount = len(t.invTargets)
		l.sendInvs(addr, t)
		if line.State == L2StateS {
			t.respKind = respDataEx
			l.send(&msg.Message{
				Type: msg.DataEx, Dst: r.from, Addr: addr, TID: r.tid, SN: r.sn,
				Payload: line.Payload, Dirty: line.Dirty, AckCount: t.ackCount,
			})
			l.obs.StateChange("l2", l.id, addr, r.tid, "S", "M")
			l.keepBackup(addr, t, r.from)
			line.State = L2StateM
			line.Owner = r.from
		} else if line.Owner == r.from {
			t.respKind = respNoPayload
			l.send(&msg.Message{
				Type: msg.DataEx, Dst: r.from, Addr: addr, TID: r.tid, SN: r.sn,
				NoPayload: true, AckCount: t.ackCount,
			})
		} else {
			t.respKind = respFwd
			t.respFwdType = msg.GetX
			t.fwdDest = line.Owner
			l.send(&msg.Message{
				Type: msg.GetX, Dst: line.Owner, Addr: addr, TID: r.tid, SN: r.sn,
				Forwarded: true, Requestor: r.from, AckCount: t.ackCount,
			})
			line.Owner = r.from
		}
		line.Sharers.Clear()
		l.awaitL1(t, phaseWaitUnblock)

	case msg.Put:
		t.respKind = respWbAck
		t.wantData = line != nil && line.State == L2StateM && line.Owner == r.from
		l.send(&msg.Message{
			Type: msg.WbAck, Dst: r.from, Addr: addr, TID: r.tid, SN: r.sn, WantData: t.wantData,
		})
		l.awaitL1(t, phaseWaitWbData)

	default:
		protocolPanic("L2 %d cannot service %v", l.id, r.typ)
	}
}

// appendInvTargets appends to targets the sharers to invalidate for a
// write by requester.
func (l *L2) appendInvTargets(targets []msg.NodeID, line *cache.Line, requester msg.NodeID) []msg.NodeID {
	line.Sharers.ForEach(func(i int) {
		dst := l.topo.L1FromSharerIndex(i)
		if dst != requester {
			targets = append(targets, dst)
		}
	})
	return targets
}

// sendInvs (re)sends the invalidations with the current serial number.
func (l *L2) sendInvs(addr msg.Addr, t *l2Trans) {
	for _, dst := range t.invTargets {
		l.send(&msg.Message{Type: msg.Inv, Dst: dst, Addr: addr, TID: t.tid, SN: t.req.sn, Requestor: t.req.from})
	}
}

// resendResponse re-answers the in-service request after a reissue.
func (l *L2) resendResponse(addr msg.Addr, t *l2Trans) {
	if t.phase != phaseWaitUnblock && t.phase != phaseWaitWbData {
		return // nothing sent yet (e.g. fetch in progress) or already past
	}
	line := l.array.Lookup(addr)
	r := t.req
	switch t.respKind {
	case respData:
		l.send(&msg.Message{
			Type: msg.Data, Dst: r.from, Addr: addr, TID: r.tid, SN: r.sn, Payload: line.Payload,
		})
	case respDataEx:
		l.sendInvs(addr, t)
		l.send(&msg.Message{
			Type: msg.DataEx, Dst: r.from, Addr: addr, TID: r.tid, SN: r.sn,
			Payload: line.Payload, Dirty: line.Dirty, AckCount: t.ackCount,
		})
	case respNoPayload:
		l.sendInvs(addr, t)
		l.send(&msg.Message{
			Type: msg.DataEx, Dst: r.from, Addr: addr, TID: r.tid, SN: r.sn,
			NoPayload: true, AckCount: t.ackCount,
		})
	case respFwd:
		l.sendInvs(addr, t)
		l.send(&msg.Message{
			Type: t.respFwdType, Dst: t.fwdDest, Addr: addr, TID: r.tid, SN: r.sn,
			Forwarded: true, Migratory: t.respMigratory, Requestor: r.from,
			AckCount: t.ackCount,
		})
	case respWbAck:
		l.send(&msg.Message{
			Type: msg.WbAck, Dst: r.from, Addr: addr, TID: r.tid, SN: r.sn, WantData: t.wantData,
		})
	}
}

// awaitL1 enters phase (phaseWaitUnblock or phaseWaitWbData) after
// answering an L1 and, in FtDirCMP, arms the lost-unblock timeout (§3.3).
func (l *L2) awaitL1(t *l2Trans, phase int) {
	t.phase = phase
	if l.ft {
		t.arm(obs.TimeoutLostUnblock)
	}
}

// keepBackup makes the line's payload the in-chip backup for the DataEx
// just sent to an L1 (FtDirCMP); DirCMP hands the ownership over outright.
func (l *L2) keepBackup(addr msg.Addr, t *l2Trans, to msg.NodeID) {
	if !l.ft {
		return
	}
	t.sentDataExTo = to
	l.obs.BackupCreated("l2", l.id, addr, t.tid, to)
	t.arm(obs.TimeoutBackup)
}

// handleUnblock processes Unblock/UnblockEx from the blocker, including a
// piggybacked AckO (§3.1).
func (l *L2) handleUnblock(m *msg.Message) {
	t := l.trans.Get(m.Addr)
	if t == nil || t.phase != phaseWaitUnblock || m.Src != t.req.from {
		// Duplicate unblock after the transaction closed (resent via ping
		// crossing the original) — but a piggybacked AckO must still be
		// answered so the L1 can leave its blocked state.
		if m.PiggybackAckO {
			l.acceptAckOFromL1(m.Addr, m.Src, m.TID, m.SN)
		}
		l.run.Proto.StaleSNDiscarded++
		return
	}
	t.unblockReceived = true
	if m.PiggybackAckO {
		l.acceptAckOFromL1(m.Addr, m.Src, m.TID, m.SN)
	}
	l.maybeCloseRequest(m.Addr, t)
}

// acceptAckOFromL1 clears the in-chip backup (if one matches) and always
// answers with AckBD (§3.4: a node that no longer holds a backup replies
// anyway, using the new serial number).
func (l *L2) acceptAckOFromL1(addr msg.Addr, src msg.NodeID, tid msg.TID, sn msg.SerialNumber) {
	if t := l.trans.Get(addr); t != nil && t.sentDataExTo == src && !t.backupCleared {
		t.backupCleared = true
		t.backupTimer.Stop()
		l.obs.BackupDeleted("l2", l.id, addr, tid)
	}
	l.send(&msg.Message{Type: msg.AckBD, Dst: src, Addr: addr, TID: tid, SN: sn})
}

// maybeCloseRequest closes a request transaction once the unblock arrived
// and, for responses that moved ownership out of the L2's copy, the backup
// was released. If the data originally came from memory, the deferred
// UnblockEx+AckO chain to memory starts here (§3.1.1).
func (l *L2) maybeCloseRequest(addr msg.Addr, t *l2Trans) {
	if !t.unblockReceived {
		return
	}
	if t.sentDataExTo != 0 && !t.backupCleared {
		return
	}
	if t.owedMem {
		t.owedMem = false
		l.sendMemUnblock(addr, t.tid, t.memSN)
	}
	l.finish(addr, t)
}

// sendMemUnblock sends the UnblockEx with the piggybacked AckO to memory
// and marks the line externally blocked until memory's AckBD.
func (l *L2) sendMemUnblock(addr msg.Addr, tid msg.TID, sn msg.SerialNumber) {
	mem := l.topo.HomeMem(addr)
	l.run.Proto.AcksOSent++
	if l.params.DisablePiggyback {
		l.send(&msg.Message{Type: msg.UnblockEx, Dst: mem, Addr: addr, TID: tid, SN: sn})
		l.send(&msg.Message{Type: msg.AckO, Dst: mem, Addr: addr, TID: tid, SN: sn})
	} else {
		l.run.Proto.PiggybackedAcksO++
		l.send(&msg.Message{
			Type: msg.UnblockEx, Dst: mem, Addr: addr, TID: tid, SN: sn, PiggybackAckO: true,
		})
	}
	eb := l.ext.Alloc(addr)
	eb.owner = l
	eb.addr = addr
	eb.tid = tid
	eb.sn = sn
	eb.arm(obs.TimeoutLostAckBD)
}

// handleWbData absorbs a writeback's data: ownership moved from the L1 to
// this bank, so (FtDirCMP) acknowledge it and hold the transaction open
// until the L1's backup is deleted (AckBD).
func (l *L2) handleWbData(m *msg.Message) {
	t := l.trans.Get(m.Addr)
	if t == nil || t.phase != phaseWaitWbData || m.Src != t.req.from {
		l.run.Proto.StaleSNDiscarded++
		return
	}
	t.unblockTimer.Stop()
	line := l.array.Lookup(m.Addr)
	if line == nil || line.State != L2StateM || line.Owner != t.req.from {
		// The ownership moved while the Put was in flight and the L1 still
		// sent data: impossible, because WantData is only set for the
		// current owner and serial numbers guard the WbAck.
		protocolPanic("L2 %d unexpected WbData: %v", l.id, m)
	}
	l.obs.StateChange("l2", l.id, m.Addr, m.TID, "M", "S")
	line.State = L2StateS
	line.Owner = 0
	line.Payload = m.Payload
	line.Dirty = m.Dirty
	if !l.ft {
		l.finish(m.Addr, t)
		return
	}
	l.sendAckO(m.Addr, t, m.Src, m.SN, false)
}

// sendAckO acknowledges received ownership and waits for the AckBD, which
// then closes the transaction or, with evictAfter, starts its eviction
// writeback to memory.
func (l *L2) sendAckO(addr msg.Addr, t *l2Trans, to msg.NodeID, sn msg.SerialNumber, evictAfter bool) {
	t.ackOTo = to
	t.ackOSN = sn
	t.evictAfterAckBD = evictAfter
	t.phase = phaseWaitAckBD
	l.run.Proto.AcksOSent++
	l.send(&msg.Message{Type: msg.AckO, Dst: to, Addr: addr, TID: t.tid, SN: sn})
	t.arm(obs.TimeoutLostAckBD)
}

// handleWbNoData closes a writeback transaction without data (stale Put or
// WbCancel answer to a WbPing).
func (l *L2) handleWbNoData(m *msg.Message) {
	t := l.trans.Get(m.Addr)
	if t == nil || t.phase != phaseWaitWbData || m.Src != t.req.from {
		l.run.Proto.StaleSNDiscarded++
		return
	}
	t.unblockTimer.Stop()
	l.finish(m.Addr, t)
}

// handleData receives a memory fetch completion or recalled owner data.
func (l *L2) handleData(m *msg.Message) {
	t := l.trans.Get(m.Addr)
	if t == nil {
		l.run.Proto.StaleSNDiscarded++
		return
	}
	switch t.phase {
	case phaseWaitMemData:
		if m.SN != t.memSN {
			l.run.Proto.StaleSNDiscarded++
			l.run.Proto.FalsePositives++
			return
		}
		t.memTimer.Stop()
		l.run.Proto.L2Misses++
		t.fetched = m.Payload
		t.fetchedDirty = m.Dirty
		if l.ft {
			// The UnblockEx+AckO to memory is deferred until the requesting
			// L1's own AckO arrives (§3.1.1); remember the serial number.
			t.owedMem = true
		} else {
			// DirCMP releases memory at once; the frame may come later.
			l.send(&msg.Message{Type: msg.UnblockEx, Dst: m.Src, Addr: m.Addr, TID: t.tid})
		}
		l.install(m.Addr, t)
	case phaseWaitRecall:
		if m.SN != t.recallSN {
			l.run.Proto.StaleSNDiscarded++
			return
		}
		t.gotData = true
		t.recalled = m.Payload
		t.recallFrom = m.Src
		l.tryFinishRecall(m.Addr, t)
	default:
		l.run.Proto.StaleSNDiscarded++
	}
}

// handleRecallAck counts sharer acknowledgments during an eviction.
func (l *L2) handleRecallAck(m *msg.Message) {
	t := l.trans.Get(m.Addr)
	if t == nil || t.phase != phaseWaitRecall || m.SN != t.recallSN {
		l.run.Proto.StaleSNDiscarded++
		return
	}
	t.pendingAcks--
	l.tryFinishRecall(m.Addr, t)
}

// tryFinishRecall proceeds once all L1 copies are collected: acknowledge
// the recalled owner's backup (FtDirCMP, if data moved) and then write
// back.
func (l *L2) tryFinishRecall(addr msg.Addr, t *l2Trans) {
	if t.pendingAcks > 0 || (t.needData && !t.gotData) {
		return
	}
	t.recallTimer.Stop()
	line := l.array.Lookup(addr)
	if line == nil {
		protocolPanic("L2 %d recall finished for missing line %#x", l.id, addr)
	}
	line.Sharers.Clear()
	if t.needData {
		l.obs.StateChange("l2", l.id, addr, t.tid, "M", "S")
		line.State = L2StateS
		line.Owner = 0
		line.Payload = t.recalled
		line.Dirty = true
		if l.ft {
			// The old owner holds a backup for the transfer; release it
			// and only then move the data off-chip (never two backups).
			l.sendAckO(addr, t, t.recallFrom, t.recallSN, true)
			return
		}
	}
	l.evictToMem(addr, t, line)
}

// evictToMem frees the frame and starts the three-phase writeback to
// memory, deferring while the line is externally blocked.
func (l *L2) evictToMem(addr msg.Addr, t *l2Trans, line *cache.Line) {
	if l.ext.Get(addr) != nil {
		// victimFilter skips blocked lines, and only a request
		// transaction (never an eviction) creates a block.
		protocolPanic("L2 %d writing back externally blocked line %#x", l.id, addr)
	}
	if line != nil && line.Valid {
		t.wbPayload = line.Payload
		t.wbDirty = line.Dirty
		t.wbValid = true
		line.Valid = false
		l.obs.StateChange("l2", l.id, addr, t.tid, l2StateName(line.State), "I")
	}
	t.phase = phaseWaitMemWbAck
	t.memSN = nextSN(l.serial)
	l.send(&msg.Message{Type: msg.Put, Dst: l.topo.HomeMem(addr), Addr: addr, TID: t.tid, SN: t.memSN})
	if l.ft {
		t.arm(obs.TimeoutLostRequest)
	}
}

// handleMemWbAck sends the eviction's data to memory (or WbNoData when the
// line was clean). In FtDirCMP, sending WbData makes this bank the backup
// until memory's AckO; DirCMP hands the ownership over outright.
func (l *L2) handleMemWbAck(m *msg.Message) {
	t := l.trans.Get(m.Addr)
	if t == nil || t.phase != phaseWaitMemWbAck || m.SN != t.memSN {
		l.run.Proto.StaleSNDiscarded++
		return
	}
	t.memTimer.Stop()
	if m.WantData && t.wbDirty {
		if l.ft {
			t.phase = phaseWaitMemAckO
			l.obs.BackupCreated("l2", l.id, m.Addr, t.tid, m.Src)
		}
		l.send(&msg.Message{
			Type: msg.WbData, Dst: m.Src, Addr: m.Addr, TID: t.tid, SN: m.SN,
			Payload: t.wbPayload, Dirty: true,
		})
		if l.ft {
			t.arm(obs.TimeoutBackup)
		} else {
			l.finish(m.Addr, t)
		}
		return
	}
	l.send(&msg.Message{Type: msg.WbNoData, Dst: m.Src, Addr: m.Addr, TID: t.tid, SN: m.SN})
	t.wbValid = false
	l.finish(m.Addr, t)
}

// handleAckO routes an ownership acknowledgment: from memory it completes
// an eviction writeback; from an L1 it is a standalone resend of a
// piggybacked acknowledgment.
func (l *L2) handleAckO(m *msg.Message) {
	if l.topo.IsMem(m.Src) {
		t := l.trans.Get(m.Addr)
		if t != nil && t.phase == phaseWaitMemAckO {
			t.backupTimer.Stop()
			t.wbValid = false
			l.obs.BackupDeleted("l2", l.id, m.Addr, t.tid)
			l.send(&msg.Message{Type: msg.AckBD, Dst: m.Src, Addr: m.Addr, TID: m.TID, SN: m.SN})
			l.finish(m.Addr, t)
			return
		}
		// Duplicate AckO after our AckBD was lost: answer again.
		l.send(&msg.Message{Type: msg.AckBD, Dst: m.Src, Addr: m.Addr, TID: m.TID, SN: m.SN})
		return
	}
	l.acceptAckOFromL1(m.Addr, m.Src, m.TID, m.SN)
	if t := l.trans.Get(m.Addr); t != nil && t.phase == phaseWaitUnblock {
		l.maybeCloseRequest(m.Addr, t)
	}
}

// handleAckBD routes a backup-deletion acknowledgment: from memory it
// clears the external block; from an L1 it releases a transaction waiting
// in phaseWaitAckBD.
func (l *L2) handleAckBD(m *msg.Message) {
	if l.topo.IsMem(m.Src) {
		eb := l.ext.Get(m.Addr)
		if eb == nil {
			l.run.Proto.StaleSNDiscarded++
			return
		}
		if m.SN != eb.sn {
			l.run.Proto.StaleSNDiscarded++
			l.run.Proto.FalsePositives++
			return
		}
		tid := eb.tid
		l.ext.Free(m.Addr)
		l.obs.TransactionEnd("l2", l.id, m.Addr, tid)
		return
	}
	t := l.trans.Get(m.Addr)
	if t == nil || t.phase != phaseWaitAckBD || m.Src != t.ackOTo {
		l.run.Proto.StaleSNDiscarded++
		return
	}
	if m.SN != t.ackOSN {
		l.run.Proto.StaleSNDiscarded++
		l.run.Proto.FalsePositives++
		return
	}
	t.ackBDTimer.Stop()
	if t.evictAfterAckBD {
		t.evictAfterAckBD = false
		l.evictToMem(m.Addr, t, l.array.Lookup(m.Addr))
		return
	}
	l.finish(m.Addr, t)
}

// handleUnblockPing answers memory's query about our pending unblock.
func (l *L2) handleUnblockPing(m *msg.Message) {
	if t := l.trans.Get(m.Addr); t != nil && t.owedMem {
		return // still waiting for the L1's AckO; memory must keep waiting
	}
	if eb := l.ext.Get(m.Addr); eb != nil {
		l.run.Proto.AcksOSent++
		l.run.Proto.PiggybackedAcksO++
		l.send(&msg.Message{
			Type: msg.UnblockEx, Dst: m.Src, Addr: m.Addr, TID: eb.tid, SN: eb.sn, PiggybackAckO: true,
		})
		return
	}
	// Stale ping (our unblock already arrived): answer idempotently.
	l.send(&msg.Message{Type: msg.UnblockEx, Dst: m.Src, Addr: m.Addr, TID: m.TID, SN: m.SN})
}

// handleMemWbPing answers memory's query about an eviction writeback.
func (l *L2) handleMemWbPing(m *msg.Message) {
	t := l.trans.Get(m.Addr)
	if t == nil || !t.wbValid {
		l.send(&msg.Message{Type: msg.WbCancel, Dst: m.Src, Addr: m.Addr, TID: m.TID, SN: m.SN})
		return
	}
	switch t.phase {
	case phaseWaitMemAckO:
		t.memSN = m.SN
		l.send(&msg.Message{
			Type: msg.WbData, Dst: m.Src, Addr: m.Addr, TID: t.tid, SN: m.SN,
			Payload: t.wbPayload, Dirty: true,
		})
	case phaseWaitMemWbAck:
		// Our Put's WbAck was lost; the ping proves memory wants the data.
		t.memTimer.Stop()
		t.memSN = m.SN
		if t.wbDirty {
			t.phase = phaseWaitMemAckO
			l.obs.BackupCreated("l2", l.id, m.Addr, t.tid, m.Src)
			l.send(&msg.Message{
				Type: msg.WbData, Dst: m.Src, Addr: m.Addr, TID: t.tid, SN: m.SN,
				Payload: t.wbPayload, Dirty: true,
			})
			t.arm(obs.TimeoutBackup)
		} else {
			l.send(&msg.Message{Type: msg.WbNoData, Dst: m.Src, Addr: m.Addr, TID: t.tid, SN: m.SN})
			t.wbValid = false
			l.finish(m.Addr, t)
		}
	default:
		l.send(&msg.Message{Type: msg.WbCancel, Dst: m.Src, Addr: m.Addr, TID: m.TID, SN: m.SN})
	}
}

// handleOwnershipPing confirms or denies that this bank received the
// ownership the pinger holds a backup for.
func (l *L2) handleOwnershipPing(m *msg.Message) {
	addr := m.Addr
	if l.topo.IsMem(m.Src) {
		// Memory asks whether we received its DataEx.
		if t := l.trans.Get(addr); t != nil && t.owedMem {
			// We have the data; confirming early is safe (our line is the
			// in-chip backup for the onward transfer).
			l.run.Proto.AcksOSent++
			l.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: addr, TID: m.TID, SN: m.SN})
			return
		}
		if eb := l.ext.Get(addr); eb != nil {
			l.run.Proto.AcksOSent++
			l.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: addr, TID: eb.tid, SN: eb.sn})
			return
		}
		if l.array.Lookup(addr) != nil {
			l.run.Proto.AcksOSent++
			l.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: addr, TID: m.TID, SN: m.SN})
			return
		}
		l.send(&msg.Message{Type: msg.NackO, Dst: m.Src, Addr: addr, TID: m.TID, SN: m.SN})
		return
	}
	// An L1 asks whether its WbData (or recalled data) reached us.
	if t := l.trans.Get(addr); t != nil && t.phase == phaseWaitAckBD && t.ackOTo == m.Src {
		l.run.Proto.AcksOSent++
		l.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: addr, TID: t.tid, SN: t.ackOSN})
		return
	}
	if line := l.array.Lookup(addr); line != nil && line.State == L2StateS {
		l.run.Proto.AcksOSent++
		l.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: addr, TID: m.TID, SN: m.SN})
		return
	}
	l.send(&msg.Message{Type: msg.NackO, Dst: m.Src, Addr: addr, TID: m.TID, SN: m.SN})
}

// handleNackO restarts the relevant backup timer; recovery is driven by
// reissues elsewhere.
func (l *L2) handleNackO(m *msg.Message) {
	if t := l.trans.Get(m.Addr); t != nil && t.live(obs.TimeoutBackup) {
		t.arm(obs.TimeoutBackup)
	}
}

// startFetch requests the line from memory with ownership, guarded in
// FtDirCMP by the L2's own lost-request timeout.
func (l *L2) startFetch(addr msg.Addr, t *l2Trans) {
	t.phase = phaseWaitMemData
	t.memSN = nextSN(l.serial)
	l.send(&msg.Message{Type: msg.GetX, Dst: l.topo.HomeMem(addr), Addr: addr, TID: t.tid, SN: t.memSN})
	if l.ft {
		t.arm(obs.TimeoutLostRequest)
	}
}

// install places fetched data into the array, evicting a victim if needed,
// then re-services the waiting request.
func (l *L2) install(addr msg.Addr, t *l2Trans) {
	if l.halted || l.trans.Get(addr) != t {
		return
	}
	victim := l.array.Victim(addr, l.victimFilter)
	if victim == nil {
		l.engine.ScheduleCall(4, installParked, t, uint64(addr))
		return
	}
	if victim.Valid {
		l.startEvict(victim, t, addr)
		return
	}
	victim.Reset(addr)
	victim.State = L2StateS
	victim.Payload = t.fetched
	victim.Dirty = t.fetchedDirty
	l.array.Touch(victim)
	l.obs.StateChange("l2", l.id, addr, t.tid, "I", "S")
	l.service(addr, t)
}

// startEvict begins evicting a valid, non-busy line; the fetch (parked,
// for parkedAddr) resumes once the eviction finishes.
func (l *L2) startEvict(line *cache.Line, parked *l2Trans, parkedAddr msg.Addr) {
	if l.trans.Get(line.Addr) != nil {
		protocolPanic("L2 %d evicting busy line %#x", l.id, line.Addr)
	}
	t := l.trans.Alloc(line.Addr)
	t.owner = l
	t.addr = line.Addr
	t.tid = l.tids.Next()
	t.parked, t.parkedAddr = parked, parkedAddr

	if line.State == L2StateM || !line.Sharers.Empty() {
		l.run.Proto.L2Recalls++
		t.needData = line.State == L2StateM
		t.recallSN = nextSN(l.serial)
		l.sendRecall(line.Addr, t, line)
		if l.ft {
			t.arm(obs.TimeoutLostRequest)
		}
		return
	}
	l.evictToMem(line.Addr, t, line)
}

// sendRecall (re)issues the recall: invalidations to sharers, a forwarded
// GetX to the owner if the data must come back. FtDirCMP guards it with
// the lost-request timeout.
func (l *L2) sendRecall(addr msg.Addr, t *l2Trans, line *cache.Line) {
	t.phase = phaseWaitRecall
	t.gotData = false
	t.pendingAcks = 0
	t.invTargets = t.invTargets[:0]
	line.Sharers.ForEach(func(i int) {
		dst := l.topo.L1FromSharerIndex(i)
		t.invTargets = append(t.invTargets, dst)
		t.pendingAcks++
		l.send(&msg.Message{Type: msg.Inv, Dst: dst, Addr: addr, TID: t.tid, SN: t.recallSN, Requestor: l.id})
	})
	if t.needData {
		t.fwdDest = line.Owner
		l.send(&msg.Message{
			Type: msg.GetX, Dst: line.Owner, Addr: addr, TID: t.tid, SN: t.recallSN,
			Forwarded: true, Requestor: l.id,
		})
	}
}

// finish closes the current transaction, runs continuations and services
// the next queued request.
func (l *L2) finish(addr msg.Addr, t *l2Trans) {
	t.timersOff()
	l.obs.TransactionEnd("l2", l.id, addr, t.tid)
	t.phase = phaseIdle
	t.wbValid = false
	t.owedMem = false
	t.memAttempts = 0
	t.recallAttempts = 0
	t.needData = false
	t.gotData = false
	t.pendingAcks = 0
	t.respKind = respNone
	t.sentDataExTo = 0
	t.resumeParked()
	if !t.pop() {
		l.trans.Free(addr)
		return
	}
	l.service(addr, t)
}

// resumeParked schedules the fetch parked on t's eviction, if any.
func (t *l2Trans) resumeParked() {
	if p := t.parked; p != nil {
		t.parked = nil
		t.owner.engine.ScheduleCall(0, installParked, p, uint64(t.parkedAddr))
	}
}

// installParked resumes a fetch's install: arg is the transaction and tick
// its line.
func installParked(arg any, tick uint64) {
	t := arg.(*l2Trans)
	t.owner.install(msg.Addr(tick), t)
}

// Migratory detector (identical to DirCMP's). The map holds migInfo by
// value — the records are three words and never referenced across calls, so
// a pointer map would only add an allocation per tracked address.

func (l *L2) migratory(addr msg.Addr) bool {
	return l.mig[addr].migratory
}

func (l *L2) migOnRead(addr msg.Addr, from msg.NodeID) {
	mi := l.mig[addr]
	if mi.lastWasRead && mi.lastReader != 0 && mi.lastReader != from {
		mi.migratory = false
	}
	mi.lastReader = from
	mi.lastWasRead = true
	l.mig[addr] = mi
}

func (l *L2) migOnWrite(addr msg.Addr, from msg.NodeID) {
	mi := l.mig[addr]
	if mi.lastWasRead && mi.lastReader == from {
		mi.migratory = true
	}
	mi.lastWasRead = false
	l.mig[addr] = mi
}

// phaseName names an L2 transaction phase for diagnostics.
func phaseName(p int) string {
	switch p {
	case phaseIdle:
		return "idle"
	case phaseWaitUnblock:
		return "wait-unblock"
	case phaseWaitWbData:
		return "wait-wbdata"
	case phaseWaitAckBD:
		return "wait-ackbd"
	case phaseWaitMemData:
		return "wait-memdata"
	case phaseWaitRecall:
		return "wait-recall"
	case phaseWaitMemWbAck:
		return "wait-memwback"
	case phaseWaitMemAckO:
		return "wait-memacko"
	default:
		return fmt.Sprintf("phase(%d)", p)
	}
}

// Interned "<state>+<phase>" names for InspectLines: the checker inspects
// every line of every agent per run, so building these by concatenation
// would allocate per line.
var (
	l2StatePhase [3][8]string
	l2StateExt   [3]string
	l2WbPhase    [8]string
)

func init() {
	for s := range l2StatePhase {
		l2StateExt[s] = l2StateName(s) + "+extblock"
		for p := range l2StatePhase[s] {
			l2StatePhase[s][p] = l2StateName(s) + "+" + phaseName(p)
		}
	}
	for p := range l2WbPhase {
		l2WbPhase[p] = "WB+" + phaseName(p)
	}
}

func l2StatePhaseName(s, p int) string {
	if s >= 0 && s < len(l2StatePhase) && p >= 0 && p < len(l2StatePhase[s]) {
		return l2StatePhase[s][p]
	}
	return l2StateName(s) + "+" + phaseName(p)
}

func l2StateExtName(s int) string {
	if s >= 0 && s < len(l2StateExt) {
		return l2StateExt[s]
	}
	return l2StateName(s) + "+extblock"
}

func l2WbPhaseName(p int) string {
	if p >= 0 && p < len(l2WbPhase) {
		return l2WbPhase[p]
	}
	return "WB+" + phaseName(p)
}

// viewSN picks the serial number that best identifies the transaction for
// diagnostics: the serviced request's, else the memory-facing one, else
// the recall's.
func (t *l2Trans) viewSN() msg.SerialNumber {
	if t.req.sn != 0 {
		return t.req.sn
	}
	if t.memSN != 0 {
		return t.memSN
	}
	return t.recallSN
}

// InspectLines implements proto.Inspectable.
func (l *L2) InspectLines(fn func(proto.LineView)) {
	l.array.ForEach(func(c *cache.Line) {
		t := l.trans.Get(c.Addr)
		backup := t != nil && t.sentDataExTo != 0 && !t.backupCleared
		state := l2StateName(c.State)
		var sn msg.SerialNumber
		if t != nil {
			state = l2StatePhaseName(c.State, t.phase)
			sn = t.viewSN()
		} else if e := l.ext.Get(c.Addr); e != nil {
			state = l2StateExtName(c.State)
			sn = e.sn
		}
		fn(proto.LineView{
			Addr:      c.Addr,
			Owner:     c.State == L2StateS && !backup,
			Backup:    backup,
			Transient: t != nil || l.ext.Get(c.Addr) != nil,
			Payload:   c.Payload,
			State:     state,
			SN:        sn,
		})
	})
	l.trans.ForEach(func(addr msg.Addr, t *l2Trans) {
		if t.wbValid {
			fn(proto.LineView{
				Addr:      addr,
				Owner:     t.phase == phaseWaitMemWbAck,
				Backup:    t.phase == phaseWaitMemAckO,
				Transient: true,
				Payload:   t.wbPayload,
				State:     l2WbPhaseName(t.phase),
				SN:        t.viewSN(),
			})
		}
	})
}
