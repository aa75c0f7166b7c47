package core

import (
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The fault-detection timeouts of Table 3 (§3.2–§3.4), each written once as
// a firing handler. A record that a timeout guards arms it with
// Timer.Start(engine, delay, handler, record); when the timer fires, the
// handler runs the shared skeleton:
//
//  1. the guard: a record that no longer waits on the timeout does nothing;
//  2. the park: when a counterpart's tile has died, the failure detector
//     declares it and the record keeps its timer armed until the directory
//     reconstruction resolves it;
//  3. the Proto.*Timeouts counter and the timeout event;
//  4. lost request and lost AckBD only: a fresh serial number and the
//     reissue event (a lost request also counts the attempt its backoff
//     doubles on);
//  5. the message;
//  6. the re-arm.
//
// The record supplies only what differs, through timed: its guard, its
// counterparts and its message. It keeps owner/addr back-references, set
// at Alloc, so it is itself the timer's argument and arming allocates
// nothing; its reset hook stops its timers when it is freed. A record with
// several timeouts tells them apart by kind, and the L2 and memory
// transactions tell the variants of one kind apart by phase.

// timed is a record guarded by a Table 3 timeout.
type timed interface {
	// at returns the controller holding the record, its line and the
	// transaction its events carry.
	at() (*ctrl, msg.Addr, msg.TID)
	// live is the guard: the record still waits on timeout k.
	live(k obs.TimeoutKind) bool
	// partyDead asks the failure detector about timeout k's counterparts.
	partyDead(k obs.TimeoutKind) bool
	// resend sends timeout k's message.
	resend(k obs.TimeoutKind)
	// arm (re)starts timeout k.
	arm(k obs.TimeoutKind)
}

// reissuing is a record whose timeout resends its message under a fresh
// serial number.
type reissuing interface {
	timed
	// reissued returns the message type timeout k reissues, the serial
	// number it replaces and the attempt count its backoff doubles on (nil
	// when the delay is fixed).
	reissued(k obs.TimeoutKind) (msg.Type, *msg.SerialNumber, *int)
}

// due runs steps 1 and 2 for timeout k of r: it reports whether the
// timeout goes on to fire, parking r when a counterpart died.
func due(r timed, k obs.TimeoutKind) bool {
	if !r.live(k) {
		return false
	}
	if r.partyDead(k) {
		r.arm(k)
		return false
	}
	return true
}

// reissue is step 4 for timeout k of r.
func reissue(r reissuing, k obs.TimeoutKind) {
	c, addr, tid := r.at()
	typ, sn, attempts := r.reissued(k)
	if attempts != nil {
		*attempts++
	}
	old := *sn
	*sn = c.serial.Next()
	c.obs.Reissue(c.unit, c.id, addr, tid, typ, old, *sn)
}

// lostRequestFired is the lost-request timeout, run by a requester from
// issue until the response: an L1 miss or Put, and an L2 fetch, Put or
// recall. It reissues the request with a new serial number (§3.2).
func lostRequestFired(arg any) {
	r := arg.(reissuing)
	if !due(r, obs.TimeoutLostRequest) {
		return
	}
	c, addr, tid := r.at()
	c.run.Proto.LostRequestTimeouts++
	c.run.Proto.RequestsReissued++
	c.obs.TimeoutFired(c.unit, c.id, addr, tid, obs.TimeoutLostRequest)
	reissue(r, obs.TimeoutLostRequest)
	r.resend(obs.TimeoutLostRequest)
	r.arm(obs.TimeoutLostRequest)
}

// lostUnblockFired is the lost-unblock timeout, run by a responder (an L2
// bank or memory) from its answer until the Unblock/UnblockEx or the
// writeback data arrives. It pings the requester with UnblockPing or
// WbPing (§3.3).
func lostUnblockFired(arg any) {
	r := arg.(timed)
	if !due(r, obs.TimeoutLostUnblock) {
		return
	}
	c, addr, tid := r.at()
	c.run.Proto.LostUnblockTimeouts++
	c.obs.TimeoutFired(c.unit, c.id, addr, tid, obs.TimeoutLostUnblock)
	r.resend(obs.TimeoutLostUnblock)
	r.arm(obs.TimeoutLostUnblock)
}

// lostAckBDFired is the lost backup-deletion-acknowledgment timeout, run
// by an AckO sender until the AckBD arrives. It resends the AckO with a
// new serial number (§3.4).
func lostAckBDFired(arg any) {
	r := arg.(reissuing)
	if !due(r, obs.TimeoutLostAckBD) {
		return
	}
	c, addr, tid := r.at()
	c.run.Proto.LostAckBDTimeouts++
	c.obs.TimeoutFired(c.unit, c.id, addr, tid, obs.TimeoutLostAckBD)
	reissue(r, obs.TimeoutLostAckBD)
	c.run.Proto.AcksOSent++
	r.resend(obs.TimeoutLostAckBD)
	r.arm(obs.TimeoutLostAckBD)
}

// backupFired is the backup timeout, run by a node holding a backup copy
// until the receiver's AckO arrives. It pings the receiver with
// OwnershipPing, which is answered by AckO or NackO.
func backupFired(arg any) {
	r := arg.(timed)
	if !due(r, obs.TimeoutBackup) {
		return
	}
	c, addr, tid := r.at()
	c.run.Proto.BackupTimeouts++
	c.obs.TimeoutFired(c.unit, c.id, addr, tid, obs.TimeoutBackup)
	r.resend(obs.TimeoutBackup)
	r.arm(obs.TimeoutBackup)
}

// ping sends an OwnershipPing from c to dst under a fresh serial number.
func (c *ctrl) ping(dst msg.NodeID, addr msg.Addr, tid msg.TID) {
	c.send(&msg.Message{Type: msg.OwnershipPing, Dst: dst, Addr: addr, SN: c.serial.Next(), TID: tid})
}

// The L1's records. A miss and a Put reissue toward the home L2; a dead
// home parks them, and the reconstruction reissues them toward the new
// home. A backup, or a writeback entry turned backup, pings its receiver;
// a blocked-ownership entry resends its AckO to the backup holder (only
// the first AckO rides the UnblockEx). When either party died, the
// reconstruction decides from the surviving backup.

func (e *l1Miss) at() (*ctrl, msg.Addr, msg.TID) { return &e.owner.ctrl, e.addr, e.tid }
func (e *l1Miss) live(obs.TimeoutKind) bool      { return e.owner.mshr.Get(e.addr) == e }
func (e *l1Miss) partyDead(obs.TimeoutKind) bool {
	return e.owner.domains.MaybeDeclareDead(e.owner.homeL2(e.addr))
}
func (e *l1Miss) reissued(obs.TimeoutKind) (msg.Type, *msg.SerialNumber, *int) {
	return e.reqType, &e.sn, &e.attempts
}
func (e *l1Miss) arm(obs.TimeoutKind) {
	e.timer.Start(e.owner.engine, sim.Backoff(e.owner.params.LostRequestTimeout, e.attempts), lostRequestFired, e)
}

// resend reissues the request under its current serial number. Responses
// to earlier attempts are discarded by serial number, so this attempt's
// bookkeeping restarts from scratch.
func (e *l1Miss) resend(obs.TimeoutKind) {
	l := e.owner
	if len(e.snHistory) < l.serial.Width() {
		e.snHistory = append(e.snHistory, e.sn)
	}
	e.dataArrived = false
	e.exclusive = false
	e.dirty = false
	e.noPayload = false
	e.ackCountKnown = false
	e.needAcks = 0
	e.acksSeen = 0
	l.send(&msg.Message{Type: e.reqType, Dst: l.homeL2(e.addr), Addr: e.addr, SN: e.sn, TID: e.tid})
}

// An l1WB guards its Put with the lost-request timeout until the WbData is
// sent, and then the backup it has become with the backup timeout.
func (w *l1WB) at() (*ctrl, msg.Addr, msg.TID) { return &w.owner.ctrl, w.addr, w.tid }
func (w *l1WB) live(k obs.TimeoutKind) bool {
	return w.owner.wb.Get(w.addr) == w && (k == obs.TimeoutBackup || !w.sentData)
}
func (w *l1WB) partyDead(obs.TimeoutKind) bool {
	return w.owner.domains.MaybeDeclareDead(w.owner.homeL2(w.addr))
}
func (w *l1WB) reissued(obs.TimeoutKind) (msg.Type, *msg.SerialNumber, *int) {
	return msg.Put, &w.sn, &w.attempts
}
func (w *l1WB) resend(k obs.TimeoutKind) {
	l := w.owner
	if k == obs.TimeoutBackup {
		l.ping(l.homeL2(w.addr), w.addr, w.tid)
		return
	}
	l.send(&msg.Message{Type: msg.Put, Dst: l.homeL2(w.addr), Addr: w.addr, SN: w.sn, TID: w.tid})
}
func (w *l1WB) arm(k obs.TimeoutKind) {
	l := w.owner
	if k == obs.TimeoutBackup {
		w.backupTimer.Start(l.engine, l.params.BackupTimeout, backupFired, w)
		return
	}
	w.putTimer.Start(l.engine, sim.Backoff(l.params.LostRequestTimeout, w.attempts), lostRequestFired, w)
}

func (b *backupEntry) at() (*ctrl, msg.Addr, msg.TID) { return &b.owner.ctrl, b.addr, b.tid }
func (b *backupEntry) live(obs.TimeoutKind) bool      { return b.owner.backups.Get(b.addr) == b }
func (b *backupEntry) partyDead(obs.TimeoutKind) bool {
	return b.owner.domains.MaybeDeclareDead(b.dest)
}
func (b *backupEntry) resend(obs.TimeoutKind) { b.owner.ping(b.dest, b.addr, b.tid) }
func (b *backupEntry) arm(obs.TimeoutKind) {
	b.timer.Start(b.owner.engine, b.owner.params.BackupTimeout, backupFired, b)
}

func (b *blockedEntry) at() (*ctrl, msg.Addr, msg.TID) { return &b.owner.ctrl, b.addr, b.tid }
func (b *blockedEntry) live(obs.TimeoutKind) bool      { return b.owner.blocked.Get(b.addr) == b }
func (b *blockedEntry) partyDead(obs.TimeoutKind) bool {
	return b.owner.domains.MaybeDeclareDead(b.ackOTo)
}
func (b *blockedEntry) reissued(obs.TimeoutKind) (msg.Type, *msg.SerialNumber, *int) {
	return msg.AckO, &b.sn, nil
}
func (b *blockedEntry) resend(obs.TimeoutKind) {
	b.piggy = false
	b.owner.send(&msg.Message{Type: msg.AckO, Dst: b.ackOTo, Addr: b.addr, SN: b.sn, TID: b.tid})
}
func (b *blockedEntry) arm(obs.TimeoutKind) {
	b.timer.Start(b.owner.engine, b.owner.params.LostAckBDTimeout, lostAckBDFired, b)
}

// The L2's records. An external block resends its AckO to memory. A
// transaction runs the lost-request timeout toward memory (fetch or Put)
// or toward the L1s (recall), the lost-unblock timeout after answering an
// L1, the lost-AckBD timeout after receiving owned data, and the backup
// timeout after sending owned data to an L1 or to memory; its phase tells
// the variants apart. Memory never dies, so a memory counterpart never
// parks a record.

func (eb *extBlock) at() (*ctrl, msg.Addr, msg.TID) { return &eb.owner.ctrl, eb.addr, eb.tid }
func (eb *extBlock) live(obs.TimeoutKind) bool      { return eb.owner.ext.Get(eb.addr) == eb }
func (eb *extBlock) partyDead(obs.TimeoutKind) bool { return false }
func (eb *extBlock) reissued(obs.TimeoutKind) (msg.Type, *msg.SerialNumber, *int) {
	return msg.AckO, &eb.sn, nil
}
func (eb *extBlock) resend(obs.TimeoutKind) {
	l := eb.owner
	l.send(&msg.Message{Type: msg.AckO, Dst: l.topo.HomeMem(eb.addr), Addr: eb.addr, TID: eb.tid, SN: eb.sn})
}
func (eb *extBlock) arm(obs.TimeoutKind) {
	eb.timer.Start(eb.owner.engine, eb.owner.params.LostAckBDTimeout, lostAckBDFired, eb)
}

func (t *l2Trans) at() (*ctrl, msg.Addr, msg.TID) { return &t.owner.ctrl, t.addr, t.tid }

func (t *l2Trans) live(k obs.TimeoutKind) bool {
	if t.owner.trans.Get(t.addr) != t {
		return false
	}
	switch k {
	case obs.TimeoutLostRequest:
		return t.phase == phaseWaitMemData || t.phase == phaseWaitMemWbAck || t.phase == phaseWaitRecall
	case obs.TimeoutLostUnblock:
		return t.phase == phaseWaitUnblock || t.phase == phaseWaitWbData
	case obs.TimeoutLostAckBD:
		return t.phase == phaseWaitAckBD
	}
	return t.phase == phaseWaitMemAckO || t.sentDataExTo != 0 && !t.backupCleared
}

// partyDead checks the L1s the transaction waits on. After answering a
// request or during a recall, those are the requester, the forward target
// and every invalidation target: none of them answers once dead.
func (t *l2Trans) partyDead(k obs.TimeoutKind) bool {
	d := t.owner.domains
	switch {
	case k == obs.TimeoutLostAckBD:
		return d.MaybeDeclareDead(t.ackOTo)
	case k == obs.TimeoutBackup:
		return t.phase != phaseWaitMemAckO && d.MaybeDeclareDead(t.sentDataExTo)
	case t.phase == phaseWaitWbData:
		return d.MaybeDeclareDead(t.req.from)
	case t.phase != phaseWaitUnblock && t.phase != phaseWaitRecall:
		return false
	}
	if d.MaybeDeclareDead(t.req.from) || t.fwdDest != 0 && d.MaybeDeclareDead(t.fwdDest) {
		return true
	}
	for _, dst := range t.invTargets {
		if d.MaybeDeclareDead(dst) {
			return true
		}
	}
	return false
}

func (t *l2Trans) reissued(k obs.TimeoutKind) (msg.Type, *msg.SerialNumber, *int) {
	switch {
	case k == obs.TimeoutLostAckBD:
		return msg.AckO, &t.ackOSN, nil
	case t.phase == phaseWaitRecall:
		return msg.GetX, &t.recallSN, &t.recallAttempts
	case t.phase == phaseWaitMemWbAck:
		return msg.Put, &t.memSN, &t.memAttempts
	}
	return msg.GetX, &t.memSN, &t.memAttempts
}

func (t *l2Trans) resend(k obs.TimeoutKind) {
	l, addr := t.owner, t.addr
	switch {
	case k == obs.TimeoutLostRequest && t.phase == phaseWaitRecall:
		line := l.array.Lookup(addr)
		if line == nil {
			protocolPanic("L2 %d recall reissue for missing line %#x", l.id, addr)
		}
		l.sendRecall(addr, t, line)
	case k == obs.TimeoutLostRequest:
		typ, sn, _ := t.reissued(k)
		l.send(&msg.Message{Type: typ, Dst: l.topo.HomeMem(addr), Addr: addr, TID: t.tid, SN: *sn})
	case k == obs.TimeoutLostUnblock && t.phase == phaseWaitWbData:
		l.send(&msg.Message{Type: msg.WbPing, Dst: t.req.from, Addr: addr, TID: t.tid, SN: t.req.sn})
	case k == obs.TimeoutLostUnblock:
		l.send(&msg.Message{Type: msg.UnblockPing, Dst: t.req.from, Addr: addr, TID: t.tid, SN: t.req.sn})
	case k == obs.TimeoutLostAckBD:
		l.send(&msg.Message{Type: msg.AckO, Dst: t.ackOTo, Addr: addr, TID: t.tid, SN: t.ackOSN})
	case t.phase == phaseWaitMemAckO:
		l.ping(l.topo.HomeMem(addr), addr, t.tid)
	default:
		l.ping(t.sentDataExTo, addr, t.tid)
	}
}

func (t *l2Trans) arm(k obs.TimeoutKind) {
	e, p := t.owner.engine, &t.owner.params
	switch {
	case k == obs.TimeoutLostRequest && t.phase == phaseWaitRecall:
		t.recallTimer.Start(e, sim.Backoff(p.LostRequestTimeout, t.recallAttempts), lostRequestFired, t)
	case k == obs.TimeoutLostRequest:
		t.memTimer.Start(e, sim.Backoff(p.LostRequestTimeout, t.memAttempts), lostRequestFired, t)
	case k == obs.TimeoutLostUnblock:
		t.unblockTimer.Start(e, p.LostUnblockTimeout, lostUnblockFired, t)
	case k == obs.TimeoutLostAckBD:
		t.ackBDTimer.Start(e, p.LostAckBDTimeout, lostAckBDFired, t)
	default:
		t.backupTimer.Start(e, p.BackupTimeout, backupFired, t)
	}
}

// A memory transaction runs the lost-unblock timeout toward the L2 bank it
// answered (UnblockPing after a DataEx, WbPing after a WbAck) and the
// lost-AckBD timeout after acknowledging the bank's WbData.

func (t *memTrans) at() (*ctrl, msg.Addr, msg.TID) { return &t.owner.ctrl, t.addr, t.req.tid }

func (t *memTrans) live(k obs.TimeoutKind) bool {
	if t.owner.trans.Get(t.addr) != t {
		return false
	}
	if k == obs.TimeoutLostAckBD {
		return t.phase == memWaitAckBD
	}
	return t.phase == memWaitUnblock || t.phase == memWaitWbData
}

func (t *memTrans) partyDead(obs.TimeoutKind) bool {
	return t.owner.domains.MaybeDeclareDead(t.req.from)
}
func (t *memTrans) reissued(obs.TimeoutKind) (msg.Type, *msg.SerialNumber, *int) {
	return msg.AckO, &t.ackOSN, nil
}

func (t *memTrans) resend(k obs.TimeoutKind) {
	m := msg.Message{Type: msg.AckO, Dst: t.req.from, Addr: t.addr, TID: t.req.tid, SN: t.ackOSN}
	if k == obs.TimeoutLostUnblock {
		m.Type, m.SN = msg.UnblockPing, t.req.sn
		if t.phase == memWaitWbData {
			m.Type = msg.WbPing
		}
	}
	t.owner.send(&m)
}

func (t *memTrans) arm(k obs.TimeoutKind) {
	c := t.owner
	if k == obs.TimeoutLostAckBD {
		t.ackBDTimer.Start(c.engine, c.params.LostAckBDTimeout, lostAckBDFired, t)
		return
	}
	t.pingTimer.Start(c.engine, c.params.LostUnblockTimeout, lostUnblockFired, t)
}
