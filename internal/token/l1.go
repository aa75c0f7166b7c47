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

// tokenMiss is an outstanding transient request: the frame is allocated up
// front and tokens accumulate into it until the permission is complete.
// owner/addr let the entry be its timers' handler argument.
type tokenMiss struct {
	owner *L1
	addr  msg.Addr

	write    bool
	value    uint64
	issuedAt uint64

	retries        int
	persistentSent bool
	timer          sim.Timer // retry / escalation
	lostTimer      sim.Timer // FtTokenCMP: recreation trigger

	done    func(proto.AccessResult)
	waiters []proto.Access
}

// backupEntry guards an owner-token transfer (FtTokenCMP): the data is kept
// until the recipient's AckO.
type backupEntry struct {
	owner *L1
	addr  msg.Addr

	payload msg.Payload
	dirty   bool
	dest    msg.NodeID
	sn      msg.SerialNumber
	timer   sim.Timer
}

// Reset hooks: stop the timers and carry them over (their epochs kill
// firings left from the entry's previous life), as in the directory L1.

func resetTokenMiss(e *tokenMiss) {
	e.timer.Stop()
	e.lostTimer.Stop()
	*e = tokenMiss{timer: e.timer, lostTimer: e.lostTimer}
}

func resetBackup(b *backupEntry) {
	b.timer.Stop()
	*b = backupEntry{timer: b.timer}
}

// L1 is a token-coherence L1 cache controller (TokenCMP when ft is false,
// FtTokenCMP when true).
type L1 struct {
	id     msg.NodeID
	topo   proto.Topology
	params proto.Params
	engine *sim.Engine
	net    proto.Sender
	run    *stats.Run
	ft     bool

	totalTokens int
	array       *cache.Array
	mshr        *cache.Table[tokenMiss]
	persistent  map[msg.Addr]msg.NodeID // active persistent requester per line

	// FtTokenCMP state.
	serials  map[msg.Addr]msg.SerialNumber // token serial table (§5)
	backups  *cache.Table[backupEntry]
	blocked  map[msg.Addr]*blockedEntry
	recStash map[msg.Addr]*recStash

	spareBlocked []*blockedEntry // released by unblock, for acceptTokens

	onWrite proto.WriteObserver
	obs     *obs.Recorder
	results proto.DeferredResults // hit completions and retries in flight
}

// blockedEntry: we received the owner token and owe/await the backup
// deletion handshake; the owner token must not move on until then.
type blockedEntry struct {
	owner  *L1
	addr   msg.Addr
	ackOTo msg.NodeID
	sn     msg.SerialNumber
	timer  sim.Timer
}

// recStash remembers what this node answered to a RecreateInv so that a
// lost RecreateAck can be re-answered identically: the node's copy of the
// data is destroyed when the first acknowledgment is built, and the home
// re-asks until an acknowledgment arrives.
type recStash struct {
	sn      msg.SerialNumber
	hasData bool
	payload msg.Payload
	dirty   bool
}

var _ proto.L1Port = (*L1)(nil)
var _ proto.Inspectable = (*L1)(nil)

// NewL1 builds a token-protocol L1. ft selects FtTokenCMP.
func NewL1(id msg.NodeID, topo proto.Topology, params proto.Params, engine *sim.Engine,
	net proto.Sender, run *stats.Run, onWrite proto.WriteObserver, ft bool) (*L1, error) {
	arr, err := cache.NewArray(params.L1Size, params.L1Ways, params.LineSize)
	if err != nil {
		return nil, err
	}
	l := &L1{
		id:          id,
		topo:        topo,
		params:      params,
		engine:      engine,
		net:         net,
		run:         run,
		ft:          ft,
		totalTokens: topo.Tiles,
		array:       arr,
		mshr:        cache.NewTableReset[tokenMiss](params.MSHRs, resetTokenMiss),
		persistent:  make(map[msg.Addr]msg.NodeID),
		serials:     make(map[msg.Addr]msg.SerialNumber),
		backups:     cache.NewTableReset[backupEntry](0, resetBackup),
		blocked:     make(map[msg.Addr]*blockedEntry),
		recStash:    make(map[msg.Addr]*recStash),
		onWrite:     onWrite,
	}
	l.Reset()
	return l, nil
}

// Reset returns the controller to the state NewL1 leaves it in: every
// outstanding miss, backup and blocked handshake is dropped with its
// timers stopped, the cache frames are invalidated but kept, and the
// persistent, serial and recreation tables are cleared. The observer
// stays attached.
func (l *L1) Reset() {
	l.mshr.Reset()
	l.backups.Reset()
	for addr, b := range l.blocked {
		l.unblock(addr, b)
	}
	clear(l.persistent)
	clear(l.serials)
	clear(l.recStash)
	l.array.Reset()
	l.results.Reset()
}

// NodeID implements proto.Inspectable.
func (l *L1) NodeID() msg.NodeID { return l.id }

// SetObserver attaches the structured event recorder (see internal/obs).
func (l *L1) SetObserver(o *obs.Recorder) { l.obs = o }

// Quiesced implements proto.L1Port.
func (l *L1) Quiesced() bool {
	return l.mshr.Len() == 0 && l.backups.Len() == 0 && len(l.blocked) == 0
}

// Read implements proto.L1Port.
func (l *L1) Read(addr msg.Addr, done func(proto.AccessResult)) {
	addr = l.topo.LineAddr(addr)
	if line := l.array.Lookup(addr); line != nil && l.mshr.Get(addr) == nil &&
		line.State >= 1 && hasData(line) {
		l.array.Touch(line)
		l.run.Proto.ReadHits++
		res := proto.AccessResult{
			Hit: true, Value: line.Payload.Value, Version: line.Payload.Version,
			Latency: l.params.L1HitLatency,
		}
		proto.DeferResult(&l.results, l.engine, l.params.L1HitLatency, done, res)
		return
	}
	if e := l.mshr.Get(addr); e != nil {
		e.waiters = append(e.waiters, proto.Access{Addr: addr, Done: done})
		return
	}
	l.run.Proto.ReadMisses++
	l.startMiss(addr, false, 0, done)
}

// Write implements proto.L1Port.
func (l *L1) Write(addr msg.Addr, value uint64, done func(proto.AccessResult)) {
	addr = l.topo.LineAddr(addr)
	if line := l.array.Lookup(addr); line != nil && l.mshr.Get(addr) == nil &&
		line.State == l.totalTokens && hasData(line) {
		l.array.Touch(line)
		line.Dirty = true
		line.Payload.Value = value
		line.Payload.Version++
		if l.onWrite != nil {
			l.onWrite(addr, line.Payload.Version, value)
		}
		l.run.Proto.WriteHits++
		res := proto.AccessResult{
			Hit: true, Value: value, Version: line.Payload.Version,
			Latency: l.params.L1HitLatency,
		}
		proto.DeferResult(&l.results, l.engine, l.params.L1HitLatency, done, res)
		return
	}
	if e := l.mshr.Get(addr); e != nil {
		e.waiters = append(e.waiters, proto.Access{Write: true, Addr: addr, Value: value, Done: done})
		return
	}
	l.run.Proto.WriteMisses++
	l.startMiss(addr, true, value, done)
}

// startMiss reserves a frame, broadcasts the transient request and arms
// the retry (and, in FtTokenCMP, the lost-token) timer.
func (l *L1) startMiss(addr msg.Addr, write bool, value uint64, done func(proto.AccessResult)) {
	retry := proto.Access{Write: write, Addr: addr, Value: value, Done: done}
	if l.frameFor(addr) == nil {
		// Every way pinned (collections in flight); retry shortly.
		proto.Retry(&l.results, l.engine, 4, l, retry)
		return
	}
	e := l.mshr.Alloc(addr)
	if e == nil {
		proto.Retry(&l.results, l.engine, 1, l, retry)
		return
	}
	e.owner = l
	e.addr = addr
	e.write = write
	e.value = value
	e.issuedAt = l.engine.Now()
	e.done = done
	l.broadcastRequest(addr, write)
	e.timer.Start(l.engine, l.params.TokenRetryTimeout(), retryFired, e)
	if l.ft {
		e.lostTimer.Start(l.engine, l.params.TokenLostTimeout(), lostTokenFired, e)
	}
}

// frameFor returns (allocating/evicting if needed) the frame for addr.
func (l *L1) frameFor(addr msg.Addr) *cache.Line {
	if line := l.array.Lookup(addr); line != nil {
		return line
	}
	victim := l.array.Victim(addr, func(c *cache.Line) bool {
		return l.mshr.Get(c.Addr) == nil && l.blocked[c.Addr] == nil && l.backups.Get(c.Addr) == nil
	})
	if victim == nil {
		return nil
	}
	if victim.Valid {
		l.evict(victim)
	}
	victim.Reset(addr)
	victim.State = 0
	return victim
}

// evict returns the frame's tokens (and data, when the owner token moves)
// to the home node.
func (l *L1) evict(line *cache.Line) {
	if line.State > 0 {
		l.run.Proto.Writebacks++
		home := l.topo.HomeL2(line.Addr)
		grant := &msg.Message{
			Type: msg.TokenRelease, Dst: home, Addr: line.Addr,
			AckCount: line.State, SN: l.serialOf(line.Addr), NoPayload: true,
		}
		if hasOwner(line) {
			grant.Owner = true
			grant.NoPayload = false
			grant.Payload = line.Payload
			grant.Dirty = line.Dirty
			if l.ft {
				l.makeBackup(line.Addr, line.Payload, line.Dirty, home, grant.SN)
			}
		}
		l.send(grant)
	}
	line.Valid = false
}

// broadcastRequest sends the transient request to every other L1 and the
// home node (the "broadcast" that makes token protocols less
// bandwidth-efficient than directories, §5).
func (l *L1) broadcastRequest(addr msg.Addr, write bool) {
	typ := msg.TrGetS
	if write {
		typ = msg.TrGetX
	}
	for i := 0; i < l.topo.Tiles; i++ {
		dst := l.topo.L1(i)
		if dst == l.id {
			continue
		}
		l.send(&msg.Message{Type: typ, Dst: dst, Addr: addr})
	}
	l.send(&msg.Message{Type: typ, Dst: l.topo.HomeL2(addr), Addr: addr})
}

// retryFired retries the transient request with backoff and escalates to a
// persistent request after the threshold.
func retryFired(arg any) {
	e := arg.(*tokenMiss)
	l, addr := e.owner, e.addr
	if l.mshr.Get(addr) != e {
		return
	}
	e.retries++
	l.run.Proto.TokenRetries++
	l.obs.TimeoutFired("l1", l.id, addr, 0, obs.TimeoutLostRequest)
	if e.retries >= l.params.TokenPersistentThreshold() {
		if !e.persistentSent {
			l.run.Proto.PersistentRequests++
			e.persistentSent = true
		}
		// Keep both channels open: the persistent request (idempotent
		// at the home, re-sent in case it was lost) and the broadcast
		// (prompting holders whose forwarded grants were lost).
		l.send(&msg.Message{Type: msg.PersistentReq, Dst: l.topo.HomeL2(addr), Addr: addr})
		l.broadcastRequest(addr, e.write)
	} else {
		l.broadcastRequest(addr, e.write)
	}
	e.timer.Start(l.engine, sim.Backoff(l.params.TokenRetryTimeout(), e.retries), retryFired, e)
}

// lostTokenFired triggers the token recreation process (FtTokenCMP).
func lostTokenFired(arg any) {
	e := arg.(*tokenMiss)
	l, addr := e.owner, e.addr
	if l.mshr.Get(addr) != e {
		return
	}
	l.run.Proto.LostRequestTimeouts++
	l.obs.TimeoutFired("l1", l.id, addr, 0, obs.TimeoutLostRequest)
	l.send(&msg.Message{Type: msg.RecreateReq, Dst: l.topo.HomeL2(addr), Addr: addr})
	e.lostTimer.Start(l.engine, l.params.TokenLostTimeout(), lostTokenFired, e)
}

// Handle processes a delivered network message.
func (l *L1) Handle(m *msg.Message) {
	switch m.Type {
	case msg.TrGetS:
		l.handleTrGetS(m)
	case msg.TrGetX:
		l.handleTrGetX(m)
	case msg.TokenGrant:
		l.handleGrant(m)
	case msg.PersistentAct:
		l.handlePersistentAct(m)
	case msg.PersistentDeact:
		delete(l.persistent, m.Addr)
	case msg.RecreateInv:
		l.handleRecreateInv(m)
	case msg.AckO:
		l.handleAckO(m)
	case msg.AckBD:
		l.handleAckBD(m)
	case msg.OwnershipPing:
		l.handleOwnershipPing(m)
	case msg.NackO:
		// The receiver of our owner-token grant reports it never arrived.
		// Unlike FtDirCMP, the backup holder cannot simply resend — tokens
		// moved and the requester may have completed through other grants,
		// so nobody may be starving to trigger recovery. The backup holder
		// escalates to the token recreation process itself, which collects
		// this backup's data and reconstitutes the lost tokens.
		if b := l.backups.Get(m.Addr); b != nil {
			l.send(&msg.Message{Type: msg.RecreateReq, Dst: l.topo.HomeL2(m.Addr), Addr: m.Addr})
			l.armBackup(b)
		}
	case msg.UnblockPing:
		// The home asks whether our persistent request is still live.
		if e := l.mshr.Get(m.Addr); e != nil && e.persistentSent {
			return
		}
		l.send(&msg.Message{Type: msg.PersistentDeact, Dst: m.Src, Addr: m.Addr})
	default:
		protocolPanic("token L1 %d received unexpected %v", l.id, m)
	}
}

// handleTrGetS: only the owner answers, with one token and data (giving
// the owner token away when it is the last one).
func (l *L1) handleTrGetS(m *msg.Message) {
	line := l.array.Lookup(m.Addr)
	if line == nil || !hasOwner(line) || line.State < 1 || !hasData(line) {
		return
	}
	if l.blocked[m.Addr] != nil {
		return // owner token pinned by the handshake; the requester retries
	}
	if r := l.persistent[m.Addr]; r != 0 && r != m.Src {
		return // all tokens are reserved for the persistent requester
	}
	l.run.Proto.CacheToCacheTransfers++
	if line.State >= 2 {
		line.State--
		l.send(&msg.Message{
			Type: msg.TokenGrant, Dst: m.Src, Addr: m.Addr, AckCount: 1,
			SN: l.serialOf(m.Addr), Payload: line.Payload, Dirty: line.Dirty,
		})
		return
	}
	// Last token: the owner token and the data move.
	l.sendOwnedTokens(m.Addr, line, m.Src, 1)
}

// handleTrGetX: every holder sends all of its tokens; the owner adds data.
func (l *L1) handleTrGetX(m *msg.Message) {
	line := l.array.Lookup(m.Addr)
	if line == nil || line.State == 0 {
		return
	}
	if r := l.persistent[m.Addr]; r != 0 && r != m.Src {
		return
	}
	if hasOwner(line) {
		if l.blocked[m.Addr] != nil {
			return
		}
		l.run.Proto.CacheToCacheTransfers++
		l.sendOwnedTokens(m.Addr, line, m.Src, line.State)
		return
	}
	count := line.State
	line.State = 0
	setData(line, false)
	line.Valid = false
	l.send(&msg.Message{
		Type: msg.TokenGrant, Dst: m.Src, Addr: m.Addr, AckCount: count,
		SN: l.serialOf(m.Addr), NoPayload: true,
	})
}

// sendOwnedTokens transfers count tokens including the owner token (and
// the data), creating a backup in FtTokenCMP.
func (l *L1) sendOwnedTokens(addr msg.Addr, line *cache.Line, dst msg.NodeID, count int) {
	sn := l.serialOf(addr)
	l.send(&msg.Message{
		Type: msg.TokenGrant, Dst: dst, Addr: addr, AckCount: count,
		SN: sn, Owner: true, Payload: line.Payload, Dirty: line.Dirty,
	})
	if l.ft {
		l.makeBackup(addr, line.Payload, line.Dirty, dst, sn)
	}
	line.State -= count
	line.Owner = 0
	if line.State == 0 {
		setData(line, false)
		line.Valid = false
	}
}

// handleGrant accumulates tokens into the collecting frame — or forwards
// them to the active persistent requester.
func (l *L1) handleGrant(m *msg.Message) {
	addr := m.Addr
	if l.ft && m.SN != l.serialOf(addr) {
		l.run.Proto.StaleSNDiscarded++
		return
	}
	if r := l.persistent[addr]; r != 0 && r != l.id {
		// Forward to the active persistent requester, preserving the
		// original sender so the owner-token handshake (AckO to the backup
		// holder) still pairs up.
		fwd := *m
		fwd.Dst = r
		l.net.Send(&fwd)
		return
	}
	line := l.frameFor(addr)
	if line == nil {
		// No frame available: bounce the tokens to the home node rather
		// than lose them (again preserving the sender for the handshake).
		bounce := *m
		bounce.Dst = l.topo.HomeL2(addr)
		bounce.Type = msg.TokenRelease
		l.net.Send(&bounce)
		return
	}
	l.acceptTokens(line, m)
	if e := l.mshr.Get(addr); e != nil {
		l.tryComplete(addr, e, line)
	}
}

// acceptTokens merges a grant into the frame, acknowledging owner-token
// transfers in FtTokenCMP.
func (l *L1) acceptTokens(line *cache.Line, m *msg.Message) {
	line.State += m.AckCount
	if line.State > l.totalTokens {
		protocolPanic("token L1 %d holds %d tokens for %#x", l.id, line.State, m.Addr)
	}
	if !m.NoPayload {
		line.Payload = m.Payload
		line.Dirty = line.Dirty || m.Dirty
		setData(line, true)
	}
	if m.Owner {
		line.Owner = 1
		if l.ft {
			l.run.Proto.AcksOSent++
			l.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: m.Addr, SN: m.SN})
			var b *blockedEntry
			if n := len(l.spareBlocked); n > 0 {
				b = l.spareBlocked[n-1]
				l.spareBlocked = l.spareBlocked[:n-1]
			} else {
				b = new(blockedEntry)
			}
			*b = blockedEntry{owner: l, addr: m.Addr, ackOTo: m.Src, sn: m.SN, timer: b.timer}
			l.blocked[m.Addr] = b
			b.timer.Start(l.engine, l.params.LostAckBDTimeout, lostAckBDFired, b)
		}
	}
}

// tryComplete finishes the miss once permissions are complete.
func (l *L1) tryComplete(addr msg.Addr, e *tokenMiss, line *cache.Line) {
	if !hasData(line) {
		return
	}
	if e.write && line.State != l.totalTokens {
		return
	}
	if !e.write && line.State < 1 {
		return
	}
	e.timer.Stop()
	e.lostTimer.Stop()
	if e.persistentSent {
		l.send(&msg.Message{Type: msg.PersistentDeact, Dst: l.topo.HomeL2(addr), Addr: addr})
	}
	payload := line.Payload
	if e.write {
		payload.Value = e.value
		payload.Version++
		line.Payload = payload
		line.Dirty = true
		if l.onWrite != nil {
			l.onWrite(addr, payload.Version, payload.Value)
		}
	}
	l.array.Touch(line)
	latency := l.engine.Now() - e.issuedAt
	l.run.Proto.MissLatency(latency)
	res := proto.AccessResult{Value: payload.Value, Version: payload.Version, Latency: latency}
	done := e.done
	waiters := e.waiters
	l.mshr.Free(addr)
	l.obs.TransactionEnd("l1", l.id, addr, 0)
	if done != nil {
		done(res)
	}
	for _, a := range waiters {
		proto.Retry(&l.results, l.engine, 0, l, a)
	}
}

// handlePersistentAct records the starver and immediately forwards our
// tokens for the line.
func (l *L1) handlePersistentAct(m *msg.Message) {
	r := m.Requestor
	l.persistent[m.Addr] = r
	if r == l.id {
		return
	}
	line := l.array.Lookup(m.Addr)
	if line == nil || line.State == 0 {
		return
	}
	if hasOwner(line) {
		if l.blocked[m.Addr] != nil {
			return
		}
		l.sendOwnedTokens(m.Addr, line, r, line.State)
		return
	}
	count := line.State
	line.State = 0
	setData(line, false)
	line.Valid = false
	l.send(&msg.Message{
		Type: msg.TokenGrant, Dst: r, Addr: m.Addr, AckCount: count,
		SN: l.serialOf(m.Addr), NoPayload: true,
	})
}

// handleRecreateInv discards the line's tokens under the old serial and
// reports back, carrying the freshest data we had (owner copy or backup).
// The answer is stashed per serial number so a duplicate invalidation
// (sent because our previous RecreateAck was lost) gets the same answer —
// including the data, which no longer exists anywhere else on this node.
func (l *L1) handleRecreateInv(m *msg.Message) {
	addr := m.Addr
	if st := l.recStash[addr]; st != nil && st.sn == m.SN {
		ack := &msg.Message{Type: msg.RecreateAck, Dst: m.Src, Addr: addr, SN: m.SN, NoPayload: !st.hasData}
		if st.hasData {
			ack.Payload = st.payload
			ack.Dirty = st.dirty
		}
		l.send(ack)
		return
	}
	l.setSerial(addr, m.SN)
	ack := &msg.Message{Type: msg.RecreateAck, Dst: m.Src, Addr: addr, SN: m.SN, NoPayload: true}

	if line := l.array.Lookup(addr); line != nil {
		if hasData(line) {
			ack.NoPayload = false
			ack.Payload = line.Payload
			ack.Dirty = line.Dirty
		}
		line.Valid = false
	}
	if b := l.backups.Get(addr); b != nil {
		if ack.NoPayload || b.payload.Version > ack.Payload.Version {
			ack.NoPayload = false
			ack.Payload = b.payload
			ack.Dirty = b.dirty
		}
		b.timer.Stop()
		l.backups.Free(addr)
	}
	if bl := l.blocked[addr]; bl != nil {
		l.unblock(addr, bl)
	}
	l.recStash[addr] = &recStash{
		sn: m.SN, hasData: !ack.NoPayload, payload: ack.Payload, dirty: ack.Dirty,
	}
	l.send(ack)
	// An in-flight miss keeps retrying and will collect fresh tokens.
}

// FtTokenCMP backup handshake (same mechanism as FtDirCMP, §5).

func (l *L1) makeBackup(addr msg.Addr, payload msg.Payload, dirty bool, dest msg.NodeID, sn msg.SerialNumber) {
	b := l.backups.Get(addr)
	if b == nil {
		b = l.backups.Alloc(addr)
		b.owner = l
		b.addr = addr
		l.obs.BackupCreated("l1", l.id, addr, 0, dest)
	}
	b.payload = payload
	b.dirty = dirty
	b.dest = dest
	b.sn = sn
	l.armBackup(b)
}

func (l *L1) armBackup(b *backupEntry) {
	b.timer.Start(l.engine, l.params.BackupTimeout, backupFired, b)
}

func backupFired(arg any) {
	b := arg.(*backupEntry)
	l, addr := b.owner, b.addr
	if l.backups.Get(addr) != b {
		return
	}
	l.run.Proto.BackupTimeouts++
	l.obs.TimeoutFired("l1", l.id, addr, 0, obs.TimeoutBackup)
	l.send(&msg.Message{Type: msg.OwnershipPing, Dst: b.dest, Addr: addr, SN: b.sn})
	l.armBackup(b)
}

func lostAckBDFired(arg any) {
	b := arg.(*blockedEntry)
	l, addr := b.owner, b.addr
	if l.blocked[addr] != b {
		return
	}
	l.run.Proto.LostAckBDTimeouts++
	l.obs.TimeoutFired("l1", l.id, addr, 0, obs.TimeoutLostAckBD)
	l.obs.Reissue("l1", l.id, addr, 0, msg.AckO, b.sn, b.sn)
	l.run.Proto.AcksOSent++
	l.send(&msg.Message{Type: msg.AckO, Dst: b.ackOTo, Addr: addr, SN: b.sn})
	b.timer.Start(l.engine, l.params.LostAckBDTimeout, lostAckBDFired, b)
}

func (l *L1) handleAckO(m *msg.Message) {
	if b := l.backups.Get(m.Addr); b != nil && m.Src == b.dest {
		b.timer.Stop()
		l.backups.Free(m.Addr)
		l.obs.BackupDeleted("l1", l.id, m.Addr, 0)
	}
	l.send(&msg.Message{Type: msg.AckBD, Dst: m.Src, Addr: m.Addr, SN: m.SN})
}

func (l *L1) handleAckBD(m *msg.Message) {
	b := l.blocked[m.Addr]
	if b == nil || m.Src != b.ackOTo {
		l.run.Proto.StaleSNDiscarded++
		return
	}
	l.unblock(m.Addr, b)
	l.obs.TransactionEnd("l1", l.id, m.Addr, 0)
}

// unblock ends the blocked handshake b on addr and keeps the entry for
// reuse. Its timer is stopped and carried over: the epoch makes a firing
// left from this life dead. (An entry acceptTokens replaces is not
// reused: its timer stays armed and fires as a no-op.)
func (l *L1) unblock(addr msg.Addr, b *blockedEntry) {
	b.timer.Stop()
	delete(l.blocked, addr)
	l.spareBlocked = append(l.spareBlocked, b)
}

func (l *L1) handleOwnershipPing(m *msg.Message) {
	if line := l.array.Lookup(m.Addr); line != nil && hasOwner(line) {
		l.run.Proto.AcksOSent++
		l.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: m.Addr, SN: m.SN})
		return
	}
	if b := l.blocked[m.Addr]; b != nil && b.ackOTo == m.Src {
		l.run.Proto.AcksOSent++
		l.send(&msg.Message{Type: msg.AckO, Dst: m.Src, Addr: m.Addr, SN: b.sn})
		return
	}
	l.send(&msg.Message{Type: msg.NackO, Dst: m.Src, Addr: m.Addr, SN: m.SN})
}

// Token serial table (FtTokenCMP; empty in the base protocol).

func (l *L1) serialOf(addr msg.Addr) msg.SerialNumber {
	if !l.ft {
		return 0
	}
	return l.serials[addr]
}

func (l *L1) setSerial(addr msg.Addr, sn msg.SerialNumber) {
	if sn == 0 {
		delete(l.serials, addr)
		return
	}
	l.serials[addr] = sn
	if n := uint64(len(l.serials)); n > l.run.Proto.TokenSerialPeak {
		l.run.Proto.TokenSerialPeak = n
	}
}

func (l *L1) send(m *msg.Message) {
	pm := l.net.NewMessage()
	*pm = *m
	pm.Src = l.id
	l.net.Send(pm)
}

// InspectLines implements proto.Inspectable.
func (l *L1) InspectLines(fn func(proto.LineView)) {
	l.array.ForEach(func(c *cache.Line) {
		perm := proto.PermNone
		if c.State >= 1 && hasData(c) {
			perm = proto.PermRead
		}
		if c.State == l.totalTokens && hasData(c) {
			perm = proto.PermWrite
		}
		state := fmt.Sprintf("T%d", c.State)
		if l.mshr.Get(c.Addr) != nil {
			state += "+miss"
		} else if l.blocked[c.Addr] != nil {
			state += "+blocked"
		}
		fn(proto.LineView{
			Addr:      c.Addr,
			Perm:      perm,
			Owner:     hasOwner(c),
			Transient: l.mshr.Get(c.Addr) != nil || l.blocked[c.Addr] != nil,
			Payload:   c.Payload,
			Tokens:    c.State,
			State:     state,
		})
	})
	l.backups.ForEach(func(addr msg.Addr, b *backupEntry) {
		fn(proto.LineView{Addr: addr, Backup: true, Transient: true, Payload: b.payload,
			State: "backup", SN: b.sn})
	})
}
