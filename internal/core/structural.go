package core

import (
	"repro/internal/cache"
	"repro/internal/msg"
	"repro/internal/obs"
)

// Structural-fault recovery surface. When a tile dies, the system layer
// reconstructs the lost directory slice in one atomic flush (see
// internal/system/recovery.go): it enumerates every line the dead tile was
// involved with, computes the freshest surviving copy, writes it back to
// the home memory's store, and then drops all coherence state for those
// lines everywhere — surviving L1 misses are reissued in place toward the
// (re-homed) directory, so the system converges to a state where memory
// owns the line and outstanding requests simply refetch it.
//
// The methods here are that flush's view into each controller: enumerate
// lines (ForEachLine), find lines referencing dead nodes (RefsDead), read
// the freshest local payload (BestPayload), and drop one line's state
// (DropLine). Enumeration follows the cache array's frame order and each
// cache.Table's live-entry order: deterministic, but not address order,
// and an address held in several structures is visited once per
// structure — callers must deduplicate and sort before deriving
// simulation behaviour. The visit callbacks must not free table entries
// (see cache.Table.ForEach).

// ForEachLine visits every address this L1 holds any state for: array
// lines, misses, writebacks, backups and blocked-ownership entries.
func (l *L1) ForEachLine(visit func(msg.Addr)) {
	l.array.ForEach(func(c *cache.Line) { visit(c.Addr) })
	l.mshr.ForEach(func(addr msg.Addr, _ *l1Miss) { visit(addr) })
	l.wb.ForEach(func(addr msg.Addr, _ *l1WB) { visit(addr) })
	l.backups.ForEach(func(addr msg.Addr, _ *backupEntry) { visit(addr) })
	l.blocked.ForEach(func(addr msg.Addr, _ *blockedEntry) { visit(addr) })
}

// RefsDead visits every line whose in-flight state references a dead node:
// a backup whose transfer target died, a blocked-ownership entry whose
// backup holder died, or a miss whose data arrived from a now-dead owner.
func (l *L1) RefsDead(dead func(msg.NodeID) bool, visit func(msg.Addr)) {
	l.backups.ForEach(func(addr msg.Addr, b *backupEntry) {
		if dead(b.dest) {
			visit(addr)
		}
	})
	l.blocked.ForEach(func(addr msg.Addr, b *blockedEntry) {
		if dead(b.ackOTo) {
			visit(addr)
		}
	})
	l.mshr.ForEach(func(addr msg.Addr, e *l1Miss) {
		if e.dataArrived && dead(e.dataFrom) {
			visit(addr)
		}
	})
}

// BestPayload returns the freshest copy of addr this L1 holds, across the
// array, writeback buffer, backups and data-arrived misses.
func (l *L1) BestPayload(addr msg.Addr) (msg.Payload, bool) {
	var best msg.Payload
	ok := false
	take := func(p msg.Payload) {
		if !ok || p.Version > best.Version {
			best = p
			ok = true
		}
	}
	if line := l.array.Lookup(addr); line != nil {
		take(line.Payload)
	}
	if w := l.wb.Get(addr); w != nil {
		take(w.payload)
	}
	if b := l.backups.Get(addr); b != nil {
		take(b.payload)
	}
	if e := l.mshr.Get(addr); e != nil && e.dataArrived && !e.noPayload {
		take(e.payload)
	}
	return best, ok
}

// DropLine removes every trace of addr from this L1 except an outstanding
// miss, which is instead reissued in place toward the (re-homed) directory
// with a fresh serial number — in-flight responses to the old attempt are
// then discarded by serial number, so a pre-death response cannot
// resurrect dropped ownership.
func (l *L1) DropLine(addr msg.Addr) {
	if line := l.array.Lookup(addr); line != nil {
		line.Valid = false
	}
	l.backups.Free(addr)
	l.blocked.Free(addr) // deferred forwards die with the dead requesters
	if w := l.wb.Get(addr); w != nil {
		l.freeWB(addr, w)
	}
	if e := l.mshr.Get(addr); e != nil {
		e.sn = l.serial.Next()
		e.resend(obs.TimeoutLostRequest)
		e.arm(obs.TimeoutLostRequest)
	}
}

// ForEachLine visits every address this bank holds any state for: array
// lines and open transactions (including parked writeback payloads).
func (l *L2) ForEachLine(visit func(msg.Addr)) {
	l.array.ForEach(func(c *cache.Line) { visit(c.Addr) })
	l.trans.ForEach(func(addr msg.Addr, _ *l2Trans) { visit(addr) })
}

// RefsDead visits every line whose directory entry or open transaction
// references a dead node: a dead owner or sharer in the directory, or a
// dead requester, forward target, transfer target, backup holder, recall
// source or queued requester in a transaction.
func (l *L2) RefsDead(dead func(msg.NodeID) bool, visit func(msg.Addr)) {
	l.array.ForEach(func(c *cache.Line) {
		if c.State == L2StateM && dead(c.Owner) {
			visit(c.Addr)
			return
		}
		hit := false
		c.Sharers.ForEach(func(i int) {
			if !hit && dead(l.topo.L1FromSharerIndex(i)) {
				hit = true
			}
		})
		if hit {
			visit(c.Addr)
		}
	})
	l.trans.ForEach(func(addr msg.Addr, t *l2Trans) {
		if dead(t.req.from) || dead(t.fwdDest) || dead(t.sentDataExTo) ||
			dead(t.ackOTo) || dead(t.recallFrom) {
			visit(addr)
			return
		}
		for _, dst := range t.invTargets {
			if dead(dst) {
				visit(addr)
				return
			}
		}
		for _, q := range t.queue {
			if dead(q.from) {
				visit(addr)
				return
			}
		}
	})
}

// BestPayload returns the freshest copy of addr this bank holds, across
// the array and any transaction-parked payloads (eviction writeback data,
// recalled owner data, a parked memory fetch).
func (l *L2) BestPayload(addr msg.Addr) (msg.Payload, bool) {
	var best msg.Payload
	ok := false
	take := func(p msg.Payload) {
		if !ok || p.Version > best.Version {
			best = p
			ok = true
		}
	}
	if line := l.array.Lookup(addr); line != nil {
		take(line.Payload)
	}
	if t := l.trans.Get(addr); t != nil {
		if t.wbValid {
			take(t.wbPayload)
		}
		if t.gotData {
			take(t.recalled)
		}
		if t.owedMem {
			take(t.fetched)
		}
	}
	return best, ok
}

// DropLine removes the directory entry and open transaction for addr.
// A fetch parked on the transaction (another line's install waiting for
// this line's eviction) is rescheduled rather than discarded, so it cannot
// stall forever. External blocks are left alone: the memory side is alive
// and the AckO/AckBD handshake completes on its own.
func (l *L2) DropLine(addr msg.Addr) {
	if t := l.trans.Get(addr); t != nil {
		t.timersOff()
		t.resumeParked()
		l.trans.Free(addr)
	}
	if line := l.array.Lookup(addr); line != nil {
		line.Valid = false
	}
}

// RefsDead visits every line whose memory transaction references a dead
// node (the requesting L2 bank, in service or queued).
func (c *Mem) RefsDead(dead func(msg.NodeID) bool, visit func(msg.Addr)) {
	c.trans.ForEach(func(addr msg.Addr, t *memTrans) {
		if dead(t.req.from) {
			visit(addr)
			return
		}
		for _, q := range t.queue {
			if dead(q.from) {
				visit(addr)
				return
			}
		}
	})
}

// Reconstruct resolves addr at the memory tier: the open transaction (if
// any) is discarded, the freshest surviving payload is written to the
// store, and memory reclaims ownership — afterwards reissued requests
// refetch the line as if it had always been off-chip.
func (c *Mem) Reconstruct(addr msg.Addr, p msg.Payload) {
	c.trans.Free(addr)
	c.store.Write(addr, p)
	c.owned[addr] = false
}

// StorePayload reads the store's current copy of addr.
func (c *Mem) StorePayload(addr msg.Addr) msg.Payload { return c.store.Read(addr) }
