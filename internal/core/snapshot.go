package core

import (
	"repro/internal/cache"
	"repro/internal/msg"
	"repro/internal/proto"
)

// Snapshots (see System.Snapshot): each controller copies what Reset
// returns to its initial value into a buffer of its own and restores it
// from there. A record's timers, owner and prepared callbacks copy by
// value: a snapshot is only restored into the controller that took it,
// where every pointer still leads to the same object. The clone functions
// copy a record's slices into storage of the destination's own, so a
// restored record never shares a backing array with the snapshot.

// ctrlSnapshot is the controller base's share: the serial counter, the TID
// source and the halt flag.
type ctrlSnapshot struct {
	serial msg.SerialSpace
	tids   proto.TIDSource
	halted bool
}

func (c *ctrl) snapshot(s *ctrlSnapshot) {
	if c.serial != nil {
		s.serial = *c.serial
	}
	s.tids, s.halted = c.tids, c.halted
}

func (c *ctrl) restore(s *ctrlSnapshot) {
	if c.serial != nil {
		*c.serial = s.serial
	}
	c.tids, c.halted = s.tids, s.halted
}

// cloneAccesses copies a waiter list into new storage: waiter slices are
// never reused (see the L1's reset hooks).
func cloneAccesses(src []proto.Access) []proto.Access {
	if len(src) == 0 {
		return nil
	}
	return append([]proto.Access(nil), src...)
}

func cloneL1Miss(dst, src *l1Miss) {
	sn := dst.snHistory[:0]
	*dst = *src
	dst.snHistory = append(sn, src.snHistory...)
	dst.waiters = cloneAccesses(src.waiters)
}

func cloneL1WB(dst, src *l1WB) {
	*dst = *src
	dst.waiters = cloneAccesses(src.waiters)
}

func cloneBlocked(dst, src *blockedEntry) {
	d := dst.deferred[:0]
	*dst = *src
	dst.deferred = append(d, src.deferred...)
}

func cloneL2Trans(dst, src *l2Trans) {
	q, inv := dst.queue[:0], dst.invTargets[:0]
	*dst = *src
	dst.queue = append(q, src.queue...)
	dst.invTargets = append(inv, src.invTargets...)
}

func cloneMemTrans(dst, src *memTrans) {
	q := dst.queue[:0]
	*dst = *src
	dst.queue = append(q, src.queue...)
}

// l1Snapshot is an L1's snapshot buffer.
type l1Snapshot struct {
	ctrl    ctrlSnapshot
	array   cache.ArraySnapshot
	mshr    cache.TableSnapshot[l1Miss]
	wb      cache.TableSnapshot[l1WB]
	backups cache.TableSnapshot[backupEntry]
	blocked cache.TableSnapshot[blockedEntry]
	results proto.DeferredSnapshot
}

// Snapshot copies the controller's state (Reset's list: the tables with
// every entry's value, the cache frames, the deferred results, the serial
// space and TID source) into its snapshot buffer, for Restore.
func (l *L1) Snapshot() {
	if l.snap == nil {
		l.snap = new(l1Snapshot)
	}
	s := l.snap
	l.ctrl.snapshot(&s.ctrl)
	l.array.Snapshot(&s.array)
	l.mshr.Snapshot(&s.mshr, cloneL1Miss)
	l.wb.Snapshot(&s.wb, cloneL1WB)
	l.backups.Snapshot(&s.backups, nil)
	l.blocked.Snapshot(&s.blocked, cloneBlocked)
	l.results.Snapshot(&s.results)
}

// Restore returns the controller to its last Snapshot.
func (l *L1) Restore() {
	s := l.snap
	l.ctrl.restore(&s.ctrl)
	l.array.Restore(&s.array)
	l.mshr.Restore(&s.mshr, cloneL1Miss)
	l.wb.Restore(&s.wb, cloneL1WB)
	l.backups.Restore(&s.backups, nil)
	l.blocked.Restore(&s.blocked, cloneBlocked)
	l.results.Restore(&s.results)
}

// l2Snapshot is an L2 bank's snapshot buffer.
type l2Snapshot struct {
	ctrl  ctrlSnapshot
	array cache.ArraySnapshot
	trans cache.TableSnapshot[l2Trans]
	ext   cache.TableSnapshot[extBlock]
	mig   cache.MapSnapshot[msg.Addr, migInfo]
}

// Snapshot copies the bank's state (its tables, frames, migratory
// detector, serial space and TID source) into its snapshot buffer.
func (l *L2) Snapshot() {
	if l.snap == nil {
		l.snap = new(l2Snapshot)
	}
	s := l.snap
	l.ctrl.snapshot(&s.ctrl)
	l.array.Snapshot(&s.array)
	l.trans.Snapshot(&s.trans, cloneL2Trans)
	l.ext.Snapshot(&s.ext, nil)
	s.mig.Take(l.mig)
}

// Restore returns the bank to its last Snapshot.
func (l *L2) Restore() {
	s := l.snap
	l.ctrl.restore(&s.ctrl)
	l.array.Restore(&s.array)
	l.trans.Restore(&s.trans, cloneL2Trans)
	l.ext.Restore(&s.ext, nil)
	s.mig.Restore(l.mig)
}

// memSnapshot is a memory controller's snapshot buffer.
type memSnapshot struct {
	ctrl  ctrlSnapshot
	trans cache.TableSnapshot[memTrans]
	owned cache.MapSnapshot[msg.Addr, bool]
}

// Snapshot copies the controller's transactions, on-chip ownership set and
// serial space into its snapshot buffer. The store is the system's.
func (c *Mem) Snapshot() {
	if c.snap == nil {
		c.snap = new(memSnapshot)
	}
	s := c.snap
	c.ctrl.snapshot(&s.ctrl)
	c.trans.Snapshot(&s.trans, cloneMemTrans)
	s.owned.Take(c.owned)
}

// Restore returns the controller to its last Snapshot.
func (c *Mem) Restore() {
	s := c.snap
	c.ctrl.restore(&s.ctrl)
	c.trans.Restore(&s.trans, cloneMemTrans)
	s.owned.Restore(c.owned)
}
