package token

import (
	"repro/internal/cache"
	"repro/internal/msg"
	"repro/internal/proto"
)

// Snapshots (see System.Snapshot): each node copies what Reset returns to
// its initial value into a buffer of its own and restores it from there,
// as the directory controllers do (internal/core). Records are restored in
// place, so the pointers the engine's queued events and the node's maps
// hold keep leading to them; a record built after the snapshot is simply
// dropped.

// l1Snapshot is a token L1's snapshot buffer.
type l1Snapshot struct {
	array      cache.ArraySnapshot
	mshr       cache.TableSnapshot[tokenMiss]
	backups    cache.TableSnapshot[backupEntry]
	persistent cache.MapSnapshot[msg.Addr, msg.NodeID]
	serials    cache.MapSnapshot[msg.Addr, msg.SerialNumber]
	recStash   cache.MapSnapshot[msg.Addr, *recStash] // records are never changed once built
	blocked    cache.MapSnapshot[msg.Addr, *blockedEntry]
	spare      []*blockedEntry
	blockedAll []*blockedEntry // the blocked and spare entries
	blockedVal []blockedEntry  // their values
	results    proto.DeferredSnapshot
}

func cloneTokenMiss(dst, src *tokenMiss) {
	*dst = *src
	dst.waiters = nil
	if len(src.waiters) > 0 { // waiter slices are never reused (see the L1's reset hooks)
		dst.waiters = append([]proto.Access(nil), src.waiters...)
	}
}

// Snapshot copies the controller's state (its tables, frames, persistent,
// serial, recreation and blocked-handshake records and deferred results)
// into its snapshot buffer, for Restore.
func (l *L1) Snapshot() {
	if l.snap == nil {
		l.snap = new(l1Snapshot)
	}
	s := l.snap
	l.array.Snapshot(&s.array)
	l.mshr.Snapshot(&s.mshr, cloneTokenMiss)
	l.backups.Snapshot(&s.backups, nil)
	s.persistent.Take(l.persistent)
	s.serials.Take(l.serials)
	s.recStash.Take(l.recStash)
	s.blocked.Take(l.blocked)
	s.spare = append(s.spare[:0], l.spareBlocked...)
	s.blockedAll = append(s.blockedAll[:0], l.spareBlocked...)
	for _, b := range l.blocked {
		s.blockedAll = append(s.blockedAll, b)
	}
	s.blockedVal = s.blockedVal[:0]
	for _, b := range s.blockedAll {
		s.blockedVal = append(s.blockedVal, *b)
	}
	l.results.Snapshot(&s.results)
}

// Restore returns the controller to its last Snapshot.
func (l *L1) Restore() {
	s := l.snap
	l.array.Restore(&s.array)
	l.mshr.Restore(&s.mshr, cloneTokenMiss)
	l.backups.Restore(&s.backups, nil)
	s.persistent.Restore(l.persistent)
	s.serials.Restore(l.serials)
	s.recStash.Restore(l.recStash)
	s.blocked.Restore(l.blocked)
	l.spareBlocked = append(l.spareBlocked[:0], s.spare...)
	for i, b := range s.blockedAll {
		*b = s.blockedVal[i]
	}
	l.results.Restore(&s.results)
}

// homeSnapshot is a home node's snapshot buffer.
type homeSnapshot struct {
	lines cache.MapSnapshot[msg.Addr, *homeLine]
	spare []*homeLine
	all   []*homeLine // the line and spare records
	vals  []homeLine  // their values, queues copied
}

// Snapshot copies the home node's line records and spare records into its
// snapshot buffer, for Restore.
func (h *Home) Snapshot() {
	if h.snap == nil {
		h.snap = new(homeSnapshot)
	}
	s := h.snap
	s.lines.Take(h.lines)
	s.spare = append(s.spare[:0], h.spare...)
	s.all = append(s.all[:0], h.spare...)
	for _, ln := range h.lines {
		s.all = append(s.all, ln)
	}
	if n := len(s.all); cap(s.vals) < n {
		s.vals = append(s.vals[:cap(s.vals)], make([]homeLine, n-cap(s.vals))...)
	}
	s.vals = s.vals[:len(s.all)]
	for i, ln := range s.all {
		copyHomeLine(&s.vals[i], ln)
	}
}

// Restore returns the home node to its last Snapshot.
func (h *Home) Restore() {
	s := h.snap
	s.lines.Restore(h.lines)
	h.spare = append(h.spare[:0], s.spare...)
	for i, ln := range s.all {
		copyHomeLine(ln, &s.vals[i])
	}
}

// copyHomeLine copies src into dst, the persistent-request queue into
// dst's own storage.
func copyHomeLine(dst, src *homeLine) {
	q := dst.queue[:0]
	*dst = *src
	dst.queue = append(q, src.queue...)
}
