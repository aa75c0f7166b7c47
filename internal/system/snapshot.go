package system

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/memctrl"
	"repro/internal/msg"
	"repro/internal/stats"
)

// System snapshots. The model checker expands an explored state into each
// of its successors by taking one decision, restoring the state and taking
// the next (internal/mc). Snapshot copies every piece of state Reset
// returns to its initial value, layer by layer, each into a buffer of its
// own, and Restore copies it back into the same objects, in place; only
// the engine's insertion sequence and the arrays' LRU clocks, which just
// order events and touches, keep rising. A
// snapshot is only ever restored into the system that took it, so every
// pointer it holds — a queued event's handler and argument, a timer's,
// a table's entries, a core's callbacks — still leads where it did.

// ErrNoSnapshot is Restore's error on a system with no snapshot taken since
// it was built or last reset.
var ErrNoSnapshot = errors.New("system: no snapshot to restore")

// snapshot is the system's own share of a snapshot: the store, the
// statistics, the oracle, the cores and the fields reset clears. The
// agents, the network and the engine keep their shares themselves.
type snapshot struct {
	taken      bool // since the last reset
	store      memctrl.StoreSnapshot
	run        stats.RunSnapshot
	integrity  integritySnapshot
	cores      []Core // the cores' values
	finished   int
	midRunErrs []error
}

// Snapshot records the system's whole mutable state, replacing any earlier
// snapshot, so that Restore can return to it any number of times. Take it
// between engine runs: after Begin, at a chooser's halt, at a drained
// queue. It allocates only to grow its buffers, which later snapshots
// reuse.
//
// Snapshot refuses the systems it cannot roll back and leaves them as they
// were: one with a fault injector, whose drop decisions are the
// injector's own state (and a structural fault's wiring is New's), one
// with an event recorder (cfg.Obs or cfg.ExtraRecorder), whose output has
// already left for its consumer, and one whose network runs the detailed
// router model or has a dead link. The explorer sets none of these.
func (s *System) Snapshot() error {
	switch {
	case s.cfg.Injector != nil:
		return fmt.Errorf("system: cannot snapshot a system with a fault injector (%s)", s.cfg.Injector.Description())
	case s.cfg.Obs != nil:
		return errors.New("system: cannot snapshot a system with an event recorder")
	case s.cfg.ExtraRecorder != nil:
		return errors.New("system: cannot snapshot a system with an extra network recorder")
	}
	if err := s.net.Snapshot(); err != nil {
		return err
	}
	for _, a := range s.agents {
		a.Snapshot()
	}
	if s.snap == nil {
		s.snap = new(snapshot)
	}
	p := s.snap
	s.store.Snapshot(&p.store)
	s.run.Snapshot(&p.run)
	if s.integrity != nil {
		s.integrity.snapshot(&p.integrity)
	}
	p.cores = p.cores[:0]
	for _, c := range s.cores {
		p.cores = append(p.cores, *c)
	}
	p.finished = s.finished
	p.midRunErrs = s.midRunErrs[:len(s.midRunErrs):len(s.midRunErrs)]
	s.engine.Snapshot()
	p.taken = true
	return nil
}

// Restore returns the system to its last Snapshot, taken since it was
// built or last reset (ErrNoSnapshot otherwise): every event queued since
// is discarded without firing, and the next engine run continues exactly
// as it did from the snapshot. The controllers go first, then the network,
// then the engine, for the reason reset gives. The process-wide PoolStats
// and HeapStats counts are not rolled back.
func (s *System) Restore() error {
	p := s.snap
	if p == nil || !p.taken {
		return ErrNoSnapshot
	}
	for _, a := range s.agents {
		a.Restore()
	}
	s.store.Restore(&p.store)
	s.run.Restore(&p.run)
	if s.integrity != nil {
		s.integrity.restore(&p.integrity)
	}
	s.cores = s.cores[:len(p.cores)]
	for i, c := range s.cores {
		*c = p.cores[i]
	}
	s.finished = p.finished
	s.midRunErrs = p.midRunErrs
	s.net.Restore()
	s.engine.Restore()
	return nil
}

// integritySnapshot is the oracle's share of a snapshot.
type integritySnapshot struct {
	slotOf  cache.MapSnapshot[msg.Addr, int32]
	lines   []lineRecord
	history []commit
	floors  []uint64
	errs    []string
}

func (g *Integrity) snapshot(s *integritySnapshot) {
	s.slotOf.Take(g.slotOf)
	s.lines = g.lines.appendTo(s.lines[:0])
	s.history = g.history.appendTo(s.history[:0])
	s.floors = g.floors.appendTo(s.floors[:0])
	// The oracle only appends to errs, so the snapshot may share them.
	s.errs = g.errs[:len(g.errs):len(g.errs)]
}

func (g *Integrity) restore(s *integritySnapshot) {
	s.slotOf.Restore(g.slotOf)
	g.lines.restore(s.lines)
	g.history.restore(s.history)
	g.floors.restore(s.floors)
	g.errs = s.errs
}

// appendTo appends the sequence's elements to dst and returns the result.
func (p *paged[T]) appendTo(dst []T) []T {
	for i := int32(0); i < p.n; i++ {
		dst = append(dst, *p.at(i))
	}
	return dst
}

// restore makes the sequence hold exactly src, which appendTo built from
// it since its last truncation: the pages it fills are still there.
func (p *paged[T]) restore(src []T) {
	for i := range src {
		*p.at(int32(i)) = src[i]
	}
	p.n = int32(len(src))
}
