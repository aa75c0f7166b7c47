package system

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/proto"
)

// Structural-fault orchestration: arming TileDeath/LinkDeath injectors,
// killing the victim tile at the injection instant, and — for FtDirCMP —
// reconstructing the lost directory slice once the survivors declare the
// tile dead.
//
// The recovery model follows the paper's fault philosophy: detection reuses
// the Table-3 timeout machinery (a timeout whose counterpart is dead becomes
// a declaration instead of another reissue; see proto.Domains), and repair
// runs at the home/memory tier. The flush enumerates every line the dead
// tile was involved with, picks the freshest surviving copy (owner data,
// backups, parked writebacks, in-flight captures — whatever the paper's
// reliable-ownership-transference discipline kept alive), writes it back to
// the home memory which reclaims ownership, and drops all surviving
// coherence state for those lines; outstanding survivor misses are reissued
// in place with fresh serial numbers toward the re-homed directory
// (Domains.HomeL2 probes over dead banks). A line whose freshest copy died
// with the tile is unrecoverable: it is rolled back to the freshest
// surviving version, counted, and reported — never silently lost.

// RecoveryReport summarizes one run's structural-fault recovery.
type RecoveryReport struct {
	// TileDeath reports whether a tile death fired; DeadTile is the victim
	// and DeathCycle the injection instant.
	TileDeath  bool
	DeadTile   int
	DeathCycle uint64
	// Declared reports whether survivors declared the tile dead (through a
	// timeout, or by fiat at end of run), at DeclaredCycle.
	Declared      bool
	DeclaredCycle uint64
	// ReconstructedCycle is when the directory reconstruction flush ran;
	// LinesReconstructed how many lines it re-homed. LinesUnrecoverable of
	// them (listed in UnrecoverableAddrs, ascending) lost committed writes
	// with the dead tile and were rolled back to the freshest surviving
	// version.
	ReconstructedCycle uint64
	LinesReconstructed int
	LinesUnrecoverable int
	UnrecoverableAddrs []msg.Addr
}

// Recovery returns the structural-fault recovery report (zero when no
// structural fault was armed or none fired).
func (s *System) Recovery() RecoveryReport { return s.recovery }

// structuralFaults walks an injector (descending into Chains) and collects
// the structural faults that need system-level arming.
func structuralFaults(in fault.Injector) (tds []*fault.TileDeath, lds []*fault.LinkDeath) {
	var walk func(fault.Injector)
	walk = func(in fault.Injector) {
		switch v := in.(type) {
		case *fault.TileDeath:
			tds = append(tds, v)
		case *fault.LinkDeath:
			lds = append(lds, v)
		case *fault.Chain:
			for _, inner := range v.Injectors() {
				walk(inner)
			}
		}
	}
	if in != nil {
		walk(in)
	}
	return tds, lds
}

// structural reports whether an injector is, or chains, a structural fault.
func structural(in fault.Injector) bool {
	tds, lds := structuralFaults(in)
	return len(tds)+len(lds) > 0
}

// armStructural wires any structural-fault injectors to the system: the
// victim node sets, the kill callbacks, and (for FtDirCMP) the failure
// detector and reconstruction trigger.
func (s *System) armStructural() error {
	tds, lds := structuralFaults(s.cfg.Injector)

	for _, ld := range lds {
		a, b := ld.Link()
		if !s.net.Adjacent(a, b) {
			return fmt.Errorf("system: link death %d-%d: routers are not adjacent in a %dx%d mesh",
				a, b, s.cfg.MeshWidth, s.cfg.MeshHeight)
		}
		link := uint64(a)<<32 | uint64(b)
		ld.Arm(func() { s.engine.ScheduleCall(0, killLinkEvent, s, link) })
	}

	if len(tds) == 0 {
		return nil
	}
	if len(tds) > 1 {
		return fmt.Errorf("system: at most one tile death per run (got %d)", len(tds))
	}
	td := tds[0]
	if s.cfg.Protocol.tokenBased() {
		return fmt.Errorf("system: tile death requires a directory protocol, not %v", s.cfg.Protocol)
	}
	t := td.Tile()
	if t < 0 || t >= s.cfg.Tiles() {
		return fmt.Errorf("system: tile death victim %d out of range [0,%d)", t, s.cfg.Tiles())
	}
	s.tileDeath = td
	s.deadTile = t
	s.deadNodes = map[msg.NodeID]bool{s.topo.L1(t): true, s.topo.L2(t): true}

	if s.cfg.Protocol == FtDirCMP {
		s.domains = proto.NewDomains(s.topo, func(tile int) {
			s.recovery.Declared = true
			s.recovery.DeclaredCycle = s.engine.Now()
			s.engine.ScheduleCall(0, reconstructEvent, s, 0)
		})
		for _, l1 := range s.l1s {
			l1.SetDomains(s.domains)
		}
		for _, l2 := range s.l2s {
			l2.SetDomains(s.domains)
		}
		for _, m := range s.memByID {
			m.SetDomains(s.domains)
		}
	}
	td.Arm([]msg.NodeID{s.topo.L1(t), s.topo.L2(t)}, func() {
		// Fired synchronously from inside a network Send; the kill runs as
		// its own event so the in-progress handler finishes undisturbed.
		s.engine.ScheduleCall(0, killTileEvent, s, 0)
	})
	return nil
}

// The structural-fault events: arg is the *System; a link kill's tick
// packs the two routers, a<<32 | b.
func killLinkEvent(arg any, link uint64) {
	arg.(*System).net.KillLink(int(link>>32), int(uint32(link)))
}
func reconstructEvent(arg any, _ uint64) { arg.(*System).reconstruct() }
func killTileEvent(arg any, _ uint64)    { arg.(*System).killTile() }

// killTile takes the armed tile death's effect at the injection cycle: the
// victim core stops issuing, the victim controllers halt (FtDirCMP; DirCMP
// controllers are event-driven and already silenced by the injector), and
// ground truth is recorded for the failure detector.
func (s *System) killTile() {
	t := s.deadTile
	s.recovery.TileDeath = true
	s.recovery.DeadTile = t
	s.recovery.DeathCycle = s.engine.Now()
	s.probeOff = true
	if t < len(s.cores) {
		s.cores[t].Kill()
	}
	if s.cfg.Protocol == FtDirCMP {
		s.l1s[t].Halt()
		s.l2s[t].Halt()
		s.domains.Kill(t)
	}
	s.cfg.Obs.TileDeath(s.topo.L2(t))
}

// reconstruct is the directory reconstruction flush, scheduled (once) the
// moment survivors declare the dead tile. Everything happens atomically in
// one event; addresses are sorted before any action so the result is
// independent of map iteration order.
func (s *System) reconstruct() {
	if s.reconstructed || s.cfg.Protocol != FtDirCMP {
		return
	}
	s.reconstructed = true
	t := s.deadTile
	deadL1, deadL2 := s.topo.L1(t), s.topo.L2(t)
	dead := func(id msg.NodeID) bool { return id == deadL1 || id == deadL2 }

	// Pass 1: enumerate every line the dead tile was involved with — all
	// lines the dead controllers held state for, all survivor lines whose
	// state references a dead node, and all survivor-held lines homed at the
	// dead bank (their directory entries died with it).
	set := make(map[msg.Addr]bool)
	add := func(a msg.Addr) { set[a] = true }
	homeScan := func(a msg.Addr) {
		if s.topo.HomeL2(a) == deadL2 {
			set[a] = true
		}
	}
	s.l1s[t].ForEachLine(add)
	s.l2s[t].ForEachLine(add)
	for i, l1 := range s.l1s {
		if i == t {
			continue
		}
		l1.RefsDead(dead, add)
		l1.ForEachLine(homeScan)
	}
	for i, l2 := range s.l2s {
		if i == t {
			continue
		}
		l2.RefsDead(dead, add)
		l2.ForEachLine(homeScan)
	}
	for _, m := range s.memByID {
		m.RefsDead(dead, add)
	}
	addrs := make([]msg.Addr, 0, len(set))
	for a := range set {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	// Pass 2: per line — freshest surviving copy to memory first (so a
	// reissued request can never refetch a stale pre-death image), then drop
	// all surviving coherence state; L1.DropLine reissues outstanding misses
	// toward the re-homed directory under fresh serial numbers.
	for _, a := range addrs {
		home := s.memByID[s.topo.HomeMem(a)]
		best := home.StorePayload(a)
		for i, l1 := range s.l1s {
			if i == t {
				continue
			}
			if p, ok := l1.BestPayload(a); ok && p.Version > best.Version {
				best = p
			}
		}
		for i, l2 := range s.l2s {
			if i == t {
				continue
			}
			if p, ok := l2.BestPayload(a); ok && p.Version > best.Version {
				best = p
			}
		}
		var deadMax uint64
		if p, ok := s.l1s[t].BestPayload(a); ok && p.Version > deadMax {
			deadMax = p.Version
		}
		if p, ok := s.l2s[t].BestPayload(a); ok && p.Version > deadMax {
			deadMax = p.Version
		}
		if deadMax > best.Version {
			s.recovery.LinesUnrecoverable++
			s.recovery.UnrecoverableAddrs = append(s.recovery.UnrecoverableAddrs, a)
			if s.integrity != nil {
				s.integrity.AllowRegression(a, best.Version)
			}
		}
		home.Reconstruct(a, best)
		for i, l2 := range s.l2s {
			if i != t {
				l2.DropLine(a)
			}
		}
		for i, l1 := range s.l1s {
			if i != t {
				l1.DropLine(a)
			}
		}
		s.recovery.LinesReconstructed++
	}
	s.recovery.ReconstructedCycle = s.engine.Now()
	s.cfg.Obs.Reconstructed(deadL2, s.recovery.LinesReconstructed,
		s.recovery.LinesUnrecoverable, s.engine.Now()-s.recovery.DeathCycle)
}
