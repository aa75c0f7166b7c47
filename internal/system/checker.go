package system

import (
	"fmt"
	"slices"

	"repro/internal/msg"
	"repro/internal/proto"
)

// CheckCoherence verifies the protocol's structural invariants over the
// quiescent system state:
//
//   - SWMR: if any cache holds write permission for a line, no other cache
//     holds any permission for it.
//   - Single owner: exactly one agent (an L1, an L2 bank, or memory)
//     considers itself responsible for the line's data.
//   - Backup discipline (FtDirCMP): at quiescence no backups remain; while
//     running, at most one backup exists per line and owner+backup >= 1
//     (use CheckLine for mid-run checks on non-transient lines).
//   - Version agreement: every readable copy of a line carries the same
//     version as the owner (no stale copies).
//
// It returns one error per violated line.
func (s *System) CheckCoherence() []error {
	// All views go into one flat slice, not a map of per-address slices:
	// the flat slice grows geometrically, while the map costs an
	// allocation per address. lineGroups then groups it by line in place
	// (see group), in exactly the order a stable sort by address would
	// give, which keeps error messages deterministic.
	// Dead agents are excluded: their state froze mid-transaction at the
	// death instant, and the reconstruction flush re-established the
	// invariants over the survivors alone.
	//
	// The slices are System scratch, as memoryImage's is: a reset system
	// checks each terminal state without allocating. A fresh system counts
	// the views first and allocates the view and address slices once at
	// that size.
	if s.views == nil {
		n := 0
		s.inspectLive(func(proto.LineView) { n++ })
		s.views = make([]agentView, 0, n)
		s.groups.addrs = make([]msg.Addr, 0, n)
	}
	s.views = s.views[:0]
	s.inspectLive(s.viewLine)
	expectTokens := 0
	if s.cfg.Protocol.tokenBased() {
		expectTokens = s.topo.Tiles
	}
	return checkViews(s.topo, s.views, &s.groups, expectTokens)
}

// inspectLive calls fn for every line view of every agent not dead, with
// viewNode naming the agent.
func (s *System) inspectLive(fn func(proto.LineView)) {
	for _, a := range s.agents {
		id := a.NodeID()
		if s.deadNodes[id] {
			continue
		}
		s.viewNode = int32(id)
		a.InspectLines(fn)
	}
}

// checkViews groups views (in collection order) by line with g and checks
// each line's group, returning one error per violated line in address
// order.
func checkViews(topo proto.Topology, views []agentView, g *lineGroups, expectTokens int) []error {
	g.group(views)
	var errs []error
	start := int32(0)
	for r, addr := range g.addrs {
		vs := views[start:g.ends[r]]
		start = g.ends[r]
		if err := checkLine(topo, addr, vs, true); err != nil {
			errs = append(errs, err)
			continue
		}
		if err := checkTokens(addr, vs, expectTokens); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// lineGroups is the scratch checkViews groups views with: after group,
// addrs holds the distinct lines in address order, and line r's views are
// views[ends[r-1]:ends[r]] (from 0 for the first line).
type lineGroups struct {
	addrs []msg.Addr
	ends  []int32
}

// group reorders views so each line's views are contiguous, the lines in
// address order and each line's views in collection order: the order a
// stable sort by address gives. It sorts only the addresses; the views,
// 80 bytes each, move once. A counting pass over the lines sizes each
// line's group, and each view's dest field then names its place, so the
// permutation is applied in place, a cycle at a time.
func (g *lineGroups) group(views []agentView) {
	g.addrs = g.addrs[:0]
	for i := range views {
		g.addrs = append(g.addrs, views[i].addr)
	}
	slices.Sort(g.addrs)
	g.addrs = slices.Compact(g.addrs)
	g.ends = append(g.ends[:0], make([]int32, len(g.addrs))...)
	for i := range views {
		r, _ := slices.BinarySearch(g.addrs, views[i].addr)
		views[i].dest = int32(r)
		g.ends[r]++
	}
	var start int32
	for r, n := range g.ends {
		g.ends[r] = start
		start += n
	}
	for i := range views {
		r := views[i].dest
		views[i].dest = g.ends[r]
		g.ends[r]++
	}
	for i := range views {
		for d := views[i].dest; d != int32(i); d = views[i].dest {
			views[i], views[d] = views[d], views[i]
		}
	}
}

// checkTokens enforces token conservation at quiescence: every line's
// tokens sum to exactly T and exactly one agent holds the owner token.
func checkTokens(addr msg.Addr, vs []agentView, expect int) error {
	if expect == 0 {
		return nil
	}
	total, owners := 0, 0
	for _, av := range vs {
		total += int(av.tokens)
		if av.owner {
			owners++
		}
	}
	if total != expect {
		return fmt.Errorf("line %#x: %d tokens in the system, want %d: %v",
			addr, total, expect, describe(vs))
	}
	if owners != 1 {
		return fmt.Errorf("line %#x: %d owner tokens: %v", addr, owners, describe(vs))
	}
	return nil
}

// CheckLine validates one line's views mid-run; transient lines are
// skipped (their state is in flight by definition).
func (s *System) CheckLine(addr msg.Addr) error {
	var vs []agentView
	for _, a := range s.agents {
		id := a.NodeID()
		if s.deadNodes[id] {
			continue
		}
		a.InspectLines(func(v proto.LineView) {
			if v.Addr == addr {
				vs = append(vs, viewOf(int32(id), v))
			}
		})
	}
	for _, av := range vs {
		if av.transient {
			return nil
		}
	}
	return checkLine(s.topo, addr, vs, false)
}

// agentView is what the checks read of one agent's view of a line, packed
// into 40 bytes: grouping moves whole views, and a fresh system allocates
// one for every copy of a line it checks. The diagnostic fields of
// proto.LineView (State, SN) stay behind.
type agentView struct {
	addr    msg.Addr
	version uint64
	perm    proto.Permission
	tokens  int32
	node    int32 // the agent's msg.NodeID
	dest    int32 // grouping scratch: the view's line rank, then its place

	owner, backup, transient bool
}

// viewOf packs agent node's view v.
func viewOf(node int32, v proto.LineView) agentView {
	return agentView{
		addr: v.Addr, version: v.Payload.Version, perm: v.Perm, tokens: int32(v.Tokens), node: node,
		owner: v.Owner, backup: v.Backup, transient: v.Transient,
	}
}

func checkLine(topo proto.Topology, addr msg.Addr, vs []agentView, quiescent bool) error {
	writers, owners := 0, 0
	chipBackups, memBackups := 0, 0
	readers := 0
	var ownerVersion uint64
	var maxVersion uint64
	for _, av := range vs {
		switch av.perm {
		case proto.PermWrite:
			writers++
			readers++
		case proto.PermRead:
			readers++
		}
		if av.owner {
			owners++
			if av.version > ownerVersion {
				ownerVersion = av.version
			}
		}
		if av.backup {
			if topo.IsMem(msg.NodeID(av.node)) {
				memBackups++
			} else {
				chipBackups++
			}
		}
		if av.version > maxVersion {
			maxVersion = av.version
		}
	}
	backups := chipBackups + memBackups
	if writers > 1 {
		return fmt.Errorf("line %#x: %d caches hold write permission (SWMR violated): %v",
			addr, writers, describe(vs))
	}
	if writers == 1 && readers > 1 {
		return fmt.Errorf("line %#x: a writer coexists with other readers: %v", addr, describe(vs))
	}
	if owners > 1 {
		return fmt.Errorf("line %#x: %d owners: %v", addr, owners, describe(vs))
	}
	if owners+backups == 0 {
		return fmt.Errorf("line %#x: no owner and no backup: %v", addr, describe(vs))
	}
	// §3.1.1: at most one backup off-chip and at most one in the chip.
	if chipBackups > 1 || memBackups > 1 {
		return fmt.Errorf("line %#x: %d chip backups, %d memory backups: %v",
			addr, chipBackups, memBackups, describe(vs))
	}
	if quiescent {
		if backups != 0 {
			return fmt.Errorf("line %#x: backup survives quiescence: %v", addr, describe(vs))
		}
		if owners == 1 && ownerVersion < maxVersion {
			return fmt.Errorf("line %#x: owner at v%d but a copy is at v%d: %v",
				addr, ownerVersion, maxVersion, describe(vs))
		}
		// Readable copies must match the owner's version.
		for _, av := range vs {
			if av.perm != proto.PermNone && av.version != ownerVersion {
				return fmt.Errorf("line %#x: node %d holds stale v%d, owner has v%d",
					addr, av.node, av.version, ownerVersion)
			}
		}
	}
	return nil
}

func describe(vs []agentView) string {
	out := ""
	for i, av := range vs {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("node %d{perm=%d owner=%t backup=%t trans=%t v%d}",
			av.node, av.perm, av.owner, av.backup, av.transient, av.version)
	}
	return out
}
