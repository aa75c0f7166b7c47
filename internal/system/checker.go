package system

import (
	"cmp"
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
	// All views go into one flat slice sorted by address (grouping runs
	// afterwards), not a map of per-address slices: the flat slice grows
	// geometrically, while the map costs an allocation per address. Each
	// view remembers its collection index, and the in-place sort orders by
	// (address, index): a unique key, so it yields exactly the order a
	// stable sort by address would, which keeps error messages
	// deterministic, without a stable sort's O(n log² n) swaps.
	// Dead agents are excluded: their state froze mid-transaction at the
	// death instant, and the reconstruction flush re-established the
	// invariants over the survivors alone.
	//
	// The slice is System scratch, as memoryImage's is: a reset system
	// checks each terminal state without allocating. A fresh system counts
	// the views first and allocates the slice once at that size.
	if s.views == nil {
		n := 0
		s.inspectLive(func(proto.LineView) { n++ })
		s.views = make([]agentView, 0, n)
	}
	s.views = s.views[:0]
	s.inspectLive(s.viewLine)
	expectTokens := 0
	if s.cfg.Protocol.tokenBased() {
		expectTokens = s.topo.Tiles
	}
	return checkViews(s.topo, s.views, expectTokens)
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

// checkViews sorts views (in collection order, ord = index) by line and
// checks each line's group, returning one error per violated line in
// address order.
func checkViews(topo proto.Topology, views []agentView, expectTokens int) []error {
	slices.SortFunc(views, func(a, b agentView) int {
		if c := cmp.Compare(a.v.Addr, b.v.Addr); c != 0 {
			return c
		}
		return cmp.Compare(a.ord, b.ord)
	})
	var errs []error
	for start := 0; start < len(views); {
		addr := views[start].v.Addr
		end := start
		for end < len(views) && views[end].v.Addr == addr {
			end++
		}
		vs := views[start:end]
		start = end
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

// checkTokens enforces token conservation at quiescence: every line's
// tokens sum to exactly T and exactly one agent holds the owner token.
func checkTokens(addr msg.Addr, vs []agentView, expect int) error {
	if expect == 0 {
		return nil
	}
	total, owners := 0, 0
	for _, av := range vs {
		total += av.v.Tokens
		if av.v.Owner {
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
				vs = append(vs, agentView{node: int32(id), v: v})
			}
		})
	}
	for _, av := range vs {
		if av.v.Transient {
			return nil
		}
	}
	return checkLine(s.topo, addr, vs, false)
}

// agentView is one agent's view of a line. node and ord are 32-bit so the
// view stays 80 bytes, the size the sort moves per swap.
type agentView struct {
	node int32 // the agent's msg.NodeID
	ord  int32 // collection order, the sort's tie-break
	v    proto.LineView
}

func checkLine(topo proto.Topology, addr msg.Addr, vs []agentView, quiescent bool) error {
	writers, owners := 0, 0
	chipBackups, memBackups := 0, 0
	readers := 0
	var ownerVersion uint64
	var maxVersion uint64
	for _, av := range vs {
		switch av.v.Perm {
		case proto.PermWrite:
			writers++
			readers++
		case proto.PermRead:
			readers++
		}
		if av.v.Owner {
			owners++
			if av.v.Payload.Version > ownerVersion {
				ownerVersion = av.v.Payload.Version
			}
		}
		if av.v.Backup {
			if topo.IsMem(msg.NodeID(av.node)) {
				memBackups++
			} else {
				chipBackups++
			}
		}
		if av.v.Payload.Version > maxVersion {
			maxVersion = av.v.Payload.Version
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
			if av.v.Perm != proto.PermNone && av.v.Payload.Version != ownerVersion {
				return fmt.Errorf("line %#x: node %d holds stale v%d, owner has v%d",
					addr, av.node, av.v.Payload.Version, ownerVersion)
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
			av.node, av.v.Perm, av.v.Owner, av.v.Backup, av.v.Transient, av.v.Payload.Version)
	}
	return out
}
