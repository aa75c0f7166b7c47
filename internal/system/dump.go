package system

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/msg"
	"repro/internal/proto"
)

// DumpStuck renders the cores that have not finished and every line with
// in-flight state, for diagnosing deadlocks and livelocks.
func (s *System) DumpStuck() string {
	var b strings.Builder
	for i, c := range s.cores {
		if !c.Done() {
			fmt.Fprintf(&b, "core %d stuck: %d ops completed\n", i, c.Completed())
		}
	}
	type tv struct {
		node msg.NodeID
		v    proto.LineView
	}
	byAddr := make(map[msg.Addr][]tv)
	for _, a := range s.agents {
		id := a.NodeID()
		a.InspectLines(func(v proto.LineView) {
			if v.Transient {
				byAddr[v.Addr] = append(byAddr[v.Addr], tv{id, v})
			}
		})
	}
	addrs := make([]msg.Addr, 0, len(byAddr))
	for a := range byAddr {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		fmt.Fprintf(&b, "line %#x:\n", a)
		for _, e := range byAddr[a] {
			fmt.Fprintf(&b, "  node %d perm=%d owner=%t backup=%t v%d\n",
				e.node, e.v.Perm, e.v.Owner, e.v.Backup, e.v.Payload.Version)
		}
	}
	for _, a := range s.agents {
		if !a.Quiesced() {
			fmt.Fprintf(&b, "%s has in-flight transactions\n", s.nodeName(a.NodeID()))
		}
	}
	fmt.Fprintf(&b, "cycle=%d pending events=%d\n", s.engine.Now(), s.engine.Pending())
	return b.String()
}
