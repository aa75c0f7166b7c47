package noc

// Link-death support: KillLink removes one bidirectional mesh link from
// service. While any link is dead, next-hop decisions come from an
// all-pairs table recomputed by BFS over the surviving links (deterministic
// tie-break: directions are tried in a fixed order), so messages detour —
// possibly non-minimally — around the cut. Both backends share route(), so
// the simple link model and the detailed router model reroute identically.
// Messages already committed to a hop across the link at kill time still
// arrive (they left before the cut); the message that triggered the death
// is dropped by the injector, modeling the one lost on the wire.
//
// Rerouting breaks the same-path FIFO guarantee for messages that straddle
// the kill instant; FtDirCMP's serial numbers tolerate that reordering
// (the same property that covers adaptive routing). If source and
// destination end up partitioned, Send records the message as dropped
// instead of injecting it — the protocols then see a permanently lossy
// path and their timeout machinery (or a tile-death declaration) takes
// over. In detailed mode a flight parked on a buffer feeding the dead link
// is re-routed the next time that buffer frees capacity.

// KillLink permanently removes the link between routers a and b, in both
// directions, and recomputes the detour routing table. Killing a link that
// does not exist (non-adjacent routers) panics; killing the same link twice
// is a no-op.
func (n *Network) KillLink(a, b int) {
	dirAB, ok := n.dirBetween(a, b)
	if !ok {
		panic("noc: KillLink on non-adjacent routers")
	}
	dirBA, _ := n.dirBetween(b, a)
	if n.deadOut == nil {
		n.deadOut = make([][numDirections]bool, len(n.routers))
	}
	n.deadOut[a][dirAB] = true
	n.deadOut[b][dirBA] = true
	n.anyDead = true
	n.rebuildNextHop()
}

// Adjacent reports whether routers a and b share a mesh link (and are both
// valid router indices) — the precondition for KillLink.
func (n *Network) Adjacent(a, b int) bool {
	if a < 0 || b < 0 || a >= len(n.routers) || b >= len(n.routers) {
		return false
	}
	_, ok := n.dirBetween(a, b)
	return ok
}

// dirBetween returns the output direction from router a to adjacent router
// b, or ok=false when they are not adjacent.
func (n *Network) dirBetween(a, b int) (direction, bool) {
	w := n.cfg.Width
	ax, ay := a%w, a/w
	bx, by := b%w, b/w
	switch {
	case ay == by && bx == ax+1:
		return dirEast, true
	case ay == by && bx == ax-1:
		return dirWest, true
	case ax == bx && by == ay+1:
		return dirSouth, true
	case ax == bx && by == ay-1:
		return dirNorth, true
	}
	return 0, false
}

// linkDead reports whether router's output link in direction dir is dead.
func (n *Network) linkDead(router int, dir direction) bool {
	return n.anyDead && n.deadOut[router][dir]
}

// rebuildNextHop recomputes the all-pairs next-hop table over surviving
// links: one BFS per destination, neighbors visited in fixed direction
// order for determinism. nextHop[r*R+d] is the direction to take at router
// r toward destination d, or -1 when d is unreachable from r.
func (n *Network) rebuildNextHop() {
	routers := len(n.routers)
	if n.nextHop == nil {
		n.nextHop = make([]int8, routers*routers)
	}
	dist := make([]int, routers)
	queue := make([]int, 0, routers)
	dirs := [4]direction{dirEast, dirWest, dirNorth, dirSouth}
	for d := 0; d < routers; d++ {
		for r := 0; r < routers; r++ {
			dist[r] = -1
			n.nextHop[r*routers+d] = -1
		}
		dist[d] = 0
		queue = append(queue[:0], d)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			// Discover every router v with a live link v->u: v's next hop
			// toward d goes through u.
			for _, dir := range dirs {
				v, ok := n.meshNeighbor(u, dir)
				if !ok || dist[v] >= 0 {
					continue
				}
				back := opposite(dir)
				if n.deadOut[v][back] {
					continue
				}
				dist[v] = dist[u] + 1
				n.nextHop[v*routers+d] = int8(back)
				queue = append(queue, v)
			}
		}
	}
}

// meshNeighbor returns the router adjacent to router in direction dir, with
// ok=false at the mesh edge.
func (n *Network) meshNeighbor(router int, dir direction) (int, bool) {
	w := n.cfg.Width
	x, y := router%w, router/w
	switch dir {
	case dirEast:
		if x+1 >= w {
			return 0, false
		}
		return router + 1, true
	case dirWest:
		if x == 0 {
			return 0, false
		}
		return router - 1, true
	case dirSouth:
		if y+1 >= len(n.routers)/w {
			return 0, false
		}
		return router + w, true
	case dirNorth:
		if y == 0 {
			return 0, false
		}
		return router - w, true
	}
	return 0, false
}

func opposite(dir direction) direction {
	switch dir {
	case dirEast:
		return dirWest
	case dirWest:
		return dirEast
	case dirNorth:
		return dirSouth
	default:
		return dirNorth
	}
}

// reachable reports whether dstRouter can be reached from srcRouter over
// surviving links.
func (n *Network) reachable(srcRouter, dstRouter int) bool {
	if !n.anyDead || srcRouter == dstRouter {
		return true
	}
	return n.nextHop[srcRouter*len(n.routers)+dstRouter] >= 0
}

// detourDir returns the table-driven next hop while links are dead.
func (n *Network) detourDir(router, dstRouter int) direction {
	if router == dstRouter {
		return dirLocal
	}
	d := n.nextHop[router*len(n.routers)+dstRouter]
	if d < 0 {
		// Unreachable destinations are filtered at Send; a transit can only
		// get here if the link died mid-flight and cut it off. Eject locally
		// as a drop (handled by the caller noticing dstRouter mismatch is
		// impossible in the simple model, so treat as local ejection toward
		// the drop path).
		return dirLocal
	}
	return direction(d)
}
