// Package core implements the directory-based MOESI cache coherence
// protocols: FtDirCMP, the paper's primary contribution, which guarantees
// correct program execution even when the interconnection network loses
// messages due to transient faults (§3 of the paper), and DirCMP, the
// baseline it extends (§2).
//
// Both share one directory organisation. The L2 is shared, physically
// distributed (one bank per tile, line-interleaved homes) and
// non-inclusive; each bank is the directory for the L1s. Per-line busy
// states serialize transactions: the directory attends one request per
// line and queues the rest until the Unblock/UnblockEx (or the writeback
// data) closes the transaction. Writebacks are three-phase (Put → WbAck →
// WbData/WbNoData), and a migratory-sharing optimization turns
// read-modify-write sharing into exclusive grants.
//
// DirCMP is FtDirCMP with its four mechanisms switched off: the
// controllers take an ft flag, and with ft false they keep no backups,
// arm no timers, send every serial number as 0 and release memory as soon
// as fetched data arrives. DirCMP assumes a reliable network: losing any
// message deadlocks it, which is exactly the property the evaluation
// demonstrates. The four mechanisms are:
//
//  1. Reliable ownership transference (§3.1). Whenever owned data moves
//     between nodes, the sender keeps a backup copy (Backup state) until an
//     ownership acknowledgment (AckO) arrives, and the receiver holds the
//     line in a blocked-ownership state (Mb/Eb/Ob) — usable, but not
//     transferable — until the backup deletion acknowledgment (AckBD)
//     arrives. This guarantees that, for every line, there is always an
//     owner with the data, a backup copy, or both, and never more than one
//     of each. The AckO is piggybacked on the UnblockEx message whenever
//     the data came from the node the unblock goes to (L2→L1 and mem→L2
//     transfers), keeping the handshake off the critical path.
//
//  2. Fault detection by timeouts (§3.2–§3.4). Each row of Table 3 is one
//     firing handler in timeouts.go:
//     - lost request → lostRequestFired: at the requester (an L1 miss or
//     Put, an L2 fetch, Put or recall) until the response; reissues the
//     request with a new serial number.
//     - lost unblock → lostUnblockFired: at the responder (L2 or memory)
//     until the Unblock/UnblockEx or writeback data; sends an UnblockPing
//     or WbPing.
//     - lost backup deletion acknowledgment → lostAckBDFired: at the AckO
//     sender until the AckBD; resends the AckO with a new serial number.
//     - backup → backupFired (our conservative reading of
//     OwnershipPing/NackO, see DESIGN.md): at a backup holder until the
//     AckO; pings the receiver, which answers AckO or NackO.
//
//  3. Request serial numbers (§3.5). Every request and response carries a
//     small serial number; responses that answer an old, superseded attempt
//     are discarded, preventing the Figure 2 incoherence.
//
//  4. Internally/externally blocked L2 states (§3.1.1). After an L2 miss,
//     the L2 forwards the data to the requesting L1 immediately, keeping an
//     in-chip backup, and delays its own UnblockEx+AckO to memory until the
//     L1's AckO arrives — so the memory round-trip of the ownership
//     handshake never lengthens the miss. While "externally blocked"
//     (waiting for memory's AckBD) the line can still move between L1s; it
//     only cannot be written back to memory.
//
// With ft set, the controllers never assume a message arrives: every
// handler tolerates duplicates from reissues and discards stale serial
// numbers.
package core

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ctrl is the controller base L1, L2 and Mem embed: the node's identity and
// configuration, the engine and network it runs on, and what a Table 3
// timeout needs to fire (see timeouts.go).
type ctrl struct {
	id     msg.NodeID
	unit   string // the unit events name the node by: "l1", "l2" or "mem"
	ft     bool
	topo   proto.Topology
	params proto.Params
	engine *sim.Engine
	net    proto.Sender
	run    *stats.Run
	serial *msg.SerialSpace // nil without ft: every serial number is 0
	tids   proto.TIDSource
	obs    *obs.Recorder
	// domains is the structural-fault failure detector (nil without
	// structural faults); halted is set when the node's tile dies.
	domains *proto.Domains
	halted  bool
}

func newCtrl(id msg.NodeID, unit string, topo proto.Topology, params proto.Params, engine *sim.Engine,
	net proto.Sender, run *stats.Run, ft bool) ctrl {
	c := ctrl{id: id, unit: unit, ft: ft, topo: topo, params: params, engine: engine, net: net, run: run}
	if ft {
		c.serial = msg.NewSerialSpace(params.SerialBits)
	}
	return c
}

// NodeID implements proto.Inspectable.
func (c *ctrl) NodeID() msg.NodeID { return c.id }

// SetObserver attaches the structured event recorder (see internal/obs).
func (c *ctrl) SetObserver(o *obs.Recorder) { c.obs = o }

// SetDomains attaches the structural-fault failure detector.
func (c *ctrl) SetDomains(d *proto.Domains) { c.domains = d }

// reset restarts the serial space and the TID source and revives the node.
func (c *ctrl) reset() {
	if c.serial != nil {
		c.serial.Reset()
	}
	c.tids = proto.NewTIDSource(c.id)
	c.halted = false
}

// deaf reports whether the node ignores a delivered message m: a dead
// tile processes nothing, and survivors discard stragglers from
// declared-dead nodes so post-reconstruction state stays clean.
func (c *ctrl) deaf(m *msg.Message) bool { return c.halted || c.domains.Declared(m.Src) }

// send copies m into a pooled message from this node and injects it.
func (c *ctrl) send(m *msg.Message) {
	pm := c.net.NewMessage()
	*pm = *m
	pm.Src = c.id
	c.net.Send(pm)
}

// L1 stable line states (stored in cache.Line.State). Blocked-ownership
// (Mb/Eb/Ob) is the same base state plus an entry in the L1's blocked map;
// backup copies live in a dedicated backup buffer.
const (
	// StateS is shared, read-only.
	StateS = iota + 1
	// StateE is exclusive clean.
	StateE
	// StateM is modified.
	StateM
	// StateO is owned (read-only, responsible for the data).
	StateO
)

// L2 directory states.
const (
	// L2StateS: this bank owns the data; Sharers lists L1 copies.
	L2StateS = iota + 1
	// L2StateM: an L1 owns the line.
	L2StateM
)

func stateName(s int) string {
	switch s {
	case StateS:
		return "S"
	case StateE:
		return "E"
	case StateM:
		return "M"
	case StateO:
		return "O"
	default:
		return fmt.Sprintf("state(%d)", s)
	}
}

// stateNameMiss and stateNameBlocked return the interned "<state>+suffix"
// diagnostic names used by InspectLines. The checker inspects every line of
// every agent per run, so building these by concatenation would allocate
// per line.
func stateNameMiss(s int) string {
	switch s {
	case StateS:
		return "S+miss"
	case StateE:
		return "E+miss"
	case StateM:
		return "M+miss"
	case StateO:
		return "O+miss"
	default:
		return stateName(s) + "+miss"
	}
}

func stateNameBlocked(s int) string {
	switch s {
	case StateS:
		return "S+blocked"
	case StateE:
		return "E+blocked"
	case StateM:
		return "M+blocked"
	case StateO:
		return "O+blocked"
	default:
		return stateName(s) + "+blocked"
	}
}

func ownerState(s int) bool { return s == StateE || s == StateM || s == StateO }

func writableState(s int) bool { return s == StateE || s == StateM }

func permOf(s int) proto.Permission {
	switch s {
	case StateS, StateO:
		return proto.PermRead
	case StateE, StateM:
		return proto.PermWrite
	default:
		return proto.PermNone
	}
}

// nextSN draws a fresh serial number from s, or 0 when the controller runs
// without serial numbers (DirCMP, s nil).
func nextSN(s *msg.SerialSpace) msg.SerialNumber {
	if s == nil {
		return 0
	}
	return s.Next()
}

// protocolPanic reports a broken internal invariant. The controllers only
// panic on states that are impossible even under arbitrary message loss —
// anything a fault can cause is handled or counted instead.
func protocolPanic(format string, args ...any) {
	panic("core: protocol invariant violated: " + fmt.Sprintf(format, args...))
}
