// Package trace is the single source of truth for the paper's message
// vocabulary: Describe returns the one-line description of each message
// type, and Table1/Table2/Table3/Table4 render the paper's tables from it.
// PROTOCOL.md §0 reproduces Tables 1–2 verbatim, pinned by a test that
// diffs the document against Describe.
//
// The package records nothing: the message flow on the wire is obs's
// msg.send, msg.recv and fault.inject events (see obs.WireLog for the
// text log command fttrace prints).
package trace

import (
	"fmt"
	"strings"

	"repro/internal/msg"
)

// descriptions of every message type (Tables 1 and 2 of the paper).
var typeDescriptions = map[msg.Type]string{
	msg.GetX:          "Request data and permission to write.",
	msg.GetS:          "Request data and permission to read.",
	msg.Put:           "Sent by the L1 to initiate a write-back.",
	msg.WbAck:         "Sent by the L2 to let the L1 actually perform the write-back.",
	msg.Inv:           "Invalidation request sent to invalidate sharers before granting exclusive access.",
	msg.Ack:           "Invalidation acknowledgment.",
	msg.Data:          "Message carrying data and read permission.",
	msg.DataEx:        "Message carrying data and write permission.",
	msg.Unblock:       "Informs the L2 that the data has been received and the sender is now a sharer.",
	msg.UnblockEx:     "Informs the L2 that the data has been received and the sender has now exclusive access to the line.",
	msg.WbData:        "Write-back containing data.",
	msg.WbNoData:      "Write-back containing no data.",
	msg.AckO:          "Ownership acknowledgment.",
	msg.AckBD:         "Backup deletion acknowledgment.",
	msg.UnblockPing:   "Requests confirmation whether a cache miss is still in progress.",
	msg.WbPing:        "Requests confirmation whether a writeback is still in progress.",
	msg.WbCancel:      "Confirms that a previous writeback has already finished.",
	msg.OwnershipPing: "Requests confirmation of ownership.",
	msg.NackO:         "Not ownership acknowledgment.",
}

// Describe returns the paper's one-line description of a message type.
func Describe(t msg.Type) string { return typeDescriptions[t] }

// Table1 renders the DirCMP message types (paper Table 1).
func Table1() string {
	return renderTypes("Table 1. Message types used by DirCMP.", msg.BaseTypes())
}

// Table2 renders the FtDirCMP message types (paper Table 2).
func Table2() string {
	return renderTypes("Table 2. New message types for FtDirCMP.", msg.FtTypes())
}

func renderTypes(title string, types []msg.Type) string {
	var b strings.Builder
	b.WriteString(title + "\n\n")
	fmt.Fprintf(&b, "%-14s %s\n", "Type", "Description")
	for _, t := range types {
		fmt.Fprintf(&b, "%-14s %s\n", t, typeDescriptions[t])
	}
	return b.String()
}

// timeoutRow is one entry of the paper's Table 3.
type timeoutRow struct {
	name, activated, where, deactivated, triggers string
}

var timeoutRows = []timeoutRow{
	{
		name:        "Lost request",
		activated:   "When a request is issued.",
		where:       "At the requesting L1 cache (and the L2 for its requests to memory).",
		deactivated: "When the request is satisfied.",
		triggers:    "The request is reissued with a new serial number.",
	},
	{
		name:        "Lost unblock",
		activated:   "When a request is answered (even writeback requests).",
		where:       "At the responding L2 or memory.",
		deactivated: "When the unblock (or writeback) message is received.",
		triggers:    "An UnblockPing/WbPing is sent to the cache that should have sent the Unblock or writeback.",
	},
	{
		name:        "Lost backup deletion acknowledgment",
		activated:   "When the AckO message is sent.",
		where:       "At the node that sends the AckO.",
		deactivated: "When the AckBD message is received.",
		triggers:    "The AckO is reissued with a new serial number.",
	},
	{
		name:        "Backup (OwnershipPing; this implementation's reading)",
		activated:   "When owned data is sent (backup created).",
		where:       "At the node holding the backup.",
		deactivated: "When the AckO is received.",
		triggers:    "An OwnershipPing is sent to the data receiver, answered with AckO or NackO.",
	},
}

// Table3 renders the fault-detection timeout summary (paper Table 3).
func Table3() string {
	var b strings.Builder
	b.WriteString("Table 3. Timeouts summary.\n")
	for _, r := range timeoutRows {
		fmt.Fprintf(&b, "\n%s\n", r.name)
		fmt.Fprintf(&b, "  Activated:   %s\n", r.activated)
		fmt.Fprintf(&b, "  Where:       %s\n", r.where)
		fmt.Fprintf(&b, "  Deactivated: %s\n", r.deactivated)
		fmt.Fprintf(&b, "  On trigger:  %s\n", r.triggers)
	}
	return b.String()
}
