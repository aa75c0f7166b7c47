package obs

import (
	"fmt"
	"strings"

	"repro/internal/msg"
)

// Header flags carried on wire events (Event.Flags).
const (
	// FlagAckO marks an UnblockEx carrying a piggybacked AckO (§3.1).
	FlagAckO uint8 = 1 << iota
	// FlagFwd marks a request forwarded by the L2 to an owner L1.
	FlagFwd
	// FlagMigr marks a migratory-sharing response.
	FlagMigr
	// FlagNoPayload marks a data-type message sent without its line.
	FlagNoPayload
)

// wireEvent builds the kind-k event for message m with its header fields;
// node and dst are the emitting agent and the counterpart.
func wireEvent(k Kind, node, dst msg.NodeID, m *msg.Message) Event {
	var f uint8
	if m.PiggybackAckO {
		f |= FlagAckO
	}
	if m.Forwarded {
		f |= FlagFwd
	}
	if m.Migratory {
		f |= FlagMigr
	}
	if m.NoPayload {
		f |= FlagNoPayload
	}
	return Event{Kind: k, Unit: "net", Node: node, Dst: dst, Addr: m.Addr, TID: m.TID, Type: m.Type,
		NewSN: m.SN, Flags: f, Acks: int32(m.AckCount), Req: int32(m.Requestor), Version: m.Payload.Version}
}

// WireLine renders wire event e as line n of the message log: the
// direction ("send", "deliver", "DROP"), the message type, source and
// destination, and the header fields.
func (e Event) WireLine(n uint64) string {
	verb, src, dst := "send", e.Node, e.Dst
	switch e.Kind {
	case KindMsgRecv:
		verb, src, dst = "deliver", e.Dst, e.Node
	case KindFaultInject:
		verb = "DROP"
	}
	flags := ""
	if e.Flags&FlagAckO != 0 {
		flags += "+AckO"
	}
	if e.Flags&FlagFwd != 0 {
		flags += " fwd"
	}
	if e.Flags&FlagMigr != 0 {
		flags += " migr"
	}
	if e.Flags&FlagNoPayload != 0 {
		flags += " nopayload"
	}
	return fmt.Sprintf("%7d %-8s %-13s %2d->%2d addr=%#x sn=%d req=%d acks=%d v=%d%s",
		n, verb, e.Type, src, dst, e.Addr, e.NewSN, e.Req, e.Acks, e.Version, flags)
}

// WireLog is the message log: a Recorder sink (pass Observe to SetSink,
// with the message feed enabled) that keeps the last n wire events on one
// line address, or on every line when the address is zero. Events are
// numbered from 1 in arrival order.
type WireLog struct {
	addr  msg.Addr
	tail  []Event // event k (from 0) sits at tail[k%len(tail)]
	count uint64
}

// NewWireLog returns a log keeping the last n (at least one) wire events
// on addr, or on every line when addr is zero.
func NewWireLog(n int, addr msg.Addr) *WireLog {
	return &WireLog{addr: addr, tail: make([]Event, max(n, 1))}
}

// Observe keeps e if it is a wire event (a message sent, delivered or
// dropped) on the log's line.
func (w *WireLog) Observe(e Event) {
	if e.Kind != KindMsgSend && e.Kind != KindMsgRecv && e.Kind != KindFaultInject {
		return
	}
	if w.addr != 0 && e.Addr != w.addr {
		return
	}
	w.tail[w.count%uint64(len(w.tail))] = e
	w.count++
}

// String renders the kept events, oldest first, one WireLine each.
func (w *WireLog) String() string {
	var b strings.Builder
	for k := w.count - min(w.count, uint64(len(w.tail))); k < w.count; k++ {
		b.WriteString(w.tail[k%uint64(len(w.tail))].WireLine(k + 1))
		b.WriteByte('\n')
	}
	return b.String()
}
