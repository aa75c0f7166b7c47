package obs

import (
	"strings"
	"testing"

	"repro/internal/msg"
)

// TestWireLineRendersHeader: send, deliver and DROP lines carry every
// header field and all four flags, with source and destination in wire
// order on each, while the exporters leave the header out.
func TestWireLineRendersHeader(t *testing.T) {
	r := NewRecorder(8)
	r.EnableMessageFeed()
	m := &msg.Message{Type: msg.UnblockEx, Src: 1, Dst: 6, Addr: 0x40, SN: 7, Requestor: 3, AckCount: 2,
		Payload: msg.Payload{Version: 9}, PiggybackAckO: true, Forwarded: true, Migratory: true, NoPayload: true}
	r.MessageSent(m, 8)
	r.MessageDelivered(m, 12)
	r.MessageDropped(m)
	want := []string{
		"      1 send     UnblockEx      1-> 6 addr=0x40 sn=7 req=3 acks=2 v=9+AckO fwd migr nopayload",
		"      2 deliver  UnblockEx      1-> 6 addr=0x40 sn=7 req=3 acks=2 v=9+AckO fwd migr nopayload",
		"      3 DROP     UnblockEx      1-> 6 addr=0x40 sn=7 req=3 acks=2 v=9+AckO fwd migr nopayload",
	}
	evs := r.Events()
	if len(evs) != len(want) {
		t.Fatalf("recorded %d events, want %d", len(evs), len(want))
	}
	for i, e := range evs {
		if got := e.WireLine(uint64(i + 1)); got != want[i] {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, got, want[i])
		}
	}

	m = &msg.Message{Type: msg.GetX, Src: 6, Dst: 2, Addr: 0x80, Forwarded: true}
	r.MessageSent(m, 8)
	if got, want := r.Events()[3].WireLine(4), "      4 send     GetX           6-> 2 addr=0x80 sn=0 req=0 acks=0 v=0 fwd"; got != want {
		t.Errorf("single flag:\n got %q\nwant %q", got, want)
	}

	var b strings.Builder
	if err := WriteJSONL(&b, evs); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"sn", "req", "acks", "version", "flags"} {
		if strings.Contains(b.String(), `"`+field) {
			t.Errorf("JSONL export prints header field %q:\n%s", field, b.String())
		}
	}
}

// TestWireLogKeepsFilteredTail: the log keeps only wire events on its
// line, the newest n of them, numbered by arrival from 1.
func TestWireLogKeepsFilteredTail(t *testing.T) {
	r := NewRecorder(0)
	r.EnableMessageFeed()
	w := NewWireLog(2, 0x40)
	r.SetSink(w.Observe)
	if got := w.String(); got != "" {
		t.Fatalf("empty log renders %q", got)
	}
	for i, typ := range []msg.Type{msg.GetS, msg.Data, msg.Unblock} {
		r.MessageSent(&msg.Message{Type: typ, Src: 1, Dst: 6, Addr: 0x40, SN: msg.SerialNumber(i)}, 8)
		r.MessageSent(&msg.Message{Type: typ, Src: 2, Dst: 6, Addr: 0x80}, 8)
		r.StateChange("l1", 1, 0x40, 0, "I", "S")
	}
	r.MessageSent(&msg.Message{Type: msg.OwnershipPing, Src: 1, Dst: 6, Addr: 0x80}, 8) // ping: not a wire event
	want := "      2 send     Data           1-> 6 addr=0x40 sn=1 req=0 acks=0 v=0\n" +
		"      3 send     Unblock        1-> 6 addr=0x40 sn=2 req=0 acks=0 v=0\n"
	if got := w.String(); got != want {
		t.Fatalf("log:\n%s\nwant:\n%s", got, want)
	}

	all := NewWireLog(0, 0) // at least one event, every line
	r.SetSink(all.Observe)
	r.MessageDropped(&msg.Message{Type: msg.Ack, Src: 3, Dst: 1, Addr: 0x80})
	r.MessageDelivered(&msg.Message{Type: msg.Ack, Src: 4, Dst: 1, Addr: 0xc0}, 5)
	if got, want := all.String(), "      2 deliver  Ack            4-> 1 addr=0xc0 sn=0 req=0 acks=0 v=0\n"; got != want {
		t.Fatalf("unfiltered one-event log %q, want %q", got, want)
	}
}
