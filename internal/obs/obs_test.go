package obs

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/msg"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.SetClock(func() uint64 { return 0 })
	r.SetSink(func(Event) {})
	r.StateChange("l1", 1, 0x40, 0, "I", "M")
	r.TimeoutFired("l1", 1, 0x40, 0, TimeoutLostRequest)
	r.Reissue("l1", 1, 0x40, 0, msg.GetX, 1, 2)
	r.BackupCreated("l2", 5, 0x40, 0, 1)
	r.BackupDeleted("l2", 5, 0x40, 0)
	r.TransactionEnd("l1", 1, 0x40, 0)
	r.Recreate(9, 0x40, 3)
	r.MessageSent(&msg.Message{Type: msg.UnblockPing}, 8)
	r.MessageDropped(&msg.Message{Type: msg.Data})
	r.MessageDelivered(&msg.Message{Type: msg.Data}, 10)
	if r.Metrics() != nil {
		t.Fatal("nil recorder should return nil metrics")
	}
	if r.Events() != nil {
		t.Fatal("nil recorder should return nil events")
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.TransactionEnd("l1", 1, msg.Addr(i), 0)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(i + 3) // events 3,4,5 survive, oldest first
		if e.Seq != wantSeq {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, wantSeq)
		}
	}
	if got := r.Metrics().Events; got != 5 {
		t.Errorf("metrics counted %d events, want 5 (metrics ignore ring capacity)", got)
	}
}

func TestZeroCapacityKeepsMetricsOnly(t *testing.T) {
	r := NewRecorder(0)
	r.TimeoutFired("l2", 5, 0x80, 0, TimeoutBackup)
	if len(r.Events()) != 0 {
		t.Fatal("capacity-0 recorder retained events")
	}
	m := r.Metrics()
	if m.Events != 1 || m.ByKind[KindTimeout] != 1 || m.TimeoutsByKind[TimeoutBackup] != 1 {
		t.Fatalf("metrics not collected: %+v", m)
	}
}

// TestCountingRecorderMatchesRing: a recorder that only counts skips
// building the frequent events, so it must still number and count every
// event exactly as a recorder that keeps them: the same metrics, recovery
// windows included, and the same sequence number on the next kept event.
func TestCountingRecorderMatchesRing(t *testing.T) {
	drive := func(r *Recorder) {
		clock := uint64(0)
		r.SetClock(func() uint64 { return clock })
		for i, call := range []func(){
			func() { r.MessageDropped(&msg.Message{Type: msg.GetX, Src: 1, Dst: 5, Addr: 0x40}) },
			func() { r.StateChange("l1", 1, 0x40, 7, "I", "M") },
			func() { r.BackupCreated("l2", 5, 0x40, 7, 1) },
			func() { r.TimeoutFired("l1", 1, 0x40, 7, TimeoutLostRequest) },
			func() { r.BackupDeleted("l2", 5, 0x40, 7) },
			func() { r.MessageDropped(&msg.Message{Type: msg.Data, Src: 5, Dst: 1, Addr: 0x80}) },
			func() { r.TransactionEnd("l1", 1, 0x80, 8) },
			func() { r.TransactionEnd("mem", 9, 0xc0, 9) },
		} {
			clock = uint64(i * i * 5)
			call()
		}
	}
	counting, ring := NewRecorder(0), NewRecorder(64)
	drive(counting)
	drive(ring)
	if !reflect.DeepEqual(counting.Metrics(), ring.Metrics()) {
		t.Fatalf("metrics differ:\ncounting %+v\nring     %+v", *counting.Metrics(), *ring.Metrics())
	}
	var next []Event
	counting.SetSink(func(e Event) { next = append(next, e) })
	counting.StateChange("l1", 1, 0x40, 10, "M", "I")
	if events := ring.Events(); len(next) != 1 || next[0].Seq != uint64(len(events))+1 {
		t.Fatalf("next event after %d counted: %+v", len(events), next)
	}
}

func TestSinkSeesEveryEvent(t *testing.T) {
	r := NewRecorder(1) // ring smaller than the stream
	var seen []uint64
	r.SetSink(func(e Event) { seen = append(seen, e.Seq) })
	for i := 0; i < 4; i++ {
		r.StateChange("l1", 1, 0x40, 0, "I", "S")
	}
	if len(seen) != 4 {
		t.Fatalf("sink saw %d events, want 4", len(seen))
	}
	for i, s := range seen {
		if s != uint64(i+1) {
			t.Fatalf("sink order broken: %v", seen)
		}
	}
}

func TestMetricsCounters(t *testing.T) {
	r := NewRecorder(16)
	r.TimeoutFired("l1", 1, 0x40, 0, TimeoutLostRequest)
	r.TimeoutFired("l1", 1, 0x40, 0, TimeoutLostRequest)
	r.TimeoutFired("l2", 5, 0x40, 0, TimeoutLostUnblock)
	r.Reissue("l1", 1, 0x40, 0, msg.GetX, 1, 2)
	r.MessageSent(&msg.Message{Type: msg.UnblockPing, Src: 5, Dst: 1, Addr: 0x40}, 8)
	r.MessageSent(&msg.Message{Type: msg.Data, Src: 5, Dst: 1, Addr: 0x40}, 72) // not an event
	r.MessageSent(&msg.Message{Type: msg.NackO, Src: 1, Dst: 5, Addr: 0x40}, 8)

	m := r.Metrics()
	if m.TimeoutsByKind[TimeoutLostRequest] != 2 || m.TimeoutsByKind[TimeoutLostUnblock] != 1 {
		t.Errorf("timeout counters wrong: %v", m.TimeoutsByKind)
	}
	if m.ByMsgType[msg.GetX] != 1 || m.ByMsgType[msg.UnblockPing] != 1 || m.ByMsgType[msg.NackO] != 1 {
		t.Errorf("per-type counters wrong")
	}
	if m.ByKind[KindPing] != 1 || m.ByKind[KindCancel] != 1 {
		t.Errorf("ping/cancel derivation wrong: %v", m.KindCounts())
	}
	if m.ByMsgType[msg.Data] != 0 {
		t.Errorf("plain data messages must not be counted as events")
	}
	kc := m.KindCounts()
	if kc["timeout"] != 3 || kc["reissue"] != 1 {
		t.Errorf("KindCounts wrong: %v", kc)
	}
	if _, ok := kc["recover"]; ok {
		t.Errorf("KindCounts must omit zero kinds: %v", kc)
	}
}

func TestRecoveryWindows(t *testing.T) {
	now := uint64(100)
	r := NewRecorder(32)
	r.SetClock(func() uint64 { return now })

	r.MessageDropped(&msg.Message{Type: msg.UnblockEx, Src: 1, Dst: 5, Addr: 0x40})
	now = 150
	r.MessageDropped(&msg.Message{Type: msg.AckO, Src: 1, Dst: 5, Addr: 0x40}) // second window, same line
	r.MessageDropped(&msg.Message{Type: msg.Data, Src: 5, Dst: 2, Addr: 0x80}) // other line

	now = 400
	r.TransactionEnd("l2", 5, 0x40, 0) // closes both 0x40 windows

	m := r.Metrics()
	if m.FaultsInjected != 3 || m.FaultsRecovered != 2 || m.Unattributed() != 1 {
		t.Fatalf("injected=%d recovered=%d unattributed=%d", m.FaultsInjected, m.FaultsRecovered, m.Unattributed())
	}
	if m.RecoveryLatency.Count() != m.FaultsRecovered {
		t.Fatalf("histogram count %d != recovered %d", m.RecoveryLatency.Count(), m.FaultsRecovered)
	}
	if m.RecoveryLatency.Max() != 300 {
		t.Errorf("max latency %d, want 300", m.RecoveryLatency.Max())
	}

	var lats []uint64
	for _, e := range r.Events() {
		if e.Kind == KindRecover {
			lats = append(lats, e.Latency)
		}
	}
	if len(lats) != 2 || lats[0] != 300 || lats[1] != 250 {
		t.Errorf("recover latencies %v, want [300 250]", lats)
	}

	// A second completion on the same line must not re-recover.
	now = 500
	r.TransactionEnd("l2", 5, 0x40, 0)
	if r.Metrics().FaultsRecovered != 2 {
		t.Error("closed windows recovered twice")
	}

	// BackupDeleted closes windows too.
	now = 600
	r.MessageDropped(&msg.Message{Type: msg.AckBD, Src: 5, Dst: 1, Addr: 0x80})
	now = 650
	r.BackupDeleted("l1", 1, 0x80, 0)
	m = r.Metrics()
	// The 0x80 line had two windows open (cycle 150 drop and cycle 600 drop).
	if m.FaultsRecovered != 4 {
		t.Errorf("recovered=%d, want 4 after backup.delete close", m.FaultsRecovered)
	}
}

func TestEventNames(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindState, Old: "I", New: "M"}, "state:I>M"},
		{Event{Kind: KindTimeout, Timeout: TimeoutLostAckBD}, "timeout:lost_ackbd"},
		{Event{Kind: KindReissue, Type: msg.GetX}, "reissue:GetX"},
		{Event{Kind: KindPing, Type: msg.WbPing}, "ping:WbPing"},
		{Event{Kind: KindCancel, Type: msg.NackO}, "cancel:NackO"},
		{Event{Kind: KindFaultInject, Type: msg.Data}, "fault.inject:Data"},
		{Event{Kind: KindBackupCreate}, "backup.create"},
		{Event{Kind: KindRecover}, "recover"},
	}
	for _, c := range cases {
		if got := c.e.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestKindAndTimeoutStrings(t *testing.T) {
	for _, k := range AllKinds() {
		if s := k.String(); strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	for _, k := range AllTimeoutKinds() {
		if s := k.String(); strings.HasPrefix(s, "TimeoutKind(") {
			t.Errorf("timeout kind %d has no name", k)
		}
	}
	if Kind(0).String() == "" || Kind(200).String() == "" {
		t.Error("out-of-range kinds must still print")
	}
}

func TestWriteJSONL(t *testing.T) {
	r := NewRecorder(8)
	cycle := uint64(7)
	r.SetClock(func() uint64 { return cycle })
	r.StateChange("l1", 2, 0x1c0, 0, "I", "M")
	r.Reissue("l1", 2, 0x1c0, 0, msg.GetX, 3, 4)
	r.TimeoutFired("l2", 5, 0x1c0, 0, TimeoutLostUnblock)

	var b strings.Builder
	if err := WriteJSONL(&b, r.Events()); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":1,"cycle":7,"kind":"state","unit":"l1","node":2,"addr":"0x1c0","old":"I","new":"M"}
{"seq":2,"cycle":7,"kind":"reissue","unit":"l1","node":2,"addr":"0x1c0","type":"GetX","oldSN":3,"newSN":4}
{"seq":3,"cycle":7,"kind":"timeout","unit":"l2","node":5,"addr":"0x1c0","timeout":"lost_unblock"}
`
	if b.String() != want {
		t.Errorf("JSONL output:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder(8)
	now := uint64(10)
	r.SetClock(func() uint64 { return now })
	r.MessageDropped(&msg.Message{Type: msg.UnblockEx, Src: 2, Dst: 5, Addr: 0x40})
	now = 25
	r.TransactionEnd("l2", 5, 0x40, 0)

	var b strings.Builder
	err := WriteChromeTrace(&b, r.Events(), func(id msg.NodeID) string { return "node" })
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		`"displayTimeUnit":"ms"`,
		`"ph":"M"`, // track metadata
		`"ph":"i"`, // instants
		`{"name":"recovery","cat":"recover","ph":"X","ts":10,"dur":15,`, // window slice
	} {
		if !strings.Contains(out, w) {
			t.Errorf("chrome trace missing %q in:\n%s", w, out)
		}
	}
}

func TestRecoveryProbe(t *testing.T) {
	r := NewRecorder(8)
	var probed []msg.Addr
	r.SetRecoveryProbe(func(a msg.Addr) { probed = append(probed, a) })

	// Two windows on the same line close as one probe call; a line with no
	// open window never probes.
	r.MessageDropped(&msg.Message{Type: msg.GetX, Src: 1, Dst: 2, Addr: 0x40})
	r.MessageDropped(&msg.Message{Type: msg.Data, Src: 2, Dst: 1, Addr: 0x40})
	r.TransactionEnd("l2", 2, 0x80, 0)
	if len(probed) != 0 {
		t.Fatalf("probe fired for a line with no open window: %v", probed)
	}
	r.TransactionEnd("l2", 2, 0x40, 0)
	if len(probed) != 1 || probed[0] != 0x40 {
		t.Fatalf("probed = %v, want [0x40]", probed)
	}
	// The window is closed; completing again does not re-probe.
	r.TransactionEnd("l1", 1, 0x40, 0)
	if len(probed) != 1 {
		t.Fatalf("probe re-fired on a closed window: %v", probed)
	}

	// Nil recorder: SetRecoveryProbe is a no-op, not a panic.
	var nilRec *Recorder
	nilRec.SetRecoveryProbe(func(msg.Addr) {})
}

func TestLastEventFor(t *testing.T) {
	r := NewRecorder(4)
	r.StateChange("l1", 1, 0x40, 0, "I", "S")
	r.StateChange("l1", 2, 0x80, 0, "I", "M")
	r.StateChange("l1", 1, 0x40, 0, "S", "M")

	e, ok := r.LastEventFor(0x40)
	if !ok || e.Old != "S" || e.New != "M" {
		t.Fatalf("LastEventFor(0x40) = %+v, %v; want the S>M transition", e, ok)
	}
	if _, ok := r.LastEventFor(0x1c0); ok {
		t.Fatal("LastEventFor found an event for an untouched line")
	}

	// Zero-capacity ring retains nothing.
	r0 := NewRecorder(0)
	r0.StateChange("l1", 1, 0x40, 0, "I", "S")
	if _, ok := r0.LastEventFor(0x40); ok {
		t.Fatal("LastEventFor found an event in a zero-capacity ring")
	}

	var nilRec *Recorder
	if _, ok := nilRec.LastEventFor(0x40); ok {
		t.Fatal("nil recorder returned an event")
	}
}
