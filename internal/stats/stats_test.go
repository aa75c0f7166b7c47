package stats

import (
	"strings"
	"testing"

	"repro/internal/msg"
)

func TestNetworkCounters(t *testing.T) {
	n := NewNetwork()
	n.MessageSent(&msg.Message{Type: msg.GetS}, 8)
	n.MessageSent(&msg.Message{Type: msg.Data}, 72)
	n.MessageSent(&msg.Message{Type: msg.AckO}, 8)
	n.MessageDelivered(&msg.Message{Type: msg.GetS}, 10)
	n.MessageDelivered(&msg.Message{Type: msg.Data}, 30)
	n.MessageDropped(&msg.Message{Type: msg.AckO})

	if n.TotalMessages() != 3 {
		t.Fatalf("messages = %d", n.TotalMessages())
	}
	if n.TotalBytes() != 88 {
		t.Fatalf("bytes = %d", n.TotalBytes())
	}
	if n.TotalDropped() != 1 {
		t.Fatalf("dropped = %d", n.TotalDropped())
	}
	if got := n.AvgLatency(); got != 20 {
		t.Fatalf("avg latency = %v", got)
	}
}

func TestCategoryGrouping(t *testing.T) {
	n := NewNetwork()
	n.MessageSent(&msg.Message{Type: msg.GetS}, 8)
	n.MessageSent(&msg.Message{Type: msg.GetX}, 8)
	n.MessageSent(&msg.Message{Type: msg.AckO}, 8)
	n.MessageSent(&msg.Message{Type: msg.AckBD}, 8)
	n.MessageSent(&msg.Message{Type: msg.UnblockPing}, 8)

	cats := n.MessagesByCategory()
	if cats[msg.CatRequest] != 2 {
		t.Errorf("requests = %d", cats[msg.CatRequest])
	}
	if cats[msg.CatOwnership] != 2 {
		t.Errorf("ownership = %d", cats[msg.CatOwnership])
	}
	if cats[msg.CatPing] != 1 {
		t.Errorf("ping = %d", cats[msg.CatPing])
	}
	var sum uint64
	for _, v := range cats {
		sum += v
	}
	if sum != n.TotalMessages() {
		t.Fatal("categories do not partition the total")
	}
	var bytesSum uint64
	for _, v := range n.BytesByCategory() {
		bytesSum += v
	}
	if bytesSum != n.TotalBytes() {
		t.Fatal("byte categories do not partition the total")
	}
}

func TestMissLatency(t *testing.T) {
	var p Protocol
	p.MissLatency(10)
	p.MissLatency(30)
	p.MissLatency(20)
	if p.AvgMissLatency() != 20 {
		t.Fatalf("avg = %v", p.AvgMissLatency())
	}
	if p.MissLatencyHist.Max() != 30 {
		t.Fatalf("max = %d", p.MissLatencyHist.Max())
	}
	var empty Protocol
	if empty.AvgMissLatency() != 0 {
		t.Fatal("empty average not zero")
	}
}

func TestOverheadRatios(t *testing.T) {
	base := NewRun("DirCMP", "uniform")
	base.Cycles = 1000
	base.Net.MessageSent(&msg.Message{Type: msg.GetS}, 8)
	base.Net.MessageSent(&msg.Message{Type: msg.Data}, 72)

	ft := NewRun("FtDirCMP", "uniform")
	ft.Cycles = 1100
	ft.Net.MessageSent(&msg.Message{Type: msg.GetS}, 8)
	ft.Net.MessageSent(&msg.Message{Type: msg.Data}, 72)
	ft.Net.MessageSent(&msg.Message{Type: msg.AckO}, 8)

	if got := ft.MessageOverhead(base); got != 1.5 {
		t.Fatalf("message overhead = %v", got)
	}
	if got := ft.ByteOverhead(base); got != 88.0/80.0 {
		t.Fatalf("byte overhead = %v", got)
	}
	if got := ft.TimeOverhead(base); got != 1.1 {
		t.Fatalf("time overhead = %v", got)
	}
	empty := NewRun("DirCMP", "x")
	if ft.MessageOverhead(empty) != 0 || ft.ByteOverhead(empty) != 0 || ft.TimeOverhead(empty) != 0 {
		t.Fatal("zero baseline must yield zero ratio, not NaN")
	}
}

func TestReportContents(t *testing.T) {
	r := NewRun("FtDirCMP", "migratory")
	r.Cycles = 12345
	r.Ops = 100
	r.Proto.ReadHits = 7
	r.Proto.AcksOSent = 3
	r.Proto.LostRequestTimeouts = 2
	r.Net.MessageSent(&msg.Message{Type: msg.AckO}, 8)
	text := r.Report()
	for _, want := range []string{"FtDirCMP", "migratory", "12345", "ownership", "AckO", "lost-request"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}
