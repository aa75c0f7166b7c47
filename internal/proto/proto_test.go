package proto

import (
	"testing"
	"testing/quick"

	"repro/internal/msg"
)

func topo() Topology {
	return Topology{Tiles: 16, Mems: 4, LineSize: 64}
}

func TestNodeIDRanges(t *testing.T) {
	tp := topo()
	for i := 0; i < tp.Tiles; i++ {
		l1, l2 := tp.L1(i), tp.L2(i)
		if !tp.IsL1(l1) || tp.IsL2(l1) || tp.IsMem(l1) {
			t.Errorf("L1(%d)=%d misclassified", i, l1)
		}
		if !tp.IsL2(l2) || tp.IsL1(l2) || tp.IsMem(l2) {
			t.Errorf("L2(%d)=%d misclassified", i, l2)
		}
		if tp.TileOf(l1) != i || tp.TileOf(l2) != i {
			t.Errorf("TileOf inverse broken for tile %d", i)
		}
	}
	for i := 0; i < tp.Mems; i++ {
		m := tp.Mem(i)
		if !tp.IsMem(m) || tp.IsL1(m) || tp.IsL2(m) {
			t.Errorf("Mem(%d)=%d misclassified", i, m)
		}
	}
	if tp.IsL1(0) || tp.IsL2(0) || tp.IsMem(0) {
		t.Error("node 0 must be invalid")
	}
}

func TestNodeIDsDisjoint(t *testing.T) {
	tp := topo()
	seen := make(map[msg.NodeID]bool)
	for i := 0; i < tp.Tiles; i++ {
		for _, id := range []msg.NodeID{tp.L1(i), tp.L2(i)} {
			if seen[id] {
				t.Fatalf("node id %d reused", id)
			}
			seen[id] = true
		}
	}
	for i := 0; i < tp.Mems; i++ {
		if seen[tp.Mem(i)] {
			t.Fatalf("mem id %d reused", tp.Mem(i))
		}
		seen[tp.Mem(i)] = true
	}
}

func TestSharerIndexRoundTrip(t *testing.T) {
	tp := topo()
	for i := 0; i < tp.Tiles; i++ {
		id := tp.L1(i)
		if tp.L1FromSharerIndex(tp.SharerIndex(id)) != id {
			t.Fatalf("sharer index round trip broken for %d", id)
		}
	}
}

func TestLineAddr(t *testing.T) {
	tp := topo()
	if tp.LineAddr(0x47) != 0x40 {
		t.Fatalf("LineAddr(0x47) = %#x", tp.LineAddr(0x47))
	}
	if tp.LineAddr(0x40) != 0x40 {
		t.Fatal("aligned address changed")
	}
	if tp.LineIndex(0x80) != 2 {
		t.Fatalf("LineIndex(0x80) = %d", tp.LineIndex(0x80))
	}
}

func TestHomesAreInRangeAndLineStable(t *testing.T) {
	tp := topo()
	prop := func(addr uint64) bool {
		a := msg.Addr(addr)
		h := tp.HomeL2(a)
		m := tp.HomeMem(a)
		if !tp.IsL2(h) || !tp.IsMem(m) {
			return false
		}
		// Every address within the same line has the same homes.
		a2 := tp.LineAddr(a) + msg.Addr(tp.LineSize-1)
		return tp.HomeL2(a2) == h && tp.HomeMem(a2) == m
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHomeInterleavingIsBalanced(t *testing.T) {
	tp := topo()
	countL2 := make(map[msg.NodeID]int)
	countMem := make(map[msg.NodeID]int)
	const lines = 1600
	for i := 0; i < lines; i++ {
		addr := msg.Addr(i * tp.LineSize)
		countL2[tp.HomeL2(addr)]++
		countMem[tp.HomeMem(addr)]++
	}
	if len(countL2) != tp.Tiles {
		t.Fatalf("only %d L2 banks used", len(countL2))
	}
	for id, n := range countL2 {
		if n != lines/tp.Tiles {
			t.Errorf("bank %d got %d lines, want %d", id, n, lines/tp.Tiles)
		}
	}
	if len(countMem) != tp.Mems {
		t.Fatalf("only %d memory controllers used", len(countMem))
	}
}

func TestTileOfPanicsOnMem(t *testing.T) {
	tp := topo()
	defer func() {
		if recover() == nil {
			t.Fatal("TileOf(mem) must panic")
		}
	}()
	tp.TileOf(tp.Mem(0))
}

func TestParamsValidate(t *testing.T) {
	good := Params{
		LineSize: 64, L1Size: 1024, L1Ways: 2, L2Size: 4096, L2Ways: 4, SerialBits: 8,
		LostRequestTimeout: 2000, LostUnblockTimeout: 3000, LostAckBDTimeout: 3000, BackupTimeout: 4000,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	for _, bits := range []int{1, 16} {
		p := good
		p.SerialBits = bits
		if err := p.Validate(); err != nil {
			t.Errorf("serial bits %d rejected: %v", bits, err)
		}
	}
	cases := []struct {
		name string
		edit func(*Params)
	}{
		{"line size not a power of two", func(p *Params) { p.LineSize = 63 }},
		{"empty L1", func(p *Params) { p.L1Size = 0 }},
		{"zero serial bits", func(p *Params) { p.SerialBits = 0 }},
		{"negative serial bits", func(p *Params) { p.SerialBits = -1 }},
		{"17 serial bits", func(p *Params) { p.SerialBits = 17 }},
		{"20 serial bits", func(p *Params) { p.SerialBits = 20 }},
		{"zero lost-request timeout", func(p *Params) { p.LostRequestTimeout = 0 }},
		{"zero lost-unblock timeout", func(p *Params) { p.LostUnblockTimeout = 0 }},
		{"zero lost-AckBD timeout", func(p *Params) { p.LostAckBDTimeout = 0 }},
		{"zero backup timeout", func(p *Params) { p.BackupTimeout = 0 }},
	}
	for _, c := range cases {
		p := good
		c.edit(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
