package fault

import (
	"strings"
	"testing"

	"repro/internal/msg"
)

func sendN(inj Injector, n int, typ msg.Type) int {
	dropped := 0
	for i := 0; i < n; i++ {
		if inj.Drop(&msg.Message{Type: typ, Addr: msg.Addr(i)}) {
			dropped++
		}
	}
	return dropped
}

func TestNoneNeverDrops(t *testing.T) {
	if sendN(None{}, 10000, msg.GetS) != 0 {
		t.Fatal("None dropped a message")
	}
}

func TestRateStatistics(t *testing.T) {
	const n = 1_000_000
	inj := NewRate(2000, 7)
	dropped := sendN(inj, n, msg.GetS)
	if dropped < 1700 || dropped > 2300 {
		t.Fatalf("rate 2000/M dropped %d of %d", dropped, n)
	}
	if inj.Dropped() != uint64(dropped) {
		t.Fatalf("counter mismatch: %d vs %d", inj.Dropped(), dropped)
	}
}

func TestRateZeroAndNegative(t *testing.T) {
	if sendN(NewRate(0, 1), 100000, msg.GetS) != 0 {
		t.Fatal("rate 0 dropped")
	}
	if sendN(NewRate(-5, 1), 100000, msg.GetS) != 0 {
		t.Fatal("negative rate dropped")
	}
}

func TestRateDeterminism(t *testing.T) {
	a, b := NewRate(5000, 42), NewRate(5000, 42)
	for i := 0; i < 100000; i++ {
		m := &msg.Message{Type: msg.GetS, Addr: msg.Addr(i)}
		if a.Drop(m) != b.Drop(m) {
			t.Fatal("same-seed injectors diverged")
		}
	}
}

func TestBurstLengths(t *testing.T) {
	inj := NewBurst(200, 8, 3)
	const n = 500_000
	run := 0
	var runs []int
	for i := 0; i < n; i++ {
		if inj.Drop(&msg.Message{Type: msg.GetS}) {
			run++
		} else if run > 0 {
			runs = append(runs, run)
			run = 0
		}
	}
	if len(runs) == 0 {
		t.Fatal("no bursts occurred")
	}
	for _, r := range runs {
		// Adjacent bursts can merge; lengths are multiples of ≥8 minus
		// nothing shorter than 8.
		if r < 8 {
			t.Fatalf("burst of length %d < 8", r)
		}
	}
	if inj.Dropped() == 0 {
		t.Fatal("burst counter empty")
	}
}

func TestTargetedNth(t *testing.T) {
	inj := NewNthOfType(msg.DataEx, 3)
	drops := 0
	for i := 0; i < 10; i++ {
		if inj.Drop(&msg.Message{Type: msg.GetS}) {
			t.Fatal("dropped wrong type")
		}
		if inj.Drop(&msg.Message{Type: msg.DataEx}) {
			drops++
			if i != 2 {
				t.Fatalf("dropped occurrence %d, want 3rd", i+1)
			}
		}
	}
	if drops != 1 || !inj.Fired() || inj.Seen() != 10 {
		t.Fatalf("drops=%d fired=%t seen=%d", drops, inj.Fired(), inj.Seen())
	}
}

func TestScript(t *testing.T) {
	inj := NewScript(0, 2, 5)
	var got []int
	for i := 0; i < 8; i++ {
		if inj.Drop(&msg.Message{Type: msg.GetS}) {
			got = append(got, i)
		}
	}
	want := []int{0, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("dropped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dropped %v, want %v", got, want)
		}
	}
}

func TestChainSeesEveryMessage(t *testing.T) {
	a := NewNthOfType(msg.GetS, 2)
	b := NewNthOfType(msg.GetS, 4)
	chain := NewChain(a, b)
	var dropped []int
	for i := 0; i < 6; i++ {
		if chain.Drop(&msg.Message{Type: msg.GetS}) {
			dropped = append(dropped, i)
		}
	}
	// Both injectors count all 6 messages even though each drops one.
	if a.Seen() != 6 || b.Seen() != 6 {
		t.Fatalf("seen %d/%d, want 6/6", a.Seen(), b.Seen())
	}
	if len(dropped) != 2 || dropped[0] != 1 || dropped[1] != 3 {
		t.Fatalf("dropped %v", dropped)
	}
}

// TestChainDeterminismAfterDrop pins the Chain contract that every injector
// sees every message: a Rate injector's decision stream must be identical
// whether it runs alone or chained after an NthOfType injector that drops an
// earlier message. (Short-circuiting the chain on the first drop would
// desynchronize the downstream RNG streams.)
func TestChainDeterminismAfterDrop(t *testing.T) {
	const n = 2000
	solo := NewRate(100_000, 11)
	var soloDrops []int
	for i := 0; i < n; i++ {
		if solo.Drop(&msg.Message{Type: msg.GetS}) {
			soloDrops = append(soloDrops, i)
		}
	}

	chained := NewRate(100_000, 11)
	chain := NewChain(NewNthOfType(msg.GetS, 1), chained)
	var chainedDrops []int
	for i := 0; i < n; i++ {
		before := chained.Dropped()
		chain.Drop(&msg.Message{Type: msg.GetS})
		if chained.Dropped() > before {
			chainedDrops = append(chainedDrops, i)
		}
	}

	if len(soloDrops) == 0 {
		t.Fatal("rate injector never fired")
	}
	if len(chainedDrops) != len(soloDrops) {
		t.Fatalf("chained rate dropped %d messages, solo dropped %d", len(chainedDrops), len(soloDrops))
	}
	for i := range soloDrops {
		if chainedDrops[i] != soloDrops[i] {
			t.Fatalf("drop index %d: chained %d vs solo %d", i, chainedDrops[i], soloDrops[i])
		}
	}
}

func TestCorruptingCRCAlwaysCatches(t *testing.T) {
	inner := NewRate(500_000, 9) // half of all messages
	inj := NewCorrupting(inner, 5)
	dropped := 0
	for i := 0; i < 20000; i++ {
		m := &msg.Message{Type: msg.Data, Addr: msg.Addr(i), Payload: msg.Payload{Value: uint64(i)}}
		if inj.Drop(m) {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("nothing corrupted")
	}
	if inj.Undetected != 0 {
		t.Fatalf("%d single-bit corruptions slipped past the CRC", inj.Undetected)
	}
}

// TestCorruptingUndetectedDelivers pins the accepted-corruption semantics:
// when flipped bits slip past the CRC, the receiver accepts the message,
// so Drop must report it as delivered (false), and every corrupted message
// is either lost or counted undetected — never both.
func TestCorruptingUndetectedDelivers(t *testing.T) {
	inner := NewRate(1_000_000, 9) // corrupt every message
	inj := NewCorrupting(inner, 5)
	// The CRC-16 polynomial has (x+1) as a factor, so every odd-weight
	// error is detected; only even flip counts can escape. Four random
	// flips leave a ~2^-16 escape probability per message, so a large
	// batch reliably exercises the undetected path.
	inj.FlipBits = 4
	const n = 400_000
	var dropped uint64
	for i := 0; i < n; i++ {
		m := &msg.Message{Type: msg.Data, Addr: msg.Addr(i), Payload: msg.Payload{Value: uint64(i)}}
		undetectedBefore := inj.Undetected
		lost := inj.Drop(m)
		if lost {
			dropped++
		}
		if inj.Undetected > undetectedBefore && lost {
			t.Fatalf("message %d counted undetected but still reported lost", i)
		}
	}
	if inj.Undetected == 0 {
		t.Fatal("no corruption slipped past the CRC in 400k 5-bit flips; undetected path untested")
	}
	if dropped+inj.Undetected != n {
		t.Fatalf("dropped (%d) + undetected (%d) != corrupted (%d)", dropped, inj.Undetected, n)
	}
}

func TestDescriptions(t *testing.T) {
	injs := []Injector{
		None{},
		NewRate(100, 1),
		NewBurst(10, 4, 1),
		NewNthOfType(msg.AckO, 2),
		NewScript(1),
		NewCorrupting(None{}, 1),
		NewChain(None{}, NewRate(1, 1)),
	}
	for _, in := range injs {
		if strings.TrimSpace(in.Description()) == "" {
			t.Errorf("%T has empty description", in)
		}
	}
}

func TestNthOfTypeSecondDropAfter(t *testing.T) {
	inj := NewNthOfType(msg.Data, 2).SecondDropAfter(3)
	stream := []msg.Type{msg.GetS, msg.Data, msg.Data, msg.GetX, msg.Ack, msg.Data, msg.Data}
	var dropped []int
	for i, ty := range stream {
		if inj.Drop(&msg.Message{Type: ty}) {
			dropped = append(dropped, i)
		}
	}
	// First drop: the 2nd Data (index 2). Second drop: 3 injected messages
	// later (index 5), regardless of type.
	if len(dropped) != 2 || dropped[0] != 2 || dropped[1] != 5 {
		t.Fatalf("dropped %v, want [2 5]", dropped)
	}
	if !inj.SecondFired() || inj.SecondHit() != msg.Data {
		t.Fatalf("second fired=%t hit=%v", inj.SecondFired(), inj.SecondHit())
	}
	if inj.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", inj.Dropped())
	}
}

func TestNthOfTypeDropReissue(t *testing.T) {
	inj := NewNthOfType(msg.GetX, 1).AlsoDropReissue()
	// The reissue shares type, source and address; a GetX from another node
	// or for another line must not be taken for it.
	msgs := []*msg.Message{
		{Type: msg.GetX, Src: 1, Addr: 0x40}, // first drop
		{Type: msg.GetX, Src: 2, Addr: 0x40}, // other node
		{Type: msg.GetX, Src: 1, Addr: 0x80}, // other line
		{Type: msg.GetX, Src: 1, Addr: 0x40}, // the reissue: second drop
		{Type: msg.GetX, Src: 1, Addr: 0x40}, // second reissue survives
	}
	var dropped []int
	for i, m := range msgs {
		if inj.Drop(m) {
			dropped = append(dropped, i)
		}
	}
	if len(dropped) != 2 || dropped[0] != 0 || dropped[1] != 3 {
		t.Fatalf("dropped %v, want [0 3]", dropped)
	}
	if inj.Dropped() != 2 || !inj.SecondFired() {
		t.Fatalf("Dropped()=%d secondFired=%t", inj.Dropped(), inj.SecondFired())
	}
}

// TestDroppedAccessorUniform pins the Injector contract that every
// implementation counts its losses: Dropped must equal the number of Drop
// calls that returned true.
func TestDroppedAccessorUniform(t *testing.T) {
	injs := []Injector{
		None{},
		NewRate(300_000, 5),
		NewBurst(100_000, 3, 5),
		NewNthOfType(msg.GetS, 2),
		NewScript(1, 3, 9),
		NewCorrupting(NewRate(300_000, 7), 7),
		NewChain(NewNthOfType(msg.GetS, 1), NewNthOfType(msg.GetS, 1)),
	}
	for _, in := range injs {
		var want uint64
		for i := 0; i < 200; i++ {
			if in.Drop(&msg.Message{Type: msg.GetS, Addr: msg.Addr(i * 64)}) {
				want++
			}
		}
		if got := in.Dropped(); got != want {
			t.Errorf("%T: Dropped() = %d, observed %d drops", in, got, want)
		}
	}
}

// TestChainDroppedCountsDistinctMessages: a message removed by two chained
// injectors is one loss, not two.
func TestChainDroppedCountsDistinctMessages(t *testing.T) {
	chain := NewChain(NewNthOfType(msg.GetS, 1), NewNthOfType(msg.GetS, 1))
	chain.Drop(&msg.Message{Type: msg.GetS})
	if chain.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", chain.Dropped())
	}
}

// TestChainThreeInjectorAggregation pins Chain's aggregation semantics with
// three heterogeneous injectors, including a structural one: every injector
// sees every message (streams stay deterministic), Chain.Dropped() counts
// distinct messages lost while each member keeps its own attempt count, and
// the composite Description is deterministic and lists the members in order.
func TestChainThreeInjectorAggregation(t *testing.T) {
	first := NewNthOfType(msg.GetS, 1)
	third := NewNthOfType(msg.GetS, 3)
	td := NewTileDeath(2, msg.GetS, 3)
	td.Arm([]msg.NodeID{3, 7}, nil)
	chain := NewChain(first, third, td)

	// GetS #1: dropped by first only. GetS #2: nobody. GetS #3: dropped by
	// third, and it also fires the tile death — but involves no dead node,
	// so the TileDeath member does not drop it itself. GetS #4 from a dead
	// node: dropped by TileDeath only.
	msgs := []*msg.Message{
		{Type: msg.GetS, Src: 1, Dst: 5},
		{Type: msg.GetS, Src: 1, Dst: 5},
		{Type: msg.GetS, Src: 1, Dst: 5},
		{Type: msg.GetS, Src: 3, Dst: 5},
	}
	wantLost := []bool{true, false, true, true}
	for i, m := range msgs {
		if got := chain.Drop(m); got != wantLost[i] {
			t.Errorf("message %d: lost=%t, want %t", i+1, got, wantLost[i])
		}
	}
	if got := chain.Dropped(); got != 3 {
		t.Errorf("chain.Dropped() = %d, want 3 distinct messages", got)
	}
	if got := first.Dropped(); got != 1 {
		t.Errorf("first.Dropped() = %d, want 1", got)
	}
	if got := third.Dropped(); got != 1 {
		t.Errorf("third.Dropped() = %d, want 1", got)
	}
	if got := td.Dropped(); got != 1 {
		t.Errorf("tile death Dropped() = %d, want 1", got)
	}
	if !td.Fired() {
		t.Error("tile death never fired despite GetS #3 passing through")
	}

	want := "chain[drop GetS #1; drop GetS #3; tile-death tile 2 at GetS #3]"
	if got := chain.Description(); got != want {
		t.Errorf("Description() = %q, want %q", got, want)
	}
	if got := chain.Description(); got != want {
		t.Errorf("Description() not stable across calls: %q", got)
	}
}
