package system

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/msg"
	"repro/internal/proto"
)

// stableCheckViews is the grouping CheckCoherence used before it sorted
// in place: a stable sort by address alone, so views of one line keep
// their collection order.
func stableCheckViews(topo proto.Topology, views []agentView, expectTokens int) []error {
	slices.SortStableFunc(views, func(a, b agentView) int { return cmp.Compare(a.v.Addr, b.v.Addr) })
	var errs []error
	for start := 0; start < len(views); {
		addr := views[start].v.Addr
		end := start
		for end < len(views) && views[end].v.Addr == addr {
			end++
		}
		vs := views[start:end]
		start = end
		if err := checkLine(topo, addr, vs, true); err != nil {
			errs = append(errs, err)
			continue
		}
		if err := checkTokens(addr, vs, expectTokens); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// randomViews collects seeded random views the way CheckCoherence does:
// agents in registration order (L1 i, L2 i pairs, then memory), so node
// IDs are not ascending, each yielding lines in a shuffled order and
// sometimes twice (a cache frame plus a backup or writeback entry).
func randomViews(rng *rand.Rand, topo proto.Topology) []agentView {
	var agents []msg.NodeID
	for i := 0; i < topo.Tiles; i++ {
		agents = append(agents, topo.L1(i), topo.L2(i))
	}
	for i := 0; i < topo.Mems; i++ {
		agents = append(agents, topo.Mem(i))
	}
	var views []agentView
	for _, id := range agents {
		for n := rng.Intn(12); n > 0; n-- {
			v := proto.LineView{
				Addr:      msg.Addr(rng.Intn(10)) * 0x40,
				Perm:      proto.Permission(rng.Intn(3)),
				Owner:     rng.Intn(3) == 0,
				Backup:    rng.Intn(8) == 0,
				Transient: rng.Intn(4) == 0,
				Tokens:    rng.Intn(3),
			}
			v.Payload.Version = uint64(rng.Intn(3))
			views = append(views, agentView{node: int32(id), ord: int32(len(views)), v: v})
		}
	}
	return views
}

// TestCheckViewsMatchesStableOrder: the in-place (address, index) sort
// must report the same errors, word for word and in the same order, as the
// stable sort it replaced, on view sets with many violating lines.
func TestCheckViewsMatchesStableOrder(t *testing.T) {
	topo := proto.Topology{Tiles: 4, Mems: 2, LineSize: 64}
	violations := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		views := randomViews(rng, topo)
		expectTokens := 0
		if seed%3 == 0 {
			expectTokens = topo.Tiles
		}
		got := checkViews(topo, slices.Clone(views), expectTokens)
		want := stableCheckViews(topo, views, expectTokens)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d errors, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].Error() != want[i].Error() {
				t.Fatalf("seed %d, error %d:\n got %s\nwant %s", seed, i, got[i], want[i])
			}
		}
		violations += len(got)
	}
	if violations < 300 {
		t.Fatalf("only %d violating lines over all seeds; the test no longer exercises ordering", violations)
	}
}

// TestAgentViewSize: the sort moves whole views, so agentView must not
// grow past 80 bytes.
func TestAgentViewSize(t *testing.T) {
	if n := unsafe.Sizeof(agentView{}); n > 80 {
		t.Fatalf("agentView is %d bytes, want <= 80", n)
	}
}
