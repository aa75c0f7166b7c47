package coverage

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/msg"
)

// FuzzCampaign drives the campaign engine with decoded synthetic protocols:
// data[0] and data[1] mark the fatal and diverging drop types (bit t%8),
// data[2] the double-fault samples and per-type slot cap, and every later
// byte one message of the stream. The message-loss campaign (with double
// faults) and the structural campaign (two tiles, two links) each run at
// parallelism 1 and 4. Their reports must be byte-identical across
// parallelism, account for every tested slot exactly once, sum per row to
// the report totals, and keep rows in census type order or victim order.
func FuzzCampaign(f *testing.F) {
	f.Add([]byte{0, 0, 0x12, 1, 2, 3, 1, 2, 3})
	f.Add([]byte{0x04, 0x10, 0x35, 5, 6, 7, 8, 5, 6, 7, 8, 9, 5})
	f.Add([]byte{0xff, 0, 0x07, 1, 1, 1, 2, 2})
	f.Add([]byte{0, 0xff, 0x20, 3, 4, 5, 6, 7, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := fakeProtocol{fatal: map[msg.Type]bool{}, diverge: map[msg.Type]bool{}}
		for _, b := range data[3:min(len(data), 67)] {
			ty := msg.Type(1 + int(b)%msg.NumTypes())
			p.stream = append(p.stream, ty)
			p.fatal[ty] = data[0]>>(ty%8)&1 == 1
			p.diverge[ty] = data[1]>>(ty%8)&1 == 1
		}
		loss := Options{DoubleFaultSamples: int(data[2] & 7), MaxSlotsPerType: int(data[2] >> 4 & 3), Seed: uint64(data[2])}
		structural := StructuralOptions{
			MaxSlotsPerType: loss.MaxSlotsPerType,
			Tiles:           2,
			Links:           [][2]int{{0, 1}, {1, 3}},
			VictimWrites:    func(tile int) map[msg.Addr]bool { return map[msg.Addr]bool{msg.Addr(tile * 64): true} },
		}
		census := NewCensus()
		p.run(census)

		var reps [2]*Report
		for i, par := range []int{1, 4} {
			loss.Parallelism = par
			rep, err := RunContext(context.Background(), p.run, loss)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, lossRowOrder(census))
			if len(rep.DoubleFaults) != loss.DoubleFaultSamples {
				t.Fatalf("%d double faults, want %d", len(rep.DoubleFaults), loss.DoubleFaultSamples)
			}
			reps[i] = rep
		}
		sameReport(t, reps[0], reps[1])

		for i, par := range []int{1, 4} {
			structural.Parallelism = par
			rep, err := RunStructuralContext(context.Background(), p.run, structural)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, []string{"tile 0", "tile 1", "link 0-1", "link 1-3"})
			reps[i] = rep
		}
		sameReport(t, reps[0], reps[1])
	})
}

// lossRowOrder is the census type order of a message-loss report's rows.
func lossRowOrder(c *Census) []string {
	var names []string
	for _, t := range c.Types() {
		names = append(names, t.String())
	}
	return names
}

// checkReport checks a report's accounting and its row order.
func checkReport(t *testing.T, rep *Report, rows []string) {
	t.Helper()
	if got := rep.Recovered + rep.TotalFailures + rep.Unfired; got != rep.SlotsTested {
		t.Fatalf("recovered %d + failures %d + unfired %d = %d, want slots tested %d",
			rep.Recovered, rep.TotalFailures, rep.Unfired, got, rep.SlotsTested)
	}
	var slots uint64
	var tested, recovered, unfired int
	var names []string
	for _, row := range rep.Rows {
		slots += row.Slots
		tested += row.Tested
		recovered += row.Recovered
		unfired += row.Unfired
		names = append(names, row.Type)
	}
	if slots != rep.TotalSlots || tested != rep.SlotsTested || recovered != rep.Recovered || unfired != rep.Unfired {
		t.Fatalf("row sums slots %d tested %d recovered %d unfired %d, report totals %d %d %d %d",
			slots, tested, recovered, unfired, rep.TotalSlots, rep.SlotsTested, rep.Recovered, rep.Unfired)
	}
	if fmt.Sprint(names) != fmt.Sprint(rows) {
		t.Fatalf("rows %v, want %v", names, rows)
	}
}

// sameReport requires byte-identical table and JSON renderings.
func sameReport(t *testing.T, a, b *Report) {
	t.Helper()
	var ja, jb strings.Builder
	if err := a.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if a.Table() != b.Table() || ja.String() != jb.String() {
		t.Fatalf("reports differ across parallelism:\n%s\nvs\n%s", ja.String(), jb.String())
	}
}
