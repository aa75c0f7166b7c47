package workload

import (
	"strings"
	"testing"
)

// FuzzParseTrace: arbitrary text must never panic; accepted traces must be
// structurally sound (non-negative cores, per-core lists that add up to the
// trace's operation count).
func FuzzParseTrace(f *testing.F) {
	f.Add("0 r 5\n0 w 5\n")
	f.Add("# comment\n\n3 w 0x10\n")
	f.Add("bogus")
	f.Fuzz(func(t *testing.T, src string) {
		w, err := ParseTrace("fuzz", strings.NewReader(src))
		if err != nil {
			return
		}
		if w.Cores() < 1 {
			t.Fatalf("accepted trace with %d cores", w.Cores())
		}
		total := 0
		for core := 0; core < w.Cores(); core++ {
			total += len(w.Ops(core, w.Cores(), 0, nil))
		}
		if total != w.TotalOps() {
			t.Fatalf("per-core lists hold %d ops, TotalOps() says %d", total, w.TotalOps())
		}
	})
}
