package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseTraceBasic(t *testing.T) {
	src := `
# a comment
0 r 5
0 w 5
1 r 0x10
`
	w, err := ParseTrace("test", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "test" || w.Cores() != 2 || w.TotalOps() != 3 {
		t.Fatalf("cores=%d ops=%d", w.Cores(), w.TotalOps())
	}
	ops := collect(w, 0, 2, 999 /* ignored */, 1)
	if len(ops) != 2 || ops[0] != (Op{Line: 5}) || ops[1] != (Op{Line: 5, Write: true}) {
		t.Fatalf("core 0 ops = %+v", ops)
	}
	ops = collect(w, 1, 2, 999, 1)
	if len(ops) != 1 || ops[0].Line != 0x10 || ops[0].Write {
		t.Fatalf("core 1 ops = %+v", ops)
	}
}

func TestParseTraceErrors(t *testing.T) {
	bad := []string{
		"0 r",         // missing field
		"x r 1",       // bad core
		"-1 r 1",      // negative core
		"0 q 1",       // bad op
		"0 r notanum", // bad line
		"",            // empty
		"# only\n#notes",
	}
	for _, src := range bad {
		if _, err := ParseTrace("bad", strings.NewReader(src)); err == nil {
			t.Errorf("trace %q accepted", src)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	orig := Uniform(128, 0.4)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig, 4, 200, 7); err != nil {
		t.Fatal(err)
	}
	replay, err := ParseTrace("replay", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Cores() != 4 || replay.TotalOps() != 800 {
		t.Fatalf("cores=%d ops=%d", replay.Cores(), replay.TotalOps())
	}
	// The replayed lists must equal the original generation.
	for core, want := range PerCore(orig, 4, 200, 7) {
		got := replay.Ops(core, 4, 0, nil)
		if len(got) != len(want) {
			t.Fatalf("core %d: %d ops replayed, want %d", core, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("core %d op %d: %+v vs %+v", core, i, want[i], got[i])
			}
		}
	}
}
