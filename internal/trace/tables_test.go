package trace

import (
	"strings"
	"testing"

	"repro/internal/msg"
)

func TestTablesCoverAllTypes(t *testing.T) {
	t1, t2 := Table1(), Table2()
	for _, typ := range msg.BaseTypes() {
		if !strings.Contains(t1, typ.String()) {
			t.Errorf("Table 1 missing %v", typ)
		}
	}
	for _, typ := range msg.FtTypes() {
		if !strings.Contains(t2, typ.String()) {
			t.Errorf("Table 2 missing %v", typ)
		}
		if Describe(typ) == "" {
			t.Errorf("no description for %v", typ)
		}
	}
}

func TestTable3MentionsAllTimeouts(t *testing.T) {
	t3 := Table3()
	for _, want := range []string{"Lost request", "Lost unblock", "backup deletion", "OwnershipPing"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table 3 missing %q", want)
		}
	}
}
