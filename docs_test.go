package repro

// Documentation checks, run by `make docs-check` (and the normal test
// suite): markdown links must resolve, PROTOCOL.md's message tables must
// match the code's single source of truth, and docs/OBSERVABILITY.md must
// name every event the recorder can emit.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/span"
	"repro/internal/trace"
)

// markdownFiles returns every tracked *.md in the repo root and docs/.
func markdownFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, glob := range []string{"*.md", "docs/*.md"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	return files
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsMarkdownLinks checks that every relative link in the markdown
// documentation points at a file that exists.
func TestDocsMarkdownLinks(t *testing.T) {
	for _, file := range markdownFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%s does not exist)", file, m[1], resolved)
			}
		}
	}
}

// TestDocsProtocolTablesMatchDescribe diffs PROTOCOL.md §0's message-type
// tables against internal/trace.Describe, the single source of truth for
// the paper's Tables 1-2. Every message type must appear as exactly
//
//	| `Type` | Description |
//
// and no table row may carry a stale description.
func TestDocsProtocolTablesMatchDescribe(t *testing.T) {
	data, err := os.ReadFile("PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)

	types := append(msg.BaseTypes(), msg.FtTypes()...)
	for _, typ := range types {
		want := fmt.Sprintf("| `%s` | %s |", typ, trace.Describe(typ))
		if !strings.Contains(doc, want) {
			t.Errorf("PROTOCOL.md is missing or has drifted from the canonical row:\n%s", want)
		}
	}

	// No stale rows: any table row naming a known message type must be
	// the canonical one.
	known := make(map[string]msg.Type, len(types))
	for _, typ := range types {
		known[typ.String()] = typ
	}
	// Two-column rows only: protocol transition tables elsewhere in the
	// document also start with a backticked type but have more columns.
	rowRe := regexp.MustCompile("(?m)^\\| `([A-Za-z]+)` \\| ([^|]+) \\|$")
	for _, m := range rowRe.FindAllStringSubmatch(doc, -1) {
		typ, ok := known[m[1]]
		if !ok {
			continue
		}
		if m[2] != trace.Describe(typ) {
			t.Errorf("PROTOCOL.md row for %s says %q, code says %q (fix the doc or trace.Describe)",
				m[1], m[2], trace.Describe(typ))
		}
	}
}

// TestDocsObservabilityCoversAllKinds requires docs/OBSERVABILITY.md to
// name every event kind and timeout kind the recorder can emit, and every
// kind a real faulty run actually emits.
func TestDocsObservabilityCoversAllKinds(t *testing.T) {
	data, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, k := range obs.AllKinds() {
		if !strings.Contains(doc, "`"+k.String()+"`") {
			t.Errorf("docs/OBSERVABILITY.md does not document event kind `%s`", k)
		}
	}
	for _, k := range obs.AllTimeoutKinds() {
		if !strings.Contains(doc, "`"+k.String()+"`") {
			t.Errorf("docs/OBSERVABILITY.md does not document timeout kind `%s`", k)
		}
	}

	res, err := Run(goldenConfig(), "uniform")
	if err != nil {
		t.Fatal(err)
	}
	for kind := range res.EventsByKind {
		if !strings.Contains(doc, "`"+kind+"`") {
			t.Errorf("run emitted event kind %q that docs/OBSERVABILITY.md does not document", kind)
		}
	}
}

// TestDocsPerformanceMatchesCode keeps docs/PERFORMANCE.md tied to the
// mechanisms it documents: the bypass knobs and the pinning tests it names
// must exist under those names.
func TestDocsPerformanceMatchesCode(t *testing.T) {
	data, err := os.ReadFile("docs/PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"REPRO_NOPOOL", "msg.SetPooling", "msg.NewMessage", "msg.Pool",
		"Engine.AtRunEnd", "Timer.Start", "proto.DeferResult", "msg.EncodeAppend",
		"TestPoolingOffGoldenIdentity", "TestFig3QuickAllocsPin",
		"TestDisabledInstrumentationZeroAlloc", "TestPoolStatsCountEveryMessage",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/PERFORMANCE.md does not mention %q", want)
		}
	}
}

// TestDocsModelcheckMatchesCode keeps docs/MODELCHECK.md tied to the
// mechanisms and entry points it documents: the API names, CLI modes,
// violation kinds, pinned artifacts, and make target it cites must exist
// under those names.
func TestDocsModelcheckMatchesCode(t *testing.T) {
	data, err := os.ReadFile("docs/MODELCHECK.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"mc.Explore", "mc.Replay", "sim.ScheduleChoiceAt", "sim.Chooser",
		"system.StateFingerprint()", "msg.Fingerprint", "coverage.Recovered",
		"repro.InterleaveGate", "repro.InterleaveWorkload", "repro.WorkloadExtras()",
		"ftcheck -interleave", "fttrace -replay", "ftload -class interleave",
		"make mc-check", "testdata/interleave.{txt,json}",
		"TestGoldenInterleaveReport", "BenchmarkInterleaveExploration",
		"`deadlock`", "`verdict`", "`cycle-limit`", "`handoff`",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/MODELCHECK.md does not mention %q", want)
		}
	}

	// The violation kinds the doc names are the ones the checker emits:
	// keep the list in lockstep with a real counterexample.
	rep, err := Interleave(quickInterleaveConfig(), InterleaveWorkload, InterleaveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exhausted {
		t.Fatalf("quick FtDirCMP reordering exploration no longer exhausts: %+v", rep)
	}
}

// TestDocsSpanPhaseTable pins docs/OBSERVABILITY.md's phase-taxonomy table
// against span.AllPhases(): every phase must have a table row, in the
// canonical order, and the table must not name phases the code does not
// have.
func TestDocsSpanPhaseTable(t *testing.T) {
	data, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)

	prev := -1
	for _, ph := range span.AllPhases() {
		row := "| `" + ph + "` |"
		i := strings.Index(doc, row)
		if i < 0 {
			t.Errorf("docs/OBSERVABILITY.md has no phase-table row for %q (want %q)", ph, row)
			continue
		}
		if i < prev {
			t.Errorf("docs/OBSERVABILITY.md phase row for %q is out of canonical order (want span.AllPhases() order)", ph)
		}
		prev = i
	}

	// No stale rows within the taxonomy section: every table row there
	// must name a real phase.
	_, section, ok := strings.Cut(doc, "### Phase taxonomy")
	if !ok {
		t.Fatal("docs/OBSERVABILITY.md has no '### Phase taxonomy' section")
	}
	if next := strings.Index(section, "\n### "); next >= 0 {
		section = section[:next]
	}
	known := make(map[string]bool)
	for _, ph := range span.AllPhases() {
		known[ph] = true
	}
	rowRe := regexp.MustCompile("(?m)^\\| `([a-z0-9_]+)` \\|")
	for _, m := range rowRe.FindAllStringSubmatch(section, -1) {
		if !known[m[1]] {
			t.Errorf("docs/OBSERVABILITY.md phase table names %q, which span.AllPhases() does not have", m[1])
		}
	}
}
