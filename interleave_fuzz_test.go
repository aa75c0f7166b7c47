package repro

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// FuzzReadInterleaveDoc fuzzes the `fttrace -replay` input boundary: the
// bytes of an `ftcheck -interleave -json` document go to ReadInterleaveDoc
// and, if accepted, to ReplayCounterexampleTrace. Neither may panic, and
// an accepted document must replay to the same result twice: the same
// error, or the same replay verdict, event log and message log. Documents
// whose model is larger than the interleave experiment class accepts (4
// tiles, 8 operations per core, and so at most 4 memory controllers at
// the mesh corners) are skipped: their replay cost grows with the model,
// not with any defect. The corpus is seeded from testdata/interleave.json.
// Run it with `make replay-fuzz`.
func FuzzReadInterleaveDoc(f *testing.F) {
	seed, err := os.ReadFile("testdata/interleave.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(bytes.Replace(seed, []byte(`"OpsPerCore": 2,`), []byte(`"OpsPerCore": -1,`), 1))
	f.Add(bytes.Replace(seed, []byte(`"Protocol": 2,`), []byte(`"Protocol": 0,`), 1))
	f.Add(bytes.Replace(seed, []byte(`"workload": "handoff"`), []byte(`"workload": "uniform"`), 1))
	// The largest ring a document can ask for: the recorder must not size
	// anything by it up front.
	f.Add(bytes.Replace(seed, []byte(`"EventBufferSize": 0,`), []byte(`"EventBufferSize": 9223372036854775807,`), 1))
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"ftdircmp":{},"dircmp":{"violations":[{"schedule":[{}]}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ReadInterleaveDoc(bytes.NewReader(data))
		if err != nil {
			return
		}
		c := doc.Config
		if c.MeshWidth > 4 || c.MeshHeight > 4 || c.MeshWidth*c.MeshHeight > 4 || c.OpsPerCore > 8 ||
			c.MemControllers > 4 {
			t.Skip("model beyond the interleave class's limits")
		}
		first, err1 := replayRendered(doc)
		second, err2 := replayRendered(doc)
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("replay errors differ: %v vs %v", err1, err2)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("replays differ:\n%+v\nvs\n%+v", first, second)
		}
	})
}

// renderedReplay is everything a counterexample replay shows: the verdict,
// the exported event log and the wire events as the message log.
type renderedReplay struct {
	replay *InterleaveReplayResult
	jsonl  string
	wire   string
}

func replayRendered(doc *InterleaveDoc) (*renderedReplay, error) {
	tr, err := doc.ReplayCounterexampleTrace()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := tr.WriteEventsJSONL(&b); err != nil {
		return nil, err
	}
	log := obs.NewWireLog(len(tr.Events()), 0)
	for _, e := range tr.Events() {
		log.Observe(e)
	}
	return &renderedReplay{replay: tr.Replay, jsonl: b.String(), wire: log.String()}, nil
}
