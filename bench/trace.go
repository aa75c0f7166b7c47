package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records the traced run's spans: one per call the benchmark makes
// into a layer (workload → sample → system.New, Run, verify, ...). Spans
// stay in memory and are written once, as a Chrome/Perfetto trace-event
// document, when the run ends. A nil *tracer records nothing, so the
// untraced phase calls the same code at the cost of a nil check.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []spanRec
	// lanes hands out Chrome thread IDs to concurrent callers (campaign
	// workers); lanes[i] is true while lane i+1 is in use.
	lanes []bool
}

// spanRec is one finished span.
type spanRec struct {
	id, parent, lane int
	name             string
	start, end       time.Time
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span named name under parent (0 for a root) on lane and
// returns its ID and the function that closes it.
func (t *tracer) start(name string, parent, lane int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{id: id, parent: parent, lane: lane, name: name, start: time.Now()})
	t.mu.Unlock()
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		t.spans[id-1].end = end
		t.mu.Unlock()
	}
}

// acquireLane returns a free lane for a concurrent caller; releaseLane
// gives it back.
func (t *tracer) acquireLane() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, busy := range t.lanes {
		if !busy {
			t.lanes[i] = true
			return i + 2
		}
	}
	t.lanes = append(t.lanes, true)
	return len(t.lanes) + 1
}

func (t *tracer) releaseLane(lane int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lanes[lane-2] = false
	t.mu.Unlock()
}

// writeChrome writes the spans as a Chrome trace-event document: one
// complete ("X") event per span, microseconds from the tracer's start,
// with the span and parent IDs as args. Lane 1 is the benchmark's main
// goroutine; lanes from 2 up are concurrent campaign workers.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`+"\n")
	fmt.Fprint(w, `{"ph":"M","name":"process_name","pid":1,"args":{"name":"ftbench"}}`)
	t.mu.Lock()
	for _, s := range t.spans {
		end := s.end
		if end.IsZero() {
			end = s.start
		}
		fmt.Fprintf(w, ",\n"+`{"name":%q,"cat":"bench","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"id":%d,"parent":%d}}`,
			s.name, float64(s.start.Sub(t.origin).Nanoseconds())/1e3, float64(end.Sub(s.start).Nanoseconds())/1e3,
			s.lane, s.id, s.parent)
	}
	t.mu.Unlock()
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
