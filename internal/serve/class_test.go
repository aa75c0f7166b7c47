package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/runner"
)

// classBodies holds one quick request body per experiment class, with the
// job ID (cache key) it resolves to. The IDs are content addresses that
// durable caches and clients hold on to, so they are pinned byte for byte.
var classBodies = []struct {
	class, body, key string
}{
	{"run", `{"type":"run","quick":true,"config":{"OpsPerCore":50}}`,
		"sha256:79f89003afd6d7f66025d9dc4055cf6ceeeb1c0411dacd1f5844bf5925085124"},
	{"sweep", `{"type":"sweep","quick":true,"rates":[0,100],"config":{"OpsPerCore":50}}`,
		"sha256:697e25d57beb84977a339a201b84261af28cb3c477b2056ec19170170e46635e"},
	{"compare", `{"type":"compare","quick":true,"config":{"OpsPerCore":50}}`,
		"sha256:72eaf8d9f6ee9e65a08fd35bda2621905c7cca9f04c6326c05f66df9f21129d5"},
	{"coverage", `{"type":"coverage","quick":true,"config":{"OpsPerCore":10},"coverage":{"max_slots_per_type":1,"double_fault_samples":2}}`,
		"sha256:b863eae3146a5af006d72758398d2080ad9ac36866cd17875c5ac1eb4ed264b4"},
	{"tile-death", `{"type":"tile-death","quick":true,"config":{"OpsPerCore":10},"tile_death":{"max_slots_per_type":1}}`,
		"sha256:6426890458d2703fa45ebddee48628125f2e13fcf7004d2c9618b170ce05d4df"},
	{"interleave", `{"type":"interleave","quick":true}`,
		"sha256:a1f29479e950bf9c1ba6601a6c9bf733d613d7aedf30174573117b082bc8cc6f"},
	{"profile", `{"type":"profile","quick":true,"config":{"OpsPerCore":50}}`,
		"sha256:bfacc5b9c3b737cc7755f93b3d903b10dc9ea5a500be4f1fcd26c26cbae9b2a7"},
}

// TestClassJobIDs pins every experiment class's job ID, and the defaults
// that must not split one experiment across two IDs: interleave's fault
// budget of 1 and its two operations per core.
func TestClassJobIDs(t *testing.T) {
	for _, c := range classBodies {
		if got := mustKey(t, c.body); got != c.key {
			t.Errorf("%s: key %s, want %s", c.class, got, c.key)
		}
	}
	same := []struct{ name, a, b string }{
		{"absent interleave params vs fault_budget 1",
			`{"type":"interleave","quick":true}`,
			`{"type":"interleave","quick":true,"interleave":{"fault_budget":1}}`},
		{"unset OpsPerCore vs 2",
			`{"type":"interleave","quick":true}`,
			`{"type":"interleave","quick":true,"config":{"OpsPerCore":2}}`},
	}
	for _, s := range same {
		if a, b := mustKey(t, s.a), mustKey(t, s.b); a != b {
			t.Errorf("%s: keys differ (%s vs %s)", s.name, a, b)
		}
	}
}

// TestClassProgressEndsAtTotal checks every class's SSE stream: the last
// progress event before done reports the whole experiment finished.
func TestClassProgressEndsAtTotal(t *testing.T) {
	for _, c := range classBodies {
		t.Run(c.class, func(t *testing.T) {
			gate := make(chan struct{})
			opts := Options{Workers: 1}
			opts.beforeRun = func(*job) { <-gate }
			s, ts := newTestServer(t, opts)
			code, doc, _ := postJSON(t, ts, c.body)
			if code != http.StatusAccepted {
				t.Fatalf("POST: status %d", code)
			}
			events := openEvents(t, s, ts, doc.ID)
			defer events.Close()
			close(gate)

			var last *runner.Snapshot
			stream := readSSE(events)
			for _, ev := range stream {
				if ev.name == "progress" {
					last = new(runner.Snapshot)
					if err := json.Unmarshal([]byte(ev.data), last); err != nil {
						t.Fatalf("progress event: %v (%s)", err, ev.data)
					}
				}
			}
			if len(stream) == 0 || stream[len(stream)-1].name != "done" {
				t.Fatal("stream ended without a done event")
			}
			if last == nil || last.Total == 0 || last.Done != last.Total {
				t.Fatalf("last progress event %+v, want done == total > 0", last)
			}
		})
	}
}
