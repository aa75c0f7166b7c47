package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro"
)

// fuzzSeedBodies are the request bodies the serve tests submit, plus the
// three bodies that once passed validation and then crashed or hung a run:
// a zero serial-number width, a zero Table 3 timeout and a negative
// operation count.
var fuzzSeedBodies = []string{
	`{"type":"run"}`,
	`{"type":"run","quick":true}`,
	`{"type":"run","quick":true,"workload":"migratory"}`,
	`{"type":"run","quick":true,"config":{"OpsPerCore":200}}`,
	`{"type":"run","quick":true,"config":{"OpsPerCore":20,"RecordEvents":true,"RecordSpans":true}}`,
	`{"type":"run","quick":true,"config":{"Parallelism":8}}`,
	`{"type":"sweep","quick":true,"rates":[0,100],"config":{"OpsPerCore":200}}`,
	`{"type":"compare","quick":true,"config":{"OpsPerCore":100}}`,
	`{"type":"coverage","quick":true,"config":{"OpsPerCore":200},"coverage":{"max_slots_per_type":2,"double_fault_samples":2}}`,
	`{"type":"tile-death","quick":true,"config":{"OpsPerCore":20},"tile_death":{"max_slots_per_type":1}}`,
	`{"type":"interleave","quick":true,"workload":"handoff","config":{"OpsPerCore":2},"interleave":{"fault_budget":1}}`,
	`{"type":"interleave"}`,
	`{"type":"explode"}`,
	`{"type":"run","workload":"mystery"}`,
	`{"type":"run","config":{"Bogus":3}}`,
	`{"type":"run","rates":[1,2]}`,
	`{"type":"run"} {"x":1}`,
	`{"type":"run","TYPE":"compare","quick":true}`,
	`{"type":"run","quick":true,"config":{"Protocol":2,"SerialNumberBits":0}}`,
	`{"type":"run","quick":true,"config":{"Protocol":2,"LostUnblockTimeout":0}}`,
	`{"type":"run","quick":true,"config":{"OpsPerCore":-1}}`,
}

// Execution budget for accepted run bodies. The fuzz target checks that a
// validated configuration runs to a Result or an error; configurations
// that are valid but merely big are not its subject, so the harness runs
// only those that fit a small memory and time budget.
const (
	fuzzMaxTiles       = 64
	fuzzMaxCacheBytes  = 64 << 20 // L1 plus L2 bank, summed over tiles
	fuzzMaxMems        = 64
	fuzzMaxEventBuffer = 1 << 20
	fuzzMaxCycles      = 200_000
	fuzzRunDeadline    = 2 * time.Second
)

// FuzzResolveRequest fuzzes the POST /v1/experiments body. resolveRequest
// must never panic; a body and its re-encoding through map[string]any
// (same members, different field order) must resolve to the same cache key
// or both fail; and an accepted run body of at most 64 tiles, executed
// with at most one operation per core, must yield a Result or an error within the
// deadline — never a panic, never a hang.
func FuzzResolveRequest(f *testing.F) {
	for _, body := range fuzzSeedBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		res, err := resolveRequest(body)
		var key string
		if err == nil {
			if key, err = res.key(); err != nil {
				t.Fatalf("accepted body has no cache key: %v", err)
			}
		}
		if reordered, ok := reencode(body); ok {
			res2, err2 := resolveRequest(reordered)
			switch {
			case (err == nil) != (err2 == nil):
				t.Fatalf("field order changed the verdict:\n%s -> %v\n%s -> %v", body, err, reordered, err2)
			case err == nil:
				key2, err := res2.key()
				if err != nil || key2 != key {
					t.Fatalf("field order changed the key:\n%s -> %s\n%s -> %s (%v)", body, key, reordered, key2, err)
				}
			}
		}
		if res == nil || res.Type != "run" {
			return
		}
		cfg := res.Config
		tiles := cfg.MeshWidth * cfg.MeshHeight
		if tiles < 1 || tiles > fuzzMaxTiles || cfg.MemControllers > fuzzMaxMems ||
			cfg.EventBufferSize > fuzzMaxEventBuffer ||
			cfg.L1Size > fuzzMaxCacheBytes || cfg.L2BankSize > fuzzMaxCacheBytes ||
			(cfg.L1Size+cfg.L2BankSize)*tiles > fuzzMaxCacheBytes {
			return
		}
		if cfg.OpsPerCore > 1 {
			cfg.OpsPerCore = 1
		}
		if cfg.CycleLimit == 0 || cfg.CycleLimit > fuzzMaxCycles {
			cfg.CycleLimit = fuzzMaxCycles
		}
		ctx, cancel := context.WithTimeout(context.Background(), fuzzRunDeadline)
		defer cancel()
		if _, err := repro.RunContext(ctx, cfg, res.Workload); errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run of an accepted body hit the %v deadline: %s", fuzzRunDeadline, body)
		}
	})
}

// reencode decodes a JSON object into map[string]any and marshals it back:
// the same members in sorted-key order, numbers kept verbatim. It reports
// false when body is not a single JSON object.
func reencode(body []byte) ([]byte, bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil || m == nil || dec.More() {
		return nil, false
	}
	out, err := json.Marshal(m)
	return out, err == nil
}

// TestCheckMemberNames pins the duplicate-member scan on the shapes a
// request body can take: nested objects and arrays, names compared without
// regard to case (and through escapes), and braces inside strings.
func TestCheckMemberNames(t *testing.T) {
	cases := []struct {
		body string
		dup  bool
	}{
		{`{"type":"run","TYPE":"sweep"}`, true},
		{`{"type":"run","type":"run"}`, true},
		{`{"type":"run","config":{"OpsPerCore":1,"opspercore":2}}`, true},
		{`{"type":"run","config":{"OpsPerCore":1,"Seed":2}}`, false},
		{`{"a":[{"x":1},{"x":2}],"b":{"x":1}}`, false},
		{`{"a":{"x":1,"y":{"x":2}},"A":1}`, true},
		{`{"\u0074ype":"run","type":"sweep"}`, true},
		{`{"a\\":1,"b\\":2}`, false},
		{`{"k":"}","K2":"{\"k\":1}"}`, false},
		{` [ {"k":1, "K":2} ] `, true},
		{`null`, false},
	}
	for _, c := range cases {
		if err := checkMemberNames([]byte(c.body)); (err != nil) != c.dup {
			t.Errorf("%s: got %v, want duplicate=%v", c.body, err, c.dup)
		}
	}
}
