package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testEnvelope(id string, size int) *envelope {
	return &envelope{
		ID:       id,
		Type:     "run",
		Workload: "uniform",
		Created:  time.Unix(1000, 0).UTC(),
		Started:  time.Unix(1001, 0).UTC(),
		Finished: time.Unix(1002, 0).UTC(),
		Result:   json.RawMessage(`{"pad":"` + strings.Repeat("x", size) + `"}`),
	}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	d, err := newDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := testEnvelope("sha256:aabbccddeeff00112233", 10)
	want.EventsJSONL = []byte("{\"kind\":\"x\"}\n")
	if _, err := d.put(want); err != nil {
		t.Fatal(err)
	}
	got, quarantined, err := d.get(want.ID)
	if err != nil || quarantined {
		t.Fatalf("get: quarantined=%v err=%v", quarantined, err)
	}
	if got.V != envelopeVersion || got.ID != want.ID || got.Type != "run" ||
		string(got.Result) != string(want.Result) || string(got.EventsJSONL) != string(want.EventsJSONL) ||
		!got.Created.Equal(want.Created) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// No temp droppings left behind by the atomic write.
	leftovers, _ := filepath.Glob(filepath.Join(d.dir, ".put-*"))
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

func TestStoreMissingEntryIsCleanMiss(t *testing.T) {
	d, err := newDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	env, quarantined, err := d.get("sha256:0011223344556677")
	if env != nil || quarantined || err != nil {
		t.Fatalf("want clean miss, got env=%v quarantined=%v err=%v", env, quarantined, err)
	}
}

// TestStoreQuarantinesCorruptEntries covers every corruption class: bad
// JSON, wrong version, ID mismatch, and an empty result. Each is renamed
// to *.corrupt (kept for postmortem) and reads as a miss afterwards.
func TestStoreQuarantinesCorruptEntries(t *testing.T) {
	cases := []struct {
		name string
		data func(id string) []byte
	}{
		{"truncated json", func(id string) []byte { return []byte(`{"v":1,"id":"` + id) }},
		{"wrong version", func(id string) []byte {
			b, _ := json.Marshal(&envelope{V: 99, ID: id, Result: json.RawMessage(`{}`)})
			return b
		}},
		{"id mismatch", func(id string) []byte {
			b, _ := json.Marshal(&envelope{V: envelopeVersion, ID: "sha256:other", Result: json.RawMessage(`{}`)})
			return b
		}},
		{"no result", func(id string) []byte {
			b, _ := json.Marshal(&envelope{V: envelopeVersion, ID: id})
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := newDiskStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			const id = "sha256:ffeeddccbbaa99887766"
			path := d.entryPath(id)
			if err := os.WriteFile(path, tc.data(id), 0o644); err != nil {
				t.Fatal(err)
			}
			env, quarantined, err := d.get(id)
			if env != nil || !quarantined || err == nil {
				t.Fatalf("want quarantine, got env=%v quarantined=%v err=%v", env, quarantined, err)
			}
			if _, statErr := os.Stat(path + ".corrupt"); statErr != nil {
				t.Fatalf("corrupt entry not preserved: %v", statErr)
			}
			if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
				t.Fatalf("corrupt entry still matches lookups: %v", statErr)
			}
			// Subsequent lookups are clean misses, so the slot can be
			// recomputed and refilled.
			if env, quarantined, err := d.get(id); env != nil || quarantined || err != nil {
				t.Fatalf("post-quarantine lookup: env=%v quarantined=%v err=%v", env, quarantined, err)
			}
		})
	}
}

// TestStoreEvictionIsLRU fills the store past its byte cap and checks
// that the least-recently-accessed entries go first — access, not write,
// order: touching an old entry via get rescues it.
func TestStoreEvictionIsLRU(t *testing.T) {
	dir := t.TempDir()
	d, err := newDiskStore(dir, 0) // unbounded while seeding
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{
		"sha256:1111111111111111", "sha256:2222222222222222",
		"sha256:3333333333333333", "sha256:4444444444444444",
	}
	var entrySize int64
	for i, id := range ids {
		if _, err := d.put(testEnvelope(id, 1000)); err != nil {
			t.Fatal(err)
		}
		// Stamp strictly increasing mtimes explicitly: filesystem mtime
		// granularity is too coarse for back-to-back writes.
		ts := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(d.entryPath(id), ts, ts); err != nil {
			t.Fatal(err)
		}
		if entrySize == 0 {
			fi, _ := os.Stat(d.entryPath(id))
			entrySize = fi.Size()
		}
	}

	// Rescue the oldest entry by reading it (get touches mtime).
	if _, _, err := d.get(ids[0]); err != nil {
		t.Fatal(err)
	}

	// Cap at ~3 entries and write a fifth: the two stalest (ids[1],
	// ids[2]) must go; ids[0] was just touched and survives.
	d.maxBytes = 3*entrySize + entrySize/2
	evicted, err := d.put(testEnvelope("sha256:5555555555555555", 1000))
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 2 {
		t.Fatalf("evicted = %d, want 2", evicted)
	}
	for _, id := range []string{ids[0], ids[3], "sha256:5555555555555555"} {
		if _, statErr := os.Stat(d.entryPath(id)); statErr != nil {
			t.Errorf("entry %s should have survived: %v", id, statErr)
		}
	}
	for _, id := range []string{ids[1], ids[2]} {
		if _, statErr := os.Stat(d.entryPath(id)); !os.IsNotExist(statErr) {
			t.Errorf("entry %s should have been evicted", id)
		}
	}
}

// TestStoreEvictionKeepsJustWrittenEntry: one oversized result must not
// evict itself.
func TestStoreEvictionKeepsJustWrittenEntry(t *testing.T) {
	d, err := newDiskStore(t.TempDir(), 10) // cap smaller than any entry
	if err != nil {
		t.Fatal(err)
	}
	const id = "sha256:abcdefabcdefabcd"
	if _, err := d.put(testEnvelope(id, 500)); err != nil {
		t.Fatal(err)
	}
	if env, _, err := d.get(id); env == nil || err != nil {
		t.Fatalf("just-written entry was evicted: env=%v err=%v", env, err)
	}
}

func TestShardOfIsStableAndInRange(t *testing.T) {
	ids := []string{
		"sha256:00000000000000000000",
		"sha256:8000000000000000ffff",
		"sha256:ffffffffffffffff0000",
		"not-a-content-address",
	}
	seen := make(map[int]bool)
	for _, id := range ids {
		for _, n := range []int{1, 2, 3, 16} {
			got := ShardOf(id, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", id, n, got)
			}
			if got != ShardOf(id, n) {
				t.Fatalf("ShardOf(%q, %d) not deterministic", id, n)
			}
		}
		seen[ShardOf(id, 2)] = true
	}
	// The hex prefixes above are chosen to land on both of 2 shards.
	if len(seen) != 2 {
		t.Fatalf("test IDs all landed on one shard: %v", seen)
	}
	if ShardOf("sha256:whatever", 1) != 0 {
		t.Fatal("n=1 must always be shard 0")
	}
}

// FuzzDiskStoreGet writes arbitrary bytes as a cache entry and loads it.
// Loading must never panic, and must either quarantine the entry (after
// which a second get is a clean miss and the bytes sit in <name>.corrupt)
// or return an envelope with the requested ID, the current version and
// non-empty result bytes. The corpus starts from envelopes put writes.
func FuzzDiskStoreGet(f *testing.F) {
	const id = "sha256:00112233445566778899aabbccddeeff"
	seeds := []*envelope{testEnvelope(id, 8), testEnvelope("sha256:ffee", 1), testEnvelope(id, 0)}
	traced := testEnvelope(id, 4)
	traced.EventsJSONL = []byte("{\"kind\":\"x\"}\n")
	traced.ChromeTrace = []byte(`{"traceEvents":[]}`)
	traced.SpansJSONL = []byte("{}\n")
	seeds = append(seeds, traced)
	d, err := newDiskStore(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	for _, env := range seeds {
		if _, err := d.put(env); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(d.entryPath(env.ID))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	path := d.entryPath(id)
	f.Fuzz(func(t *testing.T, data []byte) {
		// A leftover from the previous input would pass the .corrupt check.
		if err := os.Remove(path + ".corrupt"); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		env, quarantined, err := d.get(id)
		if !quarantined {
			if err != nil || env == nil {
				t.Fatalf("entry neither loaded nor quarantined: env=%v err=%v", env, err)
			}
			if env.ID != id || env.V != envelopeVersion || len(env.Result) == 0 || string(env.Result) == "null" {
				t.Fatalf("loaded a bad envelope: id=%q v=%d result=%q", env.ID, env.V, env.Result)
			}
			return
		}
		if env != nil || err == nil {
			t.Fatalf("quarantined entry returned env=%v err=%v", env, err)
		}
		if again, q, err := d.get(id); again != nil || q || err != nil {
			t.Fatalf("get after quarantine is not a clean miss: env=%v quarantined=%v err=%v", again, q, err)
		}
		if kept, err := os.ReadFile(path + ".corrupt"); err != nil || string(kept) != string(data) {
			t.Fatalf("quarantined bytes not kept in .corrupt: %v", err)
		}
	})
}
