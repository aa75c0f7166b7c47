//go:build !race

// The allocation pins are meaningless under the race detector: sync.Pool
// deliberately drops a random fraction of recycled items when -race is on,
// so allocs/op inflates nondeterministically.

package serve

import "testing"

// TestRequestKeyAllocsPin pins the allocations of content-addressing one
// request, which every POST pays twice (router and shard), cache hits
// included. canon canonicalises encoding/json's output in one pass over
// pooled buffers, so hashing a resolved quick run measures 1 allocation,
// the returned string; decoding that output into a generic tree and
// re-encoding it measured 209.
func TestRequestKeyAllocsPin(t *testing.T) {
	res, err := resolveRequest([]byte(`{"type":"run","quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	key := func() {
		if _, err := res.key(); err != nil {
			t.Fatal(err)
		}
	}
	key() // warm the pools
	const maxAllocs = 8
	n := testing.AllocsPerRun(100, key)
	t.Logf("resolved.key: %.0f allocs", n)
	if n > maxAllocs {
		t.Errorf("resolved.key: %.0f allocs, want <= %d", n, maxAllocs)
	}
}

// TestResolveAndKeyAllocsPin pins the whole submission fast path of
// BenchmarkRequestKey's sweep body: strict decoding of the body and its
// config overrides, validation and the key. It measures 26 allocations,
// nearly all in encoding/json's decoding; the tree-based key and a
// workload list rebuilt per request measured 272.
func TestResolveAndKeyAllocsPin(t *testing.T) {
	body := []byte(`{"type":"sweep","quick":true,"rates":[0,125,250,500,1000],"config":{"OpsPerCore":500}}`)
	submit := func() {
		res, err := resolveRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.key(); err != nil {
			t.Fatal(err)
		}
	}
	submit()
	const maxAllocs = 60
	n := testing.AllocsPerRun(100, submit)
	t.Logf("resolveRequest + key: %.0f allocs", n)
	if n > maxAllocs {
		t.Errorf("resolveRequest + key: %.0f allocs, want <= %d (272 before the one-pass key)", n, maxAllocs)
	}
}
