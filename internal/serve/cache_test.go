package serve

import (
	"fmt"
	"strings"
	"testing"

	"repro"
)

// TestCacheKeyResolution pins the content-addressing semantics: requests
// that mean the same experiment share a key, requests that differ in any
// identity-bearing field do not.
func TestCacheKeyResolution(t *testing.T) {
	key := func(body string) string { return mustKey(t, body) }

	base := key(`{"type":"run","quick":true}`)
	sameByOrder := key(`{"quick":true,"type":"run"}`)
	if base != sameByOrder {
		t.Error("field order changed the cache key")
	}
	explicitDefaults := key(`{"type":"run","quick":true,"workload":"uniform"}`)
	if base != explicitDefaults {
		t.Error("spelling out the default workload changed the cache key")
	}
	if !strings.HasPrefix(base, "sha256:") {
		t.Errorf("key %q is not a sha256 content address", base)
	}

	for name, body := range map[string]string{
		"different type":     `{"type":"compare","quick":true}`,
		"different workload": `{"type":"run","quick":true,"workload":"migratory"}`,
		"full-size config":   `{"type":"run"}`,
		"config override":    `{"type":"run","quick":true,"config":{"OpsPerCore":999}}`,
	} {
		if key(body) == base {
			t.Errorf("%s collided with the base key", name)
		}
	}

	// Sweeps with different rate lists are different experiments.
	s1 := key(`{"type":"sweep","quick":true,"rates":[0,100]}`)
	s2 := key(`{"type":"sweep","quick":true,"rates":[0,200]}`)
	if s1 == s2 {
		t.Error("sweep rate lists did not differentiate keys")
	}

	// Coverage params are identity-bearing too.
	c1 := key(`{"type":"coverage","quick":true,"coverage":{"seed":1}}`)
	c2 := key(`{"type":"coverage","quick":true,"coverage":{"seed":2}}`)
	if c1 == c2 {
		t.Error("coverage seeds did not differentiate keys")
	}
}

// TestResolveRejectsUnknownProtocol: a protocol number outside the four
// is refused when the request is resolved, before it gets a job ID, and
// never runs as some other protocol.
func TestResolveRejectsUnknownProtocol(t *testing.T) {
	for _, p := range []int{0, 5, 9, -1} {
		body := fmt.Sprintf(`{"type":"run","quick":true,"config":{"Protocol":%d}}`, p)
		if _, err := resolveRequest([]byte(body)); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
			t.Errorf("Protocol %d: err = %v, want an unknown-protocol rejection", p, err)
		}
	}
	for _, p := range []repro.Protocol{repro.DirCMP, repro.FtDirCMP, repro.TokenCMP, repro.FtTokenCMP} {
		body := fmt.Sprintf(`{"type":"run","quick":true,"config":{"Protocol":%d}}`, int(p))
		req, err := resolveRequest([]byte(body))
		if err != nil {
			t.Errorf("Protocol %v: %v", p, err)
		} else if req.Config.Protocol != p {
			t.Errorf("Protocol %v resolved as %v", p, req.Config.Protocol)
		}
	}
}

// TestCacheKeyIgnoresParallelism: Parallelism is execution policy, not
// experiment identity — a request carrying it resolves to the same key.
// (Config.Parallelism is json:"-" so overriding it is rejected outright;
// the resolver also zeroes it for defence in depth.)
func TestCacheKeyIgnoresParallelism(t *testing.T) {
	if _, err := resolveRequest([]byte(`{"type":"run","quick":true,"config":{"Parallelism":8}}`)); err == nil {
		t.Fatal("Parallelism override was accepted; it must be rejected as unknown")
	}
	req, err := resolveRequest([]byte(`{"type":"run","quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Config.Parallelism != 0 {
		t.Fatalf("resolved Parallelism = %d, want 0", req.Config.Parallelism)
	}
}
