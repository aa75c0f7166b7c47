package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// runWith invokes run() as the CLI would, with fresh flags and captured
// stdout.
func runWith(t *testing.T, args ...string) (string, error) {
	t.Helper()
	flag.CommandLine = flag.NewFlagSet("fttrace", flag.ContinueOnError)
	oldArgs := os.Args
	os.Args = append([]string{"fttrace"}, args...)
	defer func() { os.Args = oldArgs }()

	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	oldStdout := os.Stdout
	os.Stdout = f
	runErr := run()
	os.Stdout = oldStdout
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	return string(out), runErr
}

// TestUnknownFormatFails: an unknown -format must error out (main exits
// non-zero) and the message must list the valid formats.
func TestUnknownFormatFails(t *testing.T) {
	_, err := runWith(t, "-format=bogus")
	if err == nil {
		t.Fatal("unknown format did not fail")
	}
	for _, want := range []string{"text", "jsonl", "chrome", "spans"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list format %q", err, want)
		}
	}
}

// TestServiceFormatNeedsFleet: -format=service has no local producer, so
// without -url/-id it must fail with a message pointing at the remote
// fetch flags.
func TestServiceFormatNeedsFleet(t *testing.T) {
	_, err := runWith(t, "-format=service")
	if err == nil {
		t.Fatal("-format=service without -url/-id did not fail")
	}
	for _, want := range []string{"-url", "-id"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRemoteFetchFlagValidation: remote fetch needs both -url and -id,
// and rejects the local-only text format before touching the network.
func TestRemoteFetchFlagValidation(t *testing.T) {
	if _, err := runWith(t, "-url=http://localhost:0"); err == nil {
		t.Error("-url without -id did not fail")
	}
	if _, err := runWith(t, "-id=sha256:abc"); err == nil {
		t.Error("-id without -url did not fail")
	}
	_, err := runWith(t, "-url=http://localhost:0", "-id=sha256:abc", "-format=text")
	if err == nil {
		t.Fatal("remote fetch with -format=text did not fail")
	}
	if !strings.Contains(err.Error(), "local-only") {
		t.Errorf("error %q does not say text is local-only", err)
	}
}

// TestRemoteFetchStreams: with a live endpoint, fttrace relays the
// trace bytes verbatim and turns non-200 answers into errors.
func TestRemoteFetchStreams(t *testing.T) {
	const body = `{"traceEvents":[]}` + "\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/experiments/sha256:abc/trace" && r.URL.Query().Get("format") == "service" {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, body)
			return
		}
		http.Error(w, "no such experiment", http.StatusNotFound)
	}))
	defer ts.Close()

	out, err := runWith(t, "-url="+ts.URL, "-id=sha256:abc", "-format=service")
	if err != nil {
		t.Fatal(err)
	}
	if out != body {
		t.Errorf("remote fetch relayed %q, want %q", out, body)
	}

	_, err = runWith(t, "-url="+ts.URL, "-id=sha256:missing", "-format=service")
	if err == nil {
		t.Fatal("404 from the fleet did not become an error")
	}
	if !strings.Contains(err.Error(), "no such experiment") {
		t.Errorf("error %q does not carry the server's body", err)
	}
}

// TestSpansFormat: -format=spans writes one JSON span per line, each with a
// phase breakdown.
func TestSpansFormat(t *testing.T) {
	out, err := runWith(t, "-format=spans", "-ops=60", "-faults=3000")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace([]byte(out)), []byte("\n"))
	if len(lines) < 10 {
		t.Fatalf("only %d spans exported", len(lines))
	}
	for _, line := range lines {
		var span struct {
			TID    uint64            `json:"tid"`
			Class  string            `json:"class"`
			Cycles uint64            `json:"cycles"`
			Phases map[string]uint64 `json:"phases"`
		}
		if err := json.Unmarshal(line, &span); err != nil {
			t.Fatalf("invalid span line %s: %v", line, err)
		}
		if span.TID == 0 || span.Class == "" {
			t.Fatalf("span missing tid/class: %s", line)
		}
		var attributed uint64
		for _, v := range span.Phases {
			attributed += v
		}
		if attributed != span.Cycles {
			t.Fatalf("span %d: phases sum %d != cycles %d", span.TID, attributed, span.Cycles)
		}
	}
}

// TestReplayRejectsNegativeOps: a replay document whose configuration
// carries a negative operation count fails with the simulator's error
// instead of panicking while building the baseline system.
func TestReplayRejectsNegativeOps(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/interleave.json")
	if err != nil {
		t.Fatal(err)
	}
	crafted := strings.Replace(string(raw), `"OpsPerCore": 2,`, `"OpsPerCore": -1,`, 1)
	if crafted == string(raw) {
		t.Fatal("testdata/interleave.json carries no \"OpsPerCore\": 2 to rewrite")
	}
	path := t.TempDir() + "/neg.json"
	if err := os.WriteFile(path, []byte(crafted), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = runWith(t, "-replay", path)
	if err == nil || !strings.Contains(err.Error(), "system: negative operations per core -1") {
		t.Fatalf("replay of a negative-ops document: err = %v", err)
	}
}
