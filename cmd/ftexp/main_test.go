package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// runWith invokes run() as the CLI would, with fresh flags and captured
// stdout/stderr.
func runWith(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	flag.CommandLine = flag.NewFlagSet("ftexp", flag.ContinueOnError)
	flag.CommandLine.Bool("update-golden", false, "ignored in CLI invocations")
	oldArgs := os.Args
	os.Args = append([]string{"ftexp"}, args...)
	defer func() { os.Args = oldArgs }()

	capture := func(target **os.File) (*os.File, func() string) {
		f, ferr := os.CreateTemp(t.TempDir(), "cap")
		if ferr != nil {
			t.Fatal(ferr)
		}
		old := *target
		*target = f
		return f, func() string {
			*target = old
			if _, serr := f.Seek(0, io.SeekStart); serr != nil {
				t.Fatal(serr)
			}
			data, rerr := io.ReadAll(f)
			if rerr != nil {
				t.Fatal(rerr)
			}
			f.Close()
			return string(data)
		}
	}
	_, restoreOut := capture(&os.Stdout)
	_, restoreErr := capture(&os.Stderr)
	err = run(context.Background())
	stdout = restoreOut()
	stderr = restoreErr()
	return stdout, stderr, err
}

// TestProfileGoldenAndParallelismInvariant pins `ftexp -profile -quick`
// byte-for-byte — the fault-free FtDirCMP-vs-DirCMP per-miss overhead table
// the paper's §5.1 claim rests on — and requires it identical at every -j
// level. Regenerate with `go test -run TestProfileGolden -update-golden
// ./cmd/ftexp`.
func TestProfileGoldenAndParallelismInvariant(t *testing.T) {
	serial, _, err := runWith(t, "-profile", "-quick", "-j=1")
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := runWith(t, "-profile", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Fatal("-profile output differs between -j=1 and -j=0")
	}

	path := filepath.Join("testdata", "profile_quick.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal([]byte(serial), want) {
		t.Fatalf("-profile output differs from golden file; regenerate with -update-golden if intentional.\ngot:\n%s", serial)
	}
}

// TestProgressOnStderr: -progress reports live campaign status on stderr
// and leaves stdout byte-identical.
func TestProgressOnStderr(t *testing.T) {
	quiet, quietErr, err := runWith(t, "-fig=5", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(quietErr, "jobs") {
		t.Fatalf("progress printed without -progress: %q", quietErr)
	}
	loud, loudErr, err := runWith(t, "-fig=5", "-quick", "-progress")
	if err != nil {
		t.Fatal(err)
	}
	if quiet != loud {
		t.Fatal("-progress changed stdout")
	}
	if !strings.Contains(loudErr, "jobs") || !strings.Contains(loudErr, "drops=") {
		t.Fatalf("no progress lines on stderr: %q", loudErr)
	}
}

// TestFigure1Golden pins `ftexp -fig=1` byte for byte: the scripted
// cache-to-cache write miss under DirCMP and FtDirCMP, with every message
// header field the figure shows (serial numbers, requestor, forwarded
// flag, the AckO/AckBD handshake). Regenerate with
// `go test -run TestFigure1Golden -update-golden ./cmd/ftexp`.
func TestFigure1Golden(t *testing.T) {
	out, _, err := runWith(t, "-fig=1")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fig1.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if out != string(want) {
		t.Fatalf("-fig=1 output differs from golden file; regenerate with -update-golden if intentional.\ngot:\n%s", out)
	}
}
