package main

import (
	"context"
	"flag"
	"io"
	"os"
	"testing"
)

// runWith invokes run() as the CLI would, with fresh flags and captured
// stdout.
func runWith(t *testing.T, args ...string) (string, error) {
	t.Helper()
	flag.CommandLine = flag.NewFlagSet("ftcheck", flag.ContinueOnError)
	oldArgs := os.Args
	os.Args = append([]string{"ftcheck"}, args...)
	defer func() { os.Args = oldArgs }()

	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	oldStdout := os.Stdout
	os.Stdout = f
	runErr := run(context.Background())
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

// TestOutputIdenticalAcrossParallelism: the model-checking gate and the
// exhaustive loss campaign pass (exit status zero) and print the same
// bytes at -j 1 and -j 4.
func TestOutputIdenticalAcrossParallelism(t *testing.T) {
	for _, mode := range [][]string{
		{"-interleave"},
		{"-exhaustive", "-ops", "10", "-doubles", "4"},
	} {
		serial, err := runWith(t, append(mode, "-j", "1")...)
		if err != nil {
			t.Fatalf("%v -j 1: %v", mode, err)
		}
		parallel, err := runWith(t, append(mode, "-j", "4")...)
		if err != nil {
			t.Fatalf("%v -j 4: %v", mode, err)
		}
		if serial == "" {
			t.Fatalf("%v printed nothing", mode)
		}
		if serial != parallel {
			t.Errorf("%v: stdout differs between -j 1 and -j 4:\n-j 1:\n%s\n-j 4:\n%s", mode, serial, parallel)
		}
	}
}
