package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdoutGolden runs the example and holds what it prints to
// testdata/stdout.golden byte for byte, so that no printed figure moves
// unnoticed. On a mismatch the fresh output stays in a temporary file the
// failure names: diff it against the golden file, and copy it over when the
// change is meant.
func TestStdoutGolden(t *testing.T) {
	out, err := os.CreateTemp("", "lockstep-*.stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	main()
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stdout differs from testdata/stdout.golden; the fresh output is %s", out.Name())
	}
	os.Remove(out.Name())
}
