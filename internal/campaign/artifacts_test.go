package campaign

import (
	"os"
	"strings"
	"testing"
)

// TestArtifactsMatchGolden renders every untimed artifact at small, as
// `correlate -exp all -nodes 48` prints it, and holds the bytes to
// testdata/artifacts.golden. On a mismatch the fresh rendering is written to
// a temporary file the failure names: diff it against the golden file, and
// copy it over when the change is meant.
//
// The rendering is a pure function of the options (node samples, transient
// instants and every sum are seeded or ordered), so the file holds on every
// platform; the race matrix's macOS (arm64) leg is what checks that. If a
// digit ever differs there, Go may have fused an a*b+c into one operation:
// the fix is an explicit float64() conversion in internal/stats, not a
// looser comparison.
func TestArtifactsMatchGolden(t *testing.T) {
	var got strings.Builder
	for _, a := range Artifacts() {
		if a.Timed {
			continue
		}
		r, err := a.Run(small)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		got.WriteString(r.Render() + "\n")
	}
	want, err := os.ReadFile("testdata/artifacts.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	f, err := os.CreateTemp("", "artifacts-*.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(got.String()); err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	line := 0
	for line < len(gl) && line < len(wl) && gl[line] == wl[line] {
		line++
	}
	t.Fatalf("rendering differs from testdata/artifacts.golden from line %d on; the fresh one is %s", line+1, f.Name())
}
