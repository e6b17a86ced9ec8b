package twingen

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTwinIsCurrent regenerates the leon3 twin and holds the committed
// file to it byte for byte, so a stage edited without go generate fails
// here; and the twin must make no probed read and call no probed stage,
// while its writes stay as written.
func TestTwinIsCurrent(t *testing.T) {
	got, err := Generate("..")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", Output))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		fresh := filepath.Join(t.TempDir(), Output)
		if err := os.WriteFile(fresh, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s is stale: run go generate ./internal/leon3 (fresh output in %s)", Output, fresh)
	}
	s := string(got)
	for _, probed := range []string{".Get()", ".GetBool()", ".Read(", "Comb()", "cycleProbed()"} {
		if strings.Contains(s, probed) {
			t.Errorf("twin calls %s", probed)
		}
	}
	for _, want := range []string{"func (c *Core) cycleClean()", "func (c *Core) executeCombClean()",
		"func u32Clean(", ".RawBool()", ".ReadRaw(", ".Write("} {
		if !strings.Contains(s, want) {
			t.Errorf("twin lacks %q", want)
		}
	}
}
