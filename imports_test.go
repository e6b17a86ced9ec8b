package repro

import (
	"go/parser"
	"go/token"
	"path"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsImported: every package under internal/ is
// imported by some file outside its own directory. Nothing outside the
// module can import an internal package, so one that no other directory
// imports is code that no binary, public API or other package's test runs.
func TestEveryInternalPackageIsImported(t *testing.T) {
	const module = "repro/"
	var pkgs []string
	imported := map[string]bool{}
	fset := token.NewFileSet()
	for _, p := range repoFiles(t) {
		if !strings.HasSuffix(p, ".go") || slices.Contains(strings.Split(p, "/"), "testdata") {
			continue
		}
		dir := path.Dir(p)
		if strings.HasPrefix(dir, "internal/") && !slices.Contains(pkgs, dir) {
			pkgs = append(pkgs, dir)
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range f.Imports {
			imp, _ := strconv.Unquote(im.Path.Value) // the parser has checked the literal
			if rel, ok := strings.CutPrefix(imp, module); ok && rel != dir {
				imported[rel] = true
			}
		}
	}
	for _, dir := range pkgs {
		if !imported[dir] {
			t.Errorf("%s: no file outside the package imports %s%s", dir, module, dir)
		}
	}
}
