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

// TestServiceDoesNotImportArtifacts: the paper's artifacts (internal/campaign)
// run as job-service requests, so the dependency points one way. No file
// under the service's packages and commands imports internal/campaign, and
// neither does any package the service's builds pull in.
func TestServiceDoesNotImportArtifacts(t *testing.T) {
	const module, artifacts = "repro/", "internal/campaign"
	service := []string{"internal/jobs", "internal/server", "internal/store", "cmd/faultserverd", "cmd/faultcampaign"}
	deps := map[string][]string{} // a directory's non-test imports within the module
	fset := token.NewFileSet()
	for _, p := range repoFiles(t) {
		if !strings.HasSuffix(p, ".go") || slices.Contains(strings.Split(p, "/"), "testdata") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		dir := path.Dir(p)
		for _, im := range f.Imports {
			imp, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(imp, module)
			if !ok {
				continue
			}
			if rel == artifacts && slices.Contains(service, dir) {
				t.Errorf("%s imports %s%s", p, module, artifacts)
			}
			if !strings.HasSuffix(p, "_test.go") && !slices.Contains(deps[dir], rel) {
				deps[dir] = append(deps[dir], rel)
			}
		}
	}
	// cmd/faultcampaign reaches the artifacts through the public API
	// (repro/core), which serves them too; the daemon's build must not.
	for _, root := range service[:4] {
		seen := map[string]bool{root: true}
		for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
			for _, d := range deps[queue[0]] {
				if seen[d] {
					continue
				}
				if d == artifacts {
					t.Errorf("%s depends on %s%s through %s", root, module, artifacts, queue[0])
				}
				seen[d] = true
				queue = append(queue, d)
			}
		}
	}
}
