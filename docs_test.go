package repro

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents cite DESIGN.md's sections by number and the repository's
// files by name. These tests fail when a citation dangles, so a re-cut of
// DESIGN.md or a renamed file cannot leave a stale pointer behind.

var (
	designCite    = regexp.MustCompile("DESIGN\\.md`?\\s*§(\\d+)")
	designSection = regexp.MustCompile(`(?m)^## §(\d+) `)
	fileCite      = regexp.MustCompile("`([^`\\s]+\\.(?:go|md|json))`")
)

// repoFiles lists every file under the repository root, slash-separated,
// leaving out .git and the benchmark's untracked scratch (.gitignore).
func repoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_tmp" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			files = append(files, filepath.ToSlash(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func readFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDesignCitationsResolve: every DESIGN.md section cited by number in
// a .go or .md file is a "## §N" heading of DESIGN.md. CHANGES.md (the
// history) and ISSUE.md (a task statement) quote sections as they were;
// bench/ is a contract only a benchmark change edits.
func TestDesignCitationsResolve(t *testing.T) {
	sections := map[string]bool{}
	for _, m := range designSection.FindAllStringSubmatch(readFile(t, "DESIGN.md"), -1) {
		sections[m[1]] = true
	}
	for _, f := range repoFiles(t) {
		if f == "CHANGES.md" || f == "ISSUE.md" || strings.HasPrefix(f, "bench/") {
			continue
		}
		if ext := path.Ext(f); ext != ".go" && ext != ".md" {
			continue
		}
		for i, line := range strings.Split(readFile(t, f), "\n") {
			for _, m := range designCite.FindAllStringSubmatch(line, -1) {
				if !sections[m[1]] {
					t.Errorf("%s:%d cites DESIGN.md §%s, which has no such section", f, i+1, m[1])
				}
			}
		}
	}
}

// TestDocumentedFilesExist: every backticked .go, .md or .json name in
// DESIGN.md, README.md and docs/ARCHITECTURE.md is a file. A name with a
// directory is a path from the repository root (or the tail of one); a
// bare name may live anywhere.
func TestDocumentedFilesExist(t *testing.T) {
	files := repoFiles(t)
	exists := func(name string) bool {
		for _, f := range files {
			if f == name || strings.HasSuffix(f, "/"+name) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "docs/ARCHITECTURE.md"} {
		for i, line := range strings.Split(readFile(t, doc), "\n") {
			for _, m := range fileCite.FindAllStringSubmatch(line, -1) {
				if !exists(m[1]) {
					t.Errorf("%s:%d names `%s`, which is no file in the repository", doc, i+1, m[1])
				}
			}
		}
	}
}

var (
	testFunc   = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	runPattern = regexp.MustCompile(`-run '([^']*)'`)
	testName   = regexp.MustCompile(`\b(?:Test|Fuzz)\w+`)
	fuzzTarget = regexp.MustCompile(`(?m)^\t.*-fuzz (\w+)`) // in a recipe line
)

// TestCINamesExist: every Test… or Fuzz… name in a -run pattern of the CI
// workflow, and every -fuzz target of the Makefile, is a function of some
// _test.go file. A pattern that names a renamed test still passes — it
// matches nothing — so without this the test silently drops out of the
// step that selects it.
func TestCINamesExist(t *testing.T) {
	defined := map[string]bool{}
	for _, f := range repoFiles(t) {
		if strings.HasSuffix(f, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(readFile(t, f), -1) {
				defined[m[1]] = true
			}
		}
	}
	cited := map[string]string{}
	for _, m := range runPattern.FindAllStringSubmatch(readFile(t, ".github/workflows/ci.yml"), -1) {
		for _, name := range testName.FindAllString(m[1], -1) {
			cited[name] = "ci.yml"
		}
	}
	for _, m := range fuzzTarget.FindAllStringSubmatch(readFile(t, "Makefile"), -1) {
		cited[m[1]] = "Makefile"
	}
	if len(cited) == 0 {
		t.Fatal("no test names found in ci.yml or the Makefile: the patterns above no longer read them")
	}
	for name, where := range cited {
		if !defined[name] {
			t.Errorf("%s names %s, which no _test.go file defines", where, name)
		}
	}
}

var fuzzRow = regexp.MustCompile("(?m)^\\| `(Fuzz\\w+)` \\|") // a row of the fuzz table

// TestFuzzTargetsListed is TestCINamesExist's other direction: every Fuzz…
// function of a _test.go file is a -fuzz target of the Makefile, so
// fuzz-smoke runs it, and has a row in docs/ARCHITECTURE.md's fuzz table,
// which says what it holds.
func TestFuzzTargetsListed(t *testing.T) {
	smoked, rows := map[string]bool{}, map[string]bool{}
	for _, m := range fuzzTarget.FindAllStringSubmatch(readFile(t, "Makefile"), -1) {
		smoked[m[1]] = true
	}
	for _, m := range fuzzRow.FindAllStringSubmatch(readFile(t, "docs/ARCHITECTURE.md"), -1) {
		rows[m[1]] = true
	}
	for _, f := range repoFiles(t) {
		if !strings.HasSuffix(f, "_test.go") {
			continue
		}
		for _, m := range testFunc.FindAllStringSubmatch(readFile(t, f), -1) {
			if name := m[1]; strings.HasPrefix(name, "Fuzz") {
				if !smoked[name] {
					t.Errorf("%s defines %s, which no -fuzz target of the Makefile runs", f, name)
				}
				if !rows[name] {
					t.Errorf("%s defines %s, which has no row in docs/ARCHITECTURE.md's fuzz table", f, name)
				}
			}
		}
	}
}
