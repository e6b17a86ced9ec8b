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
	fuzzTarget = regexp.MustCompile(`(?m)^\t.*-fuzz (\w+)`)         // in a recipe line
	makeTarget = regexp.MustCompile(`(?m)^([a-z][\w-]*):`)          // a rule of the Makefile
	makeRun    = regexp.MustCompile(`(?m)^\s*run: make ([\w -]+)$`) // a CI step
	backticked = regexp.MustCompile("`([^`]+)`")
)

// makeTargets lists the Makefile's targets.
func makeTargets(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, m := range makeTarget.FindAllStringSubmatch(readFile(t, "Makefile"), -1) {
		out = append(out, m[1])
	}
	if len(out) == 0 {
		t.Fatal("no targets found in the Makefile: the pattern above no longer reads them")
	}
	return out
}

// TestCINamesExist: every make target a step of the CI workflow runs is a
// target of the Makefile, and every -fuzz target of the Makefile is a
// function of some _test.go file. A stale name fails only when its step
// or target runs; this fails it before.
func TestCINamesExist(t *testing.T) {
	targets := map[string]bool{}
	for _, name := range makeTargets(t) {
		targets[name] = true
	}
	steps := makeRun.FindAllStringSubmatch(readFile(t, ".github/workflows/ci.yml"), -1)
	if len(steps) == 0 {
		t.Fatal("no make steps found in ci.yml: the pattern above no longer reads them")
	}
	for _, m := range steps {
		for _, name := range strings.Fields(m[1]) {
			if !targets[name] {
				t.Errorf("ci.yml runs make %s, which is no target of the Makefile", name)
			}
		}
	}

	defined := map[string]bool{}
	for _, f := range repoFiles(t) {
		if strings.HasSuffix(f, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(readFile(t, f), -1) {
				defined[m[1]] = true
			}
		}
	}
	fuzzed := fuzzTarget.FindAllStringSubmatch(readFile(t, "Makefile"), -1)
	if len(fuzzed) == 0 {
		t.Fatal("no -fuzz targets found in the Makefile: the pattern above no longer reads them")
	}
	for _, m := range fuzzed {
		if !defined[m[1]] {
			t.Errorf("the Makefile fuzzes %s, which no _test.go file defines", m[1])
		}
	}
}

// TestMakeTargetsDocumented: every target of the Makefile is named, in
// backticks, in docs/ARCHITECTURE.md's "Make targets" section — its prose
// or its table.
func TestMakeTargetsDocumented(t *testing.T) {
	doc := readFile(t, "docs/ARCHITECTURE.md")
	start := strings.Index(doc, "\n## Make targets\n")
	if start < 0 {
		t.Fatal(`docs/ARCHITECTURE.md has no "## Make targets" section`)
	}
	section := doc[start+1:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	named := map[string]bool{}
	for _, m := range backticked.FindAllStringSubmatch(section, -1) {
		for _, word := range strings.Fields(m[1]) {
			named[word] = true
		}
	}
	for _, name := range makeTargets(t) {
		if !named[name] {
			t.Errorf("the Makefile's target %s is not named in docs/ARCHITECTURE.md's \"Make targets\"", name)
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
