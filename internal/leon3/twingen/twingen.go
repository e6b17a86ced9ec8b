// Package twingen writes the clean twin of the leon3 pipeline: a copy of
// the stage processes whose net reads skip the kernel's probes.
//
// The rtl kernel forces faults and records witnessed reads inside
// Signal.Get and MemArray.Read, so every read of every cycle tests whether
// its net is forced or watched. On a cycle with nothing armed no test can
// succeed, and the kernel runs a second build of each process instead
// (rtl.Kernel.Twin). Generate makes that build from the hand-written one:
// it copies the method the core registers as its probed process,
// cycleProbed, and every function of the sources it reaches that reads a
// net, each under the name with a Clean suffix (cycleProbed becomes
// cycleClean), and rewrites the probed reads in the copies — and nothing
// else — to their raw forms:
//
//	(*rtl.Signal).Get      → Raw
//	(*rtl.Signal).GetBool  → RawBool
//	(*rtl.MemArray).Read   → ReadRaw
//
// Writes stay as they are: MemArray.Write keeps the touched-word tracking
// a restored kernel needs whatever is armed. Reads are found by type, not
// by name, so a method of another type that happens to be called Get is
// left alone.
//
// Run it with go generate ./internal/leon3; a test in this package fails
// when the committed twin differs from what Generate writes by one byte.
package twingen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/format"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Sources are the files the twin is copied from, in the order their
// copies appear in Output.
var Sources = []string{"stages.go", "execute.go", "muldiv.go"}

// Output is the generated file, beside the sources.
const Output = "stages_clean.go"

const (
	root   = "cycleProbed" // the probed process the core registers
	suffix = "Clean"
)

// raw maps each probed read to its raw form.
var raw = map[string]string{
	"(*repro/internal/rtl.Signal).Get":     "Raw",
	"(*repro/internal/rtl.Signal).GetBool": "RawBool",
	"(*repro/internal/rtl.MemArray).Read":  "ReadRaw",
}

// twinName is the name of fn's copy.
func twinName(fn string) string { return strings.TrimSuffix(fn, "Probed") + suffix }

// Generate returns the formatted contents of Output for the package in
// dir, type-checking it from source (the module's packages through the go
// command).
func Generate(dir string) ([]byte, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range bp.GoFiles {
		if name == Output {
			continue // the twin being replaced: the package is checked without it
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var typeErrs []types.Error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(err error) { typeErrs = append(typeErrs, err.(types.Error)) },
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf.Check(bp.ImportPath, fset, files, info) // errors collected above

	// Every function and method of the package, by its object.
	decls := map[types.Object]*ast.FuncDecl{}
	fileOf := map[*ast.FuncDecl]*ast.File{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && info.Defs[fd.Name] != nil {
				decls[info.Defs[fd.Name]] = fd
				fileOf[fd] = f
			}
		}
	}
	// What each one reads through a probe, and which of them it uses.
	probes := map[*ast.FuncDecl]bool{}
	uses := map[*ast.FuncDecl][]*ast.FuncDecl{}
	for _, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if probedRead(info, n) != "" {
					probes[fd] = true
				}
			case *ast.Ident:
				if g, ok := decls[info.Uses[n]]; ok && g != fd {
					uses[fd] = append(uses[fd], g)
				}
			}
			return true
		})
	}
	// needs: the function reads a net, itself or through what it uses.
	needs := map[*ast.FuncDecl]bool{}
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			if needs[fd] {
				continue
			}
			if probes[fd] || slices.ContainsFunc(uses[fd], func(g *ast.FuncDecl) bool { return needs[g] }) {
				needs[fd], changed = true, true
			}
		}
	}
	var start *ast.FuncDecl
	for _, fd := range decls {
		if fd.Name.Name == root && fd.Recv != nil {
			start = fd
		}
	}
	if start == nil {
		return nil, fmt.Errorf("twingen: %s: no method %s", dir, root)
	}
	// The twin: what the root reaches that needs a copy.
	twin := map[*ast.FuncDecl]bool{}
	var visit func(*ast.FuncDecl) error
	visit = func(fd *ast.FuncDecl) error {
		if twin[fd] || !needs[fd] {
			return nil
		}
		if f := filepath.Base(fset.File(fd.Pos()).Name()); !slices.Contains(Sources, f) {
			return fmt.Errorf("twingen: %s reads a net and is reached from %s, but %s is not a source", fd.Name.Name, root, f)
		}
		twin[fd] = true
		for _, g := range uses[fd] {
			if err := visit(g); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(start); err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for fd := range twin {
		names[twinName(fd.Name.Name)] = true
	}
	// The package was checked without the twin; the only errors allowed
	// are references to the twin's names.
	for _, e := range typeErrs {
		if !undefinedTwin(e.Msg, names) {
			return nil, fmt.Errorf("twingen: %v", e)
		}
	}

	// Rewrite the copies in place: reads to raw, uses of copied functions
	// to their twins.
	var order []*ast.FuncDecl
	imports := map[string]string{} // path → name
	for fd := range twin {
		order = append(order, fd)
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if r := probedRead(info, n); r != "" {
					n.Sel.Name = r
				}
			case *ast.Ident:
				switch obj := info.Uses[n].(type) {
				case *types.PkgName:
					imports[obj.Imported().Path()] = obj.Name()
				default:
					if g, ok := decls[obj]; ok && twin[g] {
						n.Name = twinName(g.Name.Name)
					}
				}
			}
			return true
		})
	}
	sort.Slice(order, func(i, j int) bool {
		fi := slices.Index(Sources, filepath.Base(fset.File(order[i].Pos()).Name()))
		fj := slices.Index(Sources, filepath.Base(fset.File(order[j].Pos()).Name()))
		if fi != fj {
			return fi < fj
		}
		return order[i].Pos() < order[j].Pos()
	})

	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by twingen from %s; DO NOT EDIT.\n\n", strings.Join(Sources, ", "))
	b.WriteString("// This file is the leon3 pipeline's clean twin: what cycleProbed runs,\n")
	b.WriteString("// with every net read raw. The kernel runs it on cycles with nothing armed\n")
	b.WriteString("// (rtl.Kernel.Twin). Edit the sources and run go generate ./internal/leon3.\n\n")
	fmt.Fprintf(&b, "package %s\n\nimport (\n", bp.Name)
	paths := make([]string, 0, len(imports))
	for p := range imports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if imports[p] != filepath.Base(p) {
			b.WriteString(imports[p] + " ")
		}
		b.WriteString(strconv.Quote(p) + "\n")
	}
	b.WriteString(")\n")
	for _, fd := range order {
		orig := fd.Name.Name
		fd.Name.Name = twinName(orig)
		fd.Doc = nil
		fmt.Fprintf(&b, "\n// %s is %s with raw reads.\n", fd.Name.Name, orig)
		if err := format.Node(&b, fset, &printer.CommentedNode{Node: fd, Comments: fileOf[fd].Comments}); err != nil {
			return nil, err
		}
		b.WriteString("\n")
	}
	return format.Source(b.Bytes())
}

// probedRead returns the raw form of the read sel selects, called or taken
// as a method value, or "" when sel is not a probed read.
func probedRead(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	return raw[s.Obj().(*types.Func).FullName()]
}

// undefinedTwin reports whether a type error says a twin name is missing.
func undefinedTwin(msg string, names map[string]bool) bool {
	for n := range names {
		if strings.Contains(msg, "undefined: "+n) || strings.Contains(msg, "no field or method "+n+")") {
			return true
		}
	}
	return false
}
