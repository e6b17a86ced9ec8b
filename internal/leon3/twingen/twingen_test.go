package twingen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/leon3"
	"repro/internal/mem"
)

// withTwin is the package type-checked with its committed twin, loaded
// once for the tests that read it.
var withTwin = sync.OnceValues(func() (*pkg, error) { return load("..", true) })

// TestTwinIsCurrent regenerates the leon3 twin and holds the committed
// file to it byte for byte, so a stage edited without go generate fails
// here; and the twin must make no probed read, call no probed stage and
// reach no net of the layout through its rtl.Signal handle or its group,
// while its array writes stay as written.
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
	for _, probed := range []string{".Get()", ".GetBool()", ".Read(", "Comb()", "cycleProbed()",
		".Raw()", ".RawBool()", ".Set(", ".SetNext(", ".Hold()"} {
		if strings.Contains(s, probed) {
			t.Errorf("twin calls %s", probed)
		}
	}
	for _, want := range []string{"func (c *Core) cycleClean()", "func (c *Core) executeCombClean()",
		"func u32Clean(s uint64) uint32", "rc, rn, wc := c.rc, c.rn, c.wc",
		"rn[regIuRaPc] = rc[regIuDePc] & 0xffffffff", "rn[regIuFePc] = rc[regIuFePc]",
		".ReadRaw(", ".Write("} {
		if !strings.Contains(s, want) {
			t.Errorf("twin lacks %q", want)
		}
	}

	// The committed twin, type-checked with the package: no expression in
	// it denotes a field the layout covers, so no rtl.Signal or rtl.Group
	// method is called on one and no handle is passed on.
	p, err := withTwin()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.typeErrs {
		t.Fatalf("package does not type-check: %v", e)
	}
	l, err := p.readLayout()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.files {
		if p.fileName(f) != Output {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			covered := func(e ast.Expr) string {
				if path := p.fieldPath(e, l.core); l.fields[path] != nil || l.groups[path] != nil {
					return path
				}
				return ""
			}
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil && s.Kind() == types.MethodVal && covered(sel.X) != "" {
					t.Errorf("%s: twin calls %s on %s", p.fset.Position(e.Pos()), s.Obj().(*types.Func).FullName(), covered(sel.X))
					return false
				}
			}
			if path := covered(e); path != "" {
				t.Errorf("%s: twin uses the handle of %s", p.fset.Position(e.Pos()), path)
				return false
			}
			return true
		})
	}
}

// TestTwinLayoutMatchesKernel holds each slab constant of the committed
// twin to the kernel New builds: the constant is the word the net's handle
// writes in its slab, its comment gives the net's name and width, every
// mask the twin applies to the word is that width's, and the slab lengths
// are nRegs and nWires.
func TestTwinLayoutMatchesKernel(t *testing.T) {
	p, err := withTwin()
	if err != nil {
		t.Fatal(err)
	}
	type slot struct {
		value int
		doc   string
		masks []uint64
	}
	consts := map[string]*slot{}
	var file *ast.File
	for _, f := range p.files {
		if p.fileName(f) == Output {
			file = f
		}
	}
	if file == nil {
		t.Fatalf("no %s", Output)
	}
	for _, d := range file.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for _, name := range vs.Names {
				v, _ := strconv.Atoi(p.info.Defs[name].(*types.Const).Val().ExactString())
				consts[name.Name] = &slot{value: v, doc: strings.TrimSpace(vs.Comment.Text())}
			}
		}
	}
	// The masks: a store w[k] = v & m, and a pending word read (Next)
	// rn[k] & m.
	ast.Inspect(file, func(n ast.Node) bool {
		var word, masked ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 {
				word, masked = n.Lhs[0], n.Rhs[0]
			}
		case *ast.BinaryExpr:
			if ix, ok := n.X.(*ast.IndexExpr); ok {
				if id, ok := ix.X.(*ast.Ident); ok && id.Name == regNext {
					word, masked = n.X, n
				}
			}
		}
		ix, ok := word.(*ast.IndexExpr)
		if !ok {
			return true
		}
		k, ok := ix.Index.(*ast.Ident)
		and, ok2 := masked.(*ast.BinaryExpr)
		if !ok || !ok2 || and.Op != token.AND || consts[k.Name] == nil {
			return true
		}
		if lit, ok := and.Y.(*ast.BasicLit); ok {
			m, err := strconv.ParseUint(lit.Value, 0, 64)
			if err != nil {
				t.Fatal(err)
			}
			consts[k.Name].masks = append(consts[k.Name].masks, m)
		}
		return true
	})

	c := leon3.New(mem.NewBus(mem.NewMemory()), 0)
	regs, next, wires := c.K.Slabs()
	if consts["nRegs"] == nil || consts["nRegs"].value != len(regs) || consts["nWires"] == nil || consts["nWires"].value != len(wires) {
		t.Fatalf("nRegs/nWires %v %v, kernel slabs %d and %d", consts["nRegs"], consts["nWires"], len(regs), len(wires))
	}
	delete(consts, "nRegs")
	delete(consts, "nWires")
	for _, s := range c.K.Signals() {
		name := constName(s.Name(), s.IsReg())
		k := consts[name]
		if k == nil {
			t.Errorf("%s: no constant %s", s.Name(), name)
			continue
		}
		delete(consts, name)
		// Where the handle's word is: write through it and look.
		cur := wires
		if s.IsReg() {
			cur = regs
		}
		clear(regs)
		clear(next)
		clear(wires)
		s.Set(1)
		if s.IsReg() {
			s.SetNext(1)
			if next[k.value] != 1 {
				t.Errorf("%s: %s = %d, but SetNext writes another pending word", s.Name(), name, k.value)
			}
		}
		if cur[k.value] != 1 {
			t.Errorf("%s: %s = %d, but Set writes another word", s.Name(), name, k.value)
		}
		if want := fmt.Sprintf("%s, width %d", s.Name(), s.Width()); k.doc != want {
			t.Errorf("%s: comment %q, want %q", name, k.doc, want)
		}
		for _, m := range k.masks {
			if m != ^uint64(0)>>(64-s.Width()) {
				t.Errorf("%s: masked with %#x, but %s is %d bits wide", name, m, s.Name(), s.Width())
			}
		}
	}
	for name := range consts {
		t.Errorf("constant %s names no net of the kernel", name)
	}
}
