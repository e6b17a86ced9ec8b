// Package twingen writes the clean twin of the leon3 pipeline: a copy of
// the stage processes compiled against the kernel's slab layout, with no
// probe and no rtl.Signal handle on its path.
//
// The rtl kernel forces faults and records witnessed reads inside
// Signal.Get and MemArray.Read, so every read of every cycle tests whether
// its net is forced or watched. On a cycle with nothing armed no test can
// succeed, and the kernel runs a second build of each process instead
// (rtl.Kernel.Twin). Generate makes that build from the hand-written one:
// it copies the method the core registers as its probed process,
// cycleProbed, and every function of the sources it reaches that touches
// a net, each under the name with a Clean suffix (cycleProbed becomes
// cycleClean), and rewrites the net accesses in the copies — and nothing
// else.
//
// A net the core's constructor, New, declares in straight-line code
// (c.<field> = k.Reg or k.Wire) has a fixed slab, index and width, in
// declaration order; Generate reads them from New's source and writes one
// constant per net. An access to such a field becomes an index
// expression on the slabs New takes from rtl.Kernel.Slabs — rc and rn the
// committed and pending registers, wc the wires — held in locals at the
// top of each copy:
//
//	Get, Raw                → rc[i]            (wc[i] on a wire)
//	GetBool, RawBool        → rc[i] != 0
//	Set(v), SetBool(b)      → rc[i] = v & mask (wc[i] on a wire)
//	SetNext(v), SetNextBool → rn[i] = v & mask
//	Next()                  → rn[i] & mask
//	Hold()                  → rn[i] = rc[i]
//
// and Hold on a group New builds with k.Group unrolls into one Hold per
// member. The mask is left out where the value provably fits the width:
// a constant, or a conversion from a narrow unsigned type. A helper whose
// body is one return statement and that only reads a signal parameter
// (u32) takes the word in place of the handle.
//
// Arrays keep their handles: MemArray.Read becomes ReadRaw, and Write
// stays as it is, because it keeps the touched-word tracking a restored
// kernel needs whatever is armed. Accesses are found by type, not by
// name, so a method of another type that happens to be called Get is left
// alone; a signal or group the layout does not cover is an error.
//
// Run it with go generate ./internal/leon3; a test in this package fails
// when the committed twin differs from what Generate writes by one byte.
package twingen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/format"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// Sources are the files the twin is copied from, in the order their
// copies appear in Output.
var Sources = []string{"stages.go", "execute.go", "muldiv.go"}

// Output is the generated file, beside the sources.
const Output = "stages_clean.go"

const (
	root   = "cycleProbed" // the probed process the core registers
	suffix = "Clean"
	ctor   = "New" // the constructor that declares the nets

	rtlPath  = "repro/internal/rtl"
	boolWord = "boolWord" // the generated bool-to-word helper
)

// The slab locals of the twin and the Core fields they are loaded from.
const (
	regCur  = "rc"
	regNext = "rn"
	wires   = "wc"
)

// arrayRead is the probed array read, and arrayReadRaw its raw form.
const (
	arrayRead    = "(*repro/internal/rtl.MemArray).Read"
	arrayReadRaw = "ReadRaw"
)

// twinName is the name of fn's copy.
func twinName(fn string) string { return strings.TrimSuffix(fn, "Probed") + suffix }

// A net is one signal of the layout.
type net struct {
	name  string // the kernel's name, "iu.fe.pc"
	ident string // the generated constant, "regIuFePc"
	reg   bool   // in the register slabs, else the wire slab
	index int    // its word in the slab
	width int
}

// mask is the net's width mask.
func (n *net) mask() uint64 { return ^uint64(0) >> (64 - n.width) }

// layout is the slab layout of the nets a constructor declares.
type layout struct {
	nets          []*net            // in declaration order
	nRegs, nWires int               // the slab lengths
	fields        map[string]*net   // by field path from the core ("arch.expPC")
	groups        map[string][]*net // hold groups by field path ("gArch")
	core          types.Type        // the struct the paths start from
}

// constName returns the constant for a net: reg or wire, then each part
// of its dotted name capitalized ("iu.fe.pc" → regIuFePc).
func constName(name string, reg bool) string {
	var b strings.Builder
	if reg {
		b.WriteString("reg")
	} else {
		b.WriteString("wire")
	}
	for _, part := range strings.Split(name, ".") {
		r := []rune(part)
		if len(r) > 0 {
			r[0] = unicode.ToUpper(r[0])
		}
		b.WriteString(string(r))
	}
	return b.String()
}

// pkg is the type-checked package.
type pkg struct {
	bp       *build.Package
	fset     *token.FileSet
	files    []*ast.File
	info     *types.Info
	types    *types.Package
	typeErrs []types.Error
}

// load parses and type-checks the package in dir from source (the
// module's packages through the go command), without Output unless
// withOutput is set. Type errors are collected, not returned.
func load(dir string, withOutput bool) (*pkg, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{bp: bp, fset: token.NewFileSet()}
	for _, name := range bp.GoFiles {
		if name == Output && !withOutput {
			continue // the twin being replaced: the package is checked without it
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(p.fset, "source", nil),
		Error:    func(err error) { p.typeErrs = append(p.typeErrs, err.(types.Error)) },
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	p.types, _ = conf.Check(bp.ImportPath, p.fset, p.files, p.info) // errors collected above
	return p, nil
}

// fileName is the base name of the file n is in.
func (p *pkg) fileName(n ast.Node) string { return filepath.Base(p.fset.File(n.Pos()).Name()) }

// kernelMethod returns the name of the rtl.Kernel method call calls, or "".
func (p *pkg) kernelMethod(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if s, ok := p.info.Selections[sel]; ok && s.Kind() == types.MethodVal && isRTL(s.Recv(), "Kernel") {
		return sel.Sel.Name
	}
	return ""
}

// isRTL reports whether t is the rtl type name or a pointer to it.
func isRTL(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == rtlPath && n.Obj().Name() == name
}

// fieldPath returns the fields e selects from a value of the core type,
// dot-joined ("arch.expPC" for c.arch.expPC), or "" when e is no such
// selection.
func (p *pkg) fieldPath(e ast.Expr, core types.Type) string {
	var parts []string
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if s, ok := p.info.Selections[x]; !ok || s.Kind() != types.FieldVal {
				return ""
			}
			parts = append(parts, x.Sel.Name)
			e = x.X
		case *ast.Ident:
			t := p.info.TypeOf(x)
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if len(parts) == 0 || t == nil || !types.Identical(t, core) {
				return ""
			}
			slices.Reverse(parts)
			return strings.Join(parts, ".")
		default:
			return ""
		}
	}
}

// readLayout reads the slab layout from the constructor's straight-line
// body: each c.<field> = k.Reg or k.Wire, in order, takes the next word of
// its slab, and each c.<field> = k.Group names its members. A declaration
// anywhere else would move the words the constants name, so it is an
// error.
func (p *pkg) readLayout() (*layout, error) {
	var fn *ast.FuncDecl
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == ctor {
				fn = fd
			}
		}
	}
	if fn == nil || fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
		return nil, fmt.Errorf("twingen: no constructor %s returning the core", ctor)
	}
	core := p.info.TypeOf(fn.Type.Results.List[0].Type)
	if ptr, ok := core.(*types.Pointer); ok {
		core = ptr.Elem()
	}
	l := &layout{fields: map[string]*net{}, groups: map[string][]*net{}, core: core}
	straight := map[*ast.CallExpr]bool{}
	for _, st := range fn.Body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			continue
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			continue
		}
		m := p.kernelMethod(call)
		if m != "Reg" && m != "Wire" && m != "Group" {
			continue
		}
		straight[call] = true
		path := p.fieldPath(as.Lhs[0], core)
		if path == "" {
			return nil, fmt.Errorf("twingen: %s: %s result is not stored in a field of the core", p.fset.Position(as.Pos()), m)
		}
		if m == "Group" {
			var members []*net
			for _, a := range call.Args {
				n := l.fields[p.fieldPath(a, core)]
				if n == nil || !n.reg {
					return nil, fmt.Errorf("twingen: %s: group member is not a register of the layout", p.fset.Position(a.Pos()))
				}
				members = append(members, n)
			}
			l.groups[path] = members
			continue
		}
		name, width := p.constant(call.Args[0]), p.constant(call.Args[1])
		if name == nil || name.Kind() != constant.String || width == nil || width.Kind() != constant.Int {
			return nil, fmt.Errorf("twingen: %s: net name or width is not a constant", p.fset.Position(call.Pos()))
		}
		w, _ := constant.Int64Val(width)
		if w < 1 || w > 64 {
			return nil, fmt.Errorf("twingen: %s: width %d", p.fset.Position(call.Pos()), w)
		}
		n := &net{name: constant.StringVal(name), reg: m == "Reg", width: int(w)}
		n.ident = constName(n.name, n.reg)
		if n.reg {
			n.index, l.nRegs = l.nRegs, l.nRegs+1
		} else {
			n.index, l.nWires = l.nWires, l.nWires+1
		}
		l.nets = append(l.nets, n)
		l.fields[path] = n
	}
	for _, f := range p.files {
		var err error
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && err == nil && !straight[call] {
				if m := p.kernelMethod(call); m == "Reg" || m == "Wire" {
					err = fmt.Errorf("twingen: %s: a net declared outside %s's straight-line body", p.fset.Position(call.Pos()), ctor)
				}
			}
			return err == nil
		})
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// constant returns e's constant value, or nil.
func (p *pkg) constant(e ast.Expr) constant.Value { return p.info.Types[e].Value }

// Generate returns the formatted contents of Output for the package in
// dir.
func Generate(dir string) ([]byte, error) {
	p, err := load(dir, false)
	if err != nil {
		return nil, err
	}
	l, err := p.readLayout()
	if err != nil {
		return nil, err
	}
	info := p.info

	// Every function and method of the package, by its object.
	decls := map[types.Object]*ast.FuncDecl{}
	fileOf := map[*ast.FuncDecl]*ast.File{}
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && info.Defs[fd.Name] != nil {
				decls[info.Defs[fd.Name]] = fd
				fileOf[fd] = f
			}
		}
	}
	// What each one touches a net through, and which of them it uses.
	touches := map[*ast.FuncDecl]bool{}
	uses := map[*ast.FuncDecl][]*ast.FuncDecl{}
	for _, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if m := method(info, n); m == arrayRead || handleMethod(m) {
					touches[fd] = true
				}
			case *ast.Ident:
				if g, ok := decls[info.Uses[n]]; ok && g != fd {
					uses[fd] = append(uses[fd], g)
				}
			}
			return true
		})
	}
	// needs: the function touches a net, itself or through what it uses.
	needs := map[*ast.FuncDecl]bool{}
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			if needs[fd] {
				continue
			}
			if touches[fd] || slices.ContainsFunc(uses[fd], func(g *ast.FuncDecl) bool { return needs[g] }) {
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
		if f := p.fileName(fd); !slices.Contains(Sources, f) {
			return fmt.Errorf("twingen: %s touches a net and is reached from %s, but %s is not a source", fd.Name.Name, root, f)
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
	names := map[string]bool{"nRegs": true, "nWires": true, boolWord: true}
	for fd := range twin {
		names[twinName(fd.Name.Name)] = true
	}
	for _, n := range l.nets {
		names[n.ident] = true
	}
	// The package was checked without the twin; the only errors allowed
	// are references to the twin's names.
	for _, e := range p.typeErrs {
		if !undefinedTwin(e.Msg, names) {
			return nil, fmt.Errorf("twingen: %v", e)
		}
	}

	// Helpers that take a signal only to read it take its word instead.
	params := map[*ast.FuncDecl]map[types.Object]bool{}
	for fd := range twin {
		if ps := p.wordParams(fd); len(ps) != 0 {
			params[fd] = ps
		}
	}
	// Rewrite the copies in place.
	var order []*ast.FuncDecl
	var usesBoolWord bool
	for fd := range twin {
		order = append(order, fd)
		c := &compiler{p: p, l: l, decls: decls, params: params, slabs: map[string]bool{}}
		if err := c.compile(fd); err != nil {
			return nil, err
		}
		usesBoolWord = usesBoolWord || c.boolWord
		ast.Inspect(fd, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if g, ok := decls[info.Uses[id]]; ok && twin[g] {
					id.Name = twinName(g.Name.Name)
				}
			}
			return true
		})
	}
	sort.Slice(order, func(i, j int) bool {
		fi, fj := slices.Index(Sources, p.fileName(order[i])), slices.Index(Sources, p.fileName(order[j]))
		if fi != fj {
			return fi < fj
		}
		return order[i].Pos() < order[j].Pos()
	})
	imports := map[string]string{} // path → name
	for _, fd := range order {
		ast.Inspect(fd, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if pn, ok := info.Uses[id].(*types.PkgName); ok {
					imports[pn.Imported().Path()] = pn.Name()
				}
			}
			return true
		})
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by twingen from %s and %s's slab layout; DO NOT EDIT.\n\n", strings.Join(Sources, ", "), ctor)
	b.WriteString("// This file is the leon3 pipeline's clean twin: what cycleProbed runs,\n")
	b.WriteString("// compiled against the slab layout New declares, with no probe and no\n")
	b.WriteString("// rtl.Signal handle. The kernel runs it on cycles with nothing armed\n")
	b.WriteString("// (rtl.Kernel.Twin). Edit the sources and run go generate ./internal/leon3.\n\n")
	fmt.Fprintf(&b, "package %s\n\nimport (\n", p.bp.Name)
	paths := make([]string, 0, len(imports))
	for path := range imports {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if imports[path] != filepath.Base(path) {
			b.WriteString(imports[path] + " ")
		}
		b.WriteString(strconv.Quote(path) + "\n")
	}
	b.WriteString(")\n\n")
	b.WriteString("// The slab layout: the lengths of the register and wire slabs, and each\n")
	b.WriteString("// net's word in its slab, in the order New declares them.\n")
	fmt.Fprintf(&b, "const (\n\tnRegs = %d\n\tnWires = %d\n\n", l.nRegs, l.nWires)
	for _, n := range l.nets {
		fmt.Fprintf(&b, "\t%s = %d // %s, width %d\n", n.ident, n.index, n.name, n.width)
	}
	b.WriteString(")\n")
	for _, fd := range order {
		orig := fd.Name.Name
		fd.Name.Name = twinName(orig)
		fd.Doc = nil
		fmt.Fprintf(&b, "\n// %s is %s compiled against the slab layout.\n", fd.Name.Name, orig)
		if err := format.Node(&b, p.fset, &printer.CommentedNode{Node: fd, Comments: fileOf[fd].Comments}); err != nil {
			return nil, err
		}
		b.WriteString("\n")
	}
	if usesBoolWord {
		fmt.Fprintf(&b, "\n// %s is the word a 1-bit net holds for b.\n", boolWord)
		fmt.Fprintf(&b, "func %s(b bool) uint64 {\n\tif b {\n\t\treturn 1\n\t}\n\treturn 0\n}\n", boolWord)
	}
	return format.Source(b.Bytes())
}

// covered returns the field path of the layout's net or group sel calls a
// method of, or "".
func (p *pkg) covered(l *layout, sel *ast.SelectorExpr) string {
	s, ok := p.info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	path := p.fieldPath(sel.X, l.core)
	if l.fields[path] != nil && isRTL(s.Recv(), "Signal") || l.groups[path] != nil && isRTL(s.Recv(), "Group") {
		return path
	}
	return ""
}

// wordParams returns the *rtl.Signal parameters of fd that can take a
// word in place of the handle: fd is a function whose body is one return
// statement, and it only reads the parameter with Get or GetBool. Reading
// at the call is then reading where the body reads.
func (p *pkg) wordParams(fd *ast.FuncDecl) map[types.Object]bool {
	if fd.Recv != nil || len(fd.Body.List) != 1 {
		return nil
	}
	if _, ok := fd.Body.List[0].(*ast.ReturnStmt); !ok {
		return nil
	}
	ps := map[types.Object]bool{}
	for _, f := range fd.Type.Params.List {
		if obj := p.info.Defs[f.Names[0]]; len(f.Names) == 1 && isRTL(obj.Type(), "Signal") {
			ps[obj] = true // an entry of one name: its type can change alone
		}
	}
	reads := map[*ast.Ident]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && (sel.Sel.Name == "Get" || sel.Sel.Name == "GetBool") {
				reads[id] = true
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && ps[p.info.Uses[id]] && !reads[id] {
			delete(ps, p.info.Uses[id])
		}
		return true
	})
	return ps
}

// A compiler rewrites one copied function against the slab layout.
type compiler struct {
	p        *pkg
	l        *layout
	decls    map[types.Object]*ast.FuncDecl
	params   map[*ast.FuncDecl]map[types.Object]bool
	slabs    map[string]bool // the slab locals the function uses
	boolWord bool            // it uses the boolWord helper
	err      error
}

// compile rewrites fd in place: reads to slab words or raw reads, writes
// to slab stores, group holds unrolled, and the slab locals declared at
// the top.
func (c *compiler) compile(fd *ast.FuncDecl) error {
	word := c.params[fd]
	for _, f := range fd.Type.Params.List {
		if len(f.Names) == 1 && word[c.p.info.Defs[f.Names[0]]] {
			f.Type = ast.NewIdent("uint64")
		}
	}
	mapExprs(fd.Body, func(e ast.Expr) ast.Expr {
		if r := c.read(word, e); r != e {
			return at(e.Pos(), r)
		}
		return e
	})
	mapStmts(fd.Body, func(st ast.Stmt) []ast.Stmt {
		sts := c.write(st)
		for _, s := range sts {
			at(st.Pos(), s)
		}
		return sts
	})
	if c.err != nil {
		return c.err
	}
	return c.declareSlabs(fd)
}

// read returns the compiled form of e: a slab word for a read of a layout
// net or of a word parameter, and e itself for anything else, after
// passing words for the signal arguments of a helper that takes them and
// making array reads raw.
func (c *compiler) read(word map[types.Object]bool, e ast.Expr) ast.Expr {
	info := c.p.info
	if not, ok := e.(*ast.UnaryExpr); ok && not.Op == token.NOT {
		// A negated GetBool, its test already compiled (no source
		// expression is an unparenthesized comparison under a !).
		if t, ok := not.X.(*ast.BinaryExpr); ok && t.Op == token.NEQ {
			return &ast.BinaryExpr{X: t.X, Op: token.EQL, Y: t.Y}
		}
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return e
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if g := c.decls[info.Uses[id]]; g != nil && c.params[g] != nil {
			for i, a := range call.Args {
				if c.params[g][info.Defs[paramName(g, i)]] {
					call.Args[i] = c.word(a)
				}
			}
		}
		return e
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return e
	}
	if id, ok := sel.X.(*ast.Ident); ok && word[info.Uses[id]] {
		if sel.Sel.Name == "GetBool" {
			return test(id)
		}
		return id
	}
	path := c.p.covered(c.l, sel)
	if path == "" {
		switch m := method(info, sel); {
		case m == arrayRead:
			sel.Sel.Name = arrayReadRaw
		case handleMethod(m):
			if c.err == nil {
				c.err = fmt.Errorf("twingen: %s: %s on a handle that is no net of %s's layout", c.p.fset.Position(sel.Pos()), sel.Sel.Name, ctor)
			}
		}
		return e
	}
	n := c.l.fields[path]
	if n == nil {
		return e // a group: write
	}
	switch sel.Sel.Name {
	case "Get", "Raw":
		return c.cur(n)
	case "GetBool", "RawBool":
		return test(c.cur(n))
	case "Next":
		if n.reg {
			return c.masked(n, c.slab(n, regNext))
		}
	case "Set", "SetBool", "SetNext", "SetNextBool", "Hold":
		return e // a statement: write
	}
	if c.err == nil {
		c.err = fmt.Errorf("twingen: %s: %s on net %s has no slab form", c.p.fset.Position(sel.Pos()), sel.Sel.Name, n.name)
	}
	return e
}

// test reports whether the word w is nonzero: GetBool.
func test(w ast.Expr) ast.Expr { return &ast.BinaryExpr{X: w, Op: token.NEQ, Y: intLit(0)} }

// write returns the slab stores a statement that writes a layout net
// compiles to, or nil when st writes none.
func (c *compiler) write(st ast.Stmt) []ast.Stmt {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	path := c.p.covered(c.l, sel)
	if path == "" {
		return nil
	}
	if members := c.l.groups[path]; members != nil {
		if sel.Sel.Name != "Hold" {
			c.err = fmt.Errorf("twingen: %s: %s on a group has no slab form", c.p.fset.Position(sel.Pos()), sel.Sel.Name)
			return nil
		}
		var out []ast.Stmt
		for _, n := range members {
			out = append(out, c.assign(c.slab(n, regNext), c.cur(n)))
		}
		return out
	}
	n := c.l.fields[path]
	switch sel.Sel.Name {
	case "Set":
		return []ast.Stmt{c.assign(c.cur(n), c.masked(n, call.Args[0]))}
	case "SetBool":
		return []ast.Stmt{c.assign(c.cur(n), c.flag(call.Args[0]))}
	case "SetNext":
		if n.reg {
			return []ast.Stmt{c.assign(c.slab(n, regNext), c.masked(n, call.Args[0]))}
		}
	case "SetNextBool":
		if n.reg {
			return []ast.Stmt{c.assign(c.slab(n, regNext), c.flag(call.Args[0]))}
		}
	case "Hold":
		if n.reg {
			return []ast.Stmt{c.assign(c.slab(n, regNext), c.cur(n))}
		}
	default:
		return nil // a read: read
	}
	c.err = fmt.Errorf("twingen: %s: %s on wire %s has no slab form", c.p.fset.Position(sel.Pos()), sel.Sel.Name, n.name)
	return nil
}

// declareSlabs declares the slab locals fd uses at its top.
func (c *compiler) declareSlabs(fd *ast.FuncDecl) error {
	var locals []string
	for _, s := range []string{regCur, regNext, wires} {
		if c.slabs[s] {
			locals = append(locals, s)
		}
	}
	if len(locals) == 0 {
		return nil
	}
	if fd.Recv == nil || len(fd.Recv.List[0].Names) == 0 {
		return fmt.Errorf("twingen: %s touches a net but has no named receiver", fd.Name.Name)
	}
	recv := fd.Recv.List[0].Names[0].Name
	var lhs, rhs []ast.Expr
	for _, s := range locals {
		lhs = append(lhs, ast.NewIdent(s))
		rhs = append(rhs, &ast.SelectorExpr{X: ast.NewIdent(recv), Sel: ast.NewIdent(s)})
	}
	decl := at(fd.Body.Lbrace, &ast.AssignStmt{Lhs: lhs, Tok: token.DEFINE, Rhs: rhs})
	fd.Body.List = append([]ast.Stmt{decl}, fd.Body.List...)
	return nil
}

var posType = reflect.TypeFor[token.Pos]()

// at places the nodes of n that the compiler made, those with no position
// yet, at pos, so that the printer keeps the comments of the code around
// them where they were, and returns n.
func at[N ast.Node](pos token.Pos, n N) N {
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil || n.Pos().IsValid() {
			return false // the source's own subtree
		}
		v := reflect.ValueOf(n).Elem()
		for i := range v.NumField() {
			if f := v.Field(i); f.Type() == posType && v.Type().Field(i).Name != "Ellipsis" {
				f.SetInt(int64(pos))
			}
		}
		return true
	})
	return n
}

// paramName returns the name of fd's i-th parameter.
func paramName(fd *ast.FuncDecl, i int) *ast.Ident {
	for _, f := range fd.Type.Params.List {
		if i < len(f.Names) {
			return f.Names[i]
		}
		i -= len(f.Names)
	}
	return nil
}

// word returns the slab word a signal argument holds.
func (c *compiler) word(a ast.Expr) ast.Expr {
	if n := c.l.fields[c.p.fieldPath(a, c.l.core)]; n != nil {
		return c.cur(n)
	}
	if c.err == nil {
		c.err = fmt.Errorf("twingen: %s: a handle that is no net of %s's layout", c.p.fset.Position(a.Pos()), ctor)
	}
	return a
}

// slab returns n's word in the slab local s.
func (c *compiler) slab(n *net, s string) ast.Expr {
	c.slabs[s] = true
	return &ast.IndexExpr{X: ast.NewIdent(s), Index: ast.NewIdent(n.ident)}
}

// cur returns n's committed word.
func (c *compiler) cur(n *net) ast.Expr {
	if n.reg {
		return c.slab(n, regCur)
	}
	return c.slab(n, wires)
}

func (c *compiler) assign(lhs, rhs ast.Expr) ast.Stmt {
	return &ast.AssignStmt{Lhs: []ast.Expr{lhs}, Tok: token.ASSIGN, Rhs: []ast.Expr{rhs}}
}

// flag returns the word a 1-bit net holds for the boolean b.
func (c *compiler) flag(b ast.Expr) ast.Expr {
	if v := c.p.constant(b); v != nil && v.Kind() == constant.Bool {
		if constant.BoolVal(v) {
			return intLit(1)
		}
		return intLit(0)
	}
	c.boolWord = true
	return &ast.CallExpr{Fun: ast.NewIdent(boolWord), Args: []ast.Expr{b}}
}

// masked returns v masked to n's width, leaving the mask out where v
// provably fits: a constant in range, or a conversion from an unsigned
// type no wider than n.
func (c *compiler) masked(n *net, v ast.Expr) ast.Expr {
	if n.width == 64 {
		return v
	}
	if k := c.p.constant(v); k != nil && k.Kind() == constant.Int {
		if u, exact := constant.Uint64Val(k); exact && u <= n.mask() {
			return v
		}
	}
	if conv, ok := v.(*ast.CallExpr); ok && len(conv.Args) == 1 && c.p.info.Types[conv.Fun].IsType() {
		if bits := unsignedBits(c.p.info.TypeOf(conv.Args[0])); bits > 0 && bits <= n.width {
			return v
		}
	}
	return &ast.BinaryExpr{X: v, Op: token.AND, Y: &ast.BasicLit{Kind: token.INT, Value: fmt.Sprintf("%#x", n.mask())}}
}

// unsignedBits returns the width of an unsigned integer type, or 0.
func unsignedBits(t types.Type) int {
	if t == nil {
		return 0
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch b.Kind() {
		case types.Uint8:
			return 8
		case types.Uint16:
			return 16
		case types.Uint32:
			return 32
		}
	}
	return 0
}

func intLit(v int) *ast.BasicLit { return &ast.BasicLit{Kind: token.INT, Value: strconv.Itoa(v)} }

var (
	exprType = reflect.TypeFor[ast.Expr]()
	stmtType = reflect.TypeFor[[]ast.Stmt]()
	nodeType = reflect.TypeFor[ast.Node]()
)

// mapExprs replaces every expression under n, children first, by what f
// returns for it. go/ast has no rewriter; this walks the node structs by
// reflection, through fields and slices of node type only.
func mapExprs(n ast.Node, f func(ast.Expr) ast.Expr) {
	walkNodes(reflect.ValueOf(n), func(v reflect.Value) {
		if v.Type() == exprType && !v.IsNil() {
			v.Set(reflect.ValueOf(f(v.Interface().(ast.Expr))))
		}
	})
}

// mapStmts replaces every statement under n that f expands (a non-nil
// result) by the statements f returns for it.
func mapStmts(n ast.Node, f func(ast.Stmt) []ast.Stmt) {
	walkNodes(reflect.ValueOf(n), func(v reflect.Value) {
		if v.Type() != stmtType {
			return
		}
		var out []ast.Stmt
		for _, st := range v.Interface().([]ast.Stmt) {
			if sts := f(st); sts != nil {
				out = append(out, sts...)
			} else {
				out = append(out, st)
			}
		}
		v.Set(reflect.ValueOf(out))
	})
}

// walkNodes calls visit on every settable field and slice element of node
// type under v, after its own children.
func walkNodes(v reflect.Value, visit func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			walkNodes(v.Elem(), visit)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Field(i); isNodeType(f.Type()) {
				walkNodes(f, visit)
				visit(f)
			}
		}
	case reflect.Slice:
		for i := range v.Len() {
			walkNodes(v.Index(i), visit)
			visit(v.Index(i))
		}
	}
}

// isNodeType reports whether t is an AST node type or a slice of them.
func isNodeType(t reflect.Type) bool {
	if t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	return t.Implements(nodeType)
}

// handleMethod reports whether m, a method's full name, is one of
// rtl.Signal or rtl.Group: what the layout compiles.
func handleMethod(m string) bool {
	return strings.HasPrefix(m, "(*"+rtlPath+".Signal).") || strings.HasPrefix(m, "("+rtlPath+".Group).")
}

// method returns the full name of the method sel selects, called or taken
// as a method value, or "".
func method(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	return s.Obj().(*types.Func).FullName()
}

// undefinedTwin reports whether a type error says a twin name is missing.
func undefinedTwin(msg string, names map[string]bool) bool {
	for n := range names {
		if strings.Contains(msg, "undefined: "+n) || strings.Contains(msg, "no field or method "+n+")") ||
			strings.Contains(msg, "undefined array length "+n+" ") {
			return true
		}
	}
	return false
}
