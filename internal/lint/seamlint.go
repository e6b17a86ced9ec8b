package lint

import (
	"go/ast"
	"go/types"
)

// SeamAnalyzer (seamlint) keeps campaign execution flowing through the
// engine registry seams. The memoized registries in internal/campaign
// (RunnerFor for the RTL engine, ISSRunnerFor for the ISS one) are
// where golden runs are shared, build concurrency is bounded, and the
// observability registry is stripped from the cache key; an engine
// constructed anywhere else silently re-simulates golden runs and
// fragments those guarantees. seamlint therefore reports, outside
// internal/fault itself and outside the registry functions:
//
//   - calls to fault.NewRunner / fault.NewISSRunner;
//   - composite literals fault.Runner{...} / fault.ISSRunner{...}
//     (and &T{...});
//   - new(fault.Runner) / new(fault.ISSRunner).
//
// Audited one-shot builds — engine ablation timing that must not hit
// the memoization cache, the synchronous one-shot core API — carry
// //lint:allow seam with their justification.
var SeamAnalyzer = &Analyzer{
	Name: "seamlint",
	Tag:  "seam",
	Doc: "fault engines are constructed only through the campaign registry seams\n" +
		"(campaign.RunnerFor / campaign.ISSRunnerFor)",
	Run: runSeamlint,
}

// seamEnginePkg is the package (by path suffix) whose constructors and
// types are fenced.
const seamEnginePkg = "internal/fault"

var seamConstructors = []string{"NewRunner", "NewISSRunner"}

var seamTypes = map[string]bool{"Runner": true, "ISSRunner": true}

// seamRegistry lists the functions allowed to construct engines
// directly: the memoized registries themselves and the builds behind them.
var seamRegistry = []struct{ pathSuffix, funcName string }{
	{"internal/campaign", "RunnerFor"},
	{"internal/campaign", "ISSRunnerFor"},
	{"internal/campaign", "buildRunner"},
	{"internal/campaign", "buildISSRunner"},
}

func runSeamlint(pass *Pass) error {
	if PathMatch(pass.Pkg.Path(), seamEnginePkg) {
		return nil // the engine package builds its own internals freely
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if seamAllowedFunc(pass, fn) {
				continue
			}
			seamlintFunc(pass, fn)
		}
	}
	return nil
}

func seamAllowedFunc(pass *Pass, fn *ast.FuncDecl) bool {
	for _, reg := range seamRegistry {
		if fn.Name.Name == reg.funcName && PathMatch(pass.Pkg.Path(), reg.pathSuffix) {
			return true
		}
	}
	return false
}

func seamlintFunc(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if name, ok := calleeFrom(pass.TypesInfo, x, seamEnginePkg, seamConstructors...); ok {
				pass.Reportf(x.Pos(), "direct fault.%s call bypasses the engine registry: golden runs stop being shared and build concurrency unbounded — route through campaign.RunnerFor / campaign.ISSRunnerFor (//lint:allow seam for audited one-shot builds)", name)
			}
			if isBuiltin(pass.TypesInfo, x.Fun, "new") && len(x.Args) == 1 {
				if name, ok := seamEngineType(pass, x.Args[0]); ok {
					pass.Reportf(x.Pos(), "new(fault.%s) constructs an engine outside the registry seam: a zero-valued engine has no golden run — route through campaign.RunnerFor / campaign.ISSRunnerFor", name)
				}
			}
		case *ast.CompositeLit:
			if name, ok := seamEngineType(pass, x.Type); ok {
				pass.Reportf(x.Pos(), "fault.%s composite literal constructs an engine outside the registry seam — route through campaign.RunnerFor / campaign.ISSRunnerFor", name)
			}
		}
		return true
	})
}

// seamEngineType reports whether the type expression names one of the
// fenced engine structs.
func seamEngineType(pass *Pass, expr ast.Expr) (string, bool) {
	if expr == nil {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return "", false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	if !PathMatch(named.Obj().Pkg().Path(), seamEnginePkg) || !seamTypes[named.Obj().Name()] {
		return "", false
	}
	return named.Obj().Name(), true
}
