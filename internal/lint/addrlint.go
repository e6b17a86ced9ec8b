package lint

import (
	"go/ast"
	"reflect"
	"strings"
)

// addrStruct pins one content-addressed (or canonically encoded)
// struct: where it lives, and the JSON field names its v1 schema shipped
// with. Fields with other JSON names are post-v1 by definition and must
// be omitempty, so a request or outcome that predates them marshals to
// the exact bytes it always did — old content addresses and recorded
// encodings stay stable by construction (DESIGN.md §9, §13).
type addrStruct struct {
	pathSuffix string
	typeName   string
	role       string
	v1         []string
}

// addrStructs is the registry of schema-frozen structs. Growing one of
// these structs is fine; changing what an existing request hashes to is
// not, and this table is what turns that rule into a build failure.
var addrStructs = []addrStruct{
	{
		pathSuffix: "internal/jobs", typeName: "Request",
		role: "the request sha256 content address",
		v1: []string{
			"workload", "iterations", "dataset", "target", "models", "nodes",
			"seed", "inject_at_cycle", "inject_at_fraction", "no_checkpoint",
		},
	},
	{
		pathSuffix: "internal/jobs", typeName: "ExperimentOutcome",
		role: "the canonical outcome encoding",
		v1:   []string{"node", "model", "unit", "outcome", "latency", "cycles"},
	},
	{
		pathSuffix: "internal/jobs", typeName: "Outcome",
		role: "the canonical outcome encoding",
		v1: []string{
			"request", "injections", "golden_cycles", "checkpointed", "pf",
			"pf_low", "pf_high", "failures", "max_latency_cycles", "outcomes",
			"pf_by_unit", "experiments",
		},
	},
}

// AddrAnalyzer (addrlint) enforces the content-address stability rule:
// every exported field of a registered struct must carry an explicit
// json tag (never "-" — every field of a hashed struct participates),
// the v1 field names must all still exist under their original
// spelling, and any field whose json name is not in the v1 set must be
// omitempty. Deleting the omitempty from a post-v1 field — which would
// silently remap every pre-existing content address — is a lint error,
// not a code-review hope.
var AddrAnalyzer = &Analyzer{
	Name: "addrlint",
	Tag:  "addr",
	Doc: "content-addressed structs (jobs.Request, jobs.Outcome, jobs.ExperimentOutcome):\n" +
		"every field json-tagged, v1 names intact, post-v1 fields omitempty",
	Run: runAddrlint,
}

func runAddrlint(pass *Pass) error {
	for i := range addrStructs {
		spec := &addrStructs[i]
		if !PathMatch(pass.Pkg.Path(), spec.pathSuffix) {
			continue
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || ts.Name.Name != spec.typeName {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					addrlintStruct(pass, spec, ts, st)
				}
			}
		}
	}
	return nil
}

func addrlintStruct(pass *Pass, spec *addrStruct, ts *ast.TypeSpec, st *ast.StructType) {
	v1 := map[string]bool{}
	for _, name := range spec.v1 {
		v1[name] = true
	}
	seen := map[string]bool{}
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 {
			pass.Reportf(field.Pos(), "embedded field in %s (feeds %s) hides its encoding behind another type: spell the fields out with explicit json tags", spec.typeName, spec.role)
			continue
		}
		for _, name := range field.Names {
			if !name.IsExported() {
				// encoding/json ignores unexported fields, so they cannot
				// perturb the encoding.
				continue
			}
			jsonName, opts, ok := jsonTag(field)
			if !ok || jsonName == "" {
				pass.Reportf(name.Pos(), "field %s.%s feeds %s but has no json name: encoding would fall back to the Go identifier, so a rename silently changes every content address — tag it explicitly", spec.typeName, name.Name, spec.role)
				continue
			}
			if jsonName == "-" {
				pass.Reportf(name.Pos(), "field %s.%s is excluded from %s with json:\"-\": every field of a hashed struct must participate in its encoding", spec.typeName, name.Name, spec.role)
				continue
			}
			if seen[jsonName] {
				pass.Reportf(name.Pos(), "duplicate json name %q in %s", jsonName, spec.typeName)
			}
			seen[jsonName] = true
			if !v1[jsonName] && !hasOpt(opts, "omitempty") {
				pass.Reportf(name.Pos(), "post-v1 field %s.%s (json %q) must be omitempty: without it every pre-existing request or outcome re-encodes with a new zero-valued field and its content address silently changes", spec.typeName, name.Name, jsonName)
			}
		}
	}
	for _, name := range spec.v1 {
		if !seen[name] {
			pass.Reportf(ts.Pos(), "v1 field %q of %s is gone: removing or renaming it changes the content address of every request that ever hashed it", name, spec.typeName)
		}
	}
}

// jsonTag extracts the json name and options from a struct field tag.
func jsonTag(field *ast.Field) (name string, opts []string, ok bool) {
	if field.Tag == nil {
		return "", nil, false
	}
	raw := strings.Trim(field.Tag.Value, "`")
	tag, ok := reflect.StructTag(raw).Lookup("json")
	if !ok {
		return "", nil, false
	}
	parts := strings.Split(tag, ",")
	return parts[0], parts[1:], true
}

func hasOpt(opts []string, want string) bool {
	for _, o := range opts {
		if o == want {
			return true
		}
	}
	return false
}
