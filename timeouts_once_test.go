package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

// timeoutSites returns, for one file, the functions that emit a timeout
// event by its kind (the last argument of TimeoutFired, written as
// obs.<Kind>), and the increment sites of each Proto.*Timeouts counter.
func timeoutSites(fset *token.FileSet, file *ast.File, fired map[string][]string, incs map[string][]string) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "TimeoutFired" || len(n.Args) == 0 {
					return true
				}
				kind := "<not obs.Timeout*>"
				if k, ok := n.Args[len(n.Args)-1].(*ast.SelectorExpr); ok {
					kind = k.Sel.Name
				}
				fired[kind] = append(fired[kind], fn.Name.Name)
			case *ast.IncDecStmt:
				sel, ok := n.X.(*ast.SelectorExpr)
				if !ok || !strings.HasSuffix(sel.Sel.Name, "Timeouts") {
					return true
				}
				if p, ok := sel.X.(*ast.SelectorExpr); ok && p.Sel.Name == "Proto" {
					incs[sel.Sel.Name] = append(incs[sel.Sel.Name], fset.Position(n.Pos()).String())
				}
			}
			return true
		})
	}
}

// TestTimeoutsWrittenOnce keeps Table 3 in one place: in the non-test code
// of internal/core, each fault-detection timeout kind is emitted by exactly
// one function (its firing handler), and each Proto.*Timeouts counter is
// incremented at exactly one site. A timeout written out again per
// controller or per record fails here.
func TestTimeoutsWrittenOnce(t *testing.T) {
	fset := token.NewFileSet()
	fired := map[string][]string{}
	incs := map[string][]string{}
	dir := filepath.Join("internal", "core")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		timeoutSites(fset, f, fired, incs)
	}

	kinds := len(obs.AllTimeoutKinds())
	if len(fired) != kinds {
		t.Errorf("TimeoutFired is called with kinds %v, want the %d of Table 3", keys(fired), kinds)
	}
	for _, k := range keys(fired) {
		if fns := fired[k]; len(fns) != 1 || !strings.HasPrefix(k, "Timeout") {
			t.Errorf("obs.%s is emitted by %d functions %v, want one firing handler", k, len(fns), fns)
		}
	}

	var counters []string
	pt := reflect.TypeOf(stats.Protocol{})
	for i := 0; i < pt.NumField(); i++ {
		if name := pt.Field(i).Name; strings.HasSuffix(name, "Timeouts") {
			counters = append(counters, name)
		}
	}
	if len(counters) != kinds {
		t.Fatalf("stats.Protocol has timeout counters %v, want one per kind", counters)
	}
	for _, c := range counters {
		if sites := incs[c]; len(sites) != 1 {
			t.Errorf("Proto.%s is incremented at %d sites %v, want one", c, len(sites), sites)
		}
	}
}

func keys(m map[string][]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
