package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// handlerArgs maps each scheduling call to the positions of its handler
// arguments: sim.Engine's ScheduleCall, ScheduleCallAt and
// ScheduleChoiceAt (delivery and drop handlers), and sim.Timer's Start,
// recognised by its four arguments (engine, delay, handler, argument).
var handlerArgs = map[string]struct {
	nargs   int // 0: any
	handler []int
}{
	"ScheduleCall":     {4, []int{1}},
	"ScheduleCallAt":   {4, []int{1}},
	"ScheduleChoiceAt": {7, []int{1, 2}},
	"Start":            {4, []int{2}},
}

// literalHandlers returns the position of every function literal passed
// directly as an event or timer handler in file.
func literalHandlers(fset *token.FileSet, file *ast.File) []string {
	var found []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		spec, ok := handlerArgs[sel.Sel.Name]
		if !ok || spec.nargs != 0 && len(call.Args) != spec.nargs {
			return true
		}
		for _, i := range spec.handler {
			if _, lit := call.Args[i].(*ast.FuncLit); lit {
				found = append(found, fset.Position(call.Args[i].Pos()).String()+": "+sel.Sel.Name)
			}
		}
		return true
	})
	return found
}

// TestEventHandlersAreNotLiterals keeps every queued event data: in the
// simulator's non-test code, a handler given to ScheduleCall,
// ScheduleCallAt, ScheduleChoiceAt or Timer.Start is a package-level
// function or a handler its owner built once, never a function literal at
// the call, which would capture the site's variables in a closure that a
// snapshot of the event queue cannot copy.
func TestEventHandlersAreNotLiterals(t *testing.T) {
	fset := token.NewFileSet()
	const probe = `package p
func f(e, tm, fn any) {
	e.ScheduleCall(1, func(any, uint64) {}, nil, 0)
	e.ScheduleChoiceAt(1, fn, func(any, uint64) {}, nil, 0, 0, 0)
	tm.Start(e, 1, func(any) {}, nil)
	e.ScheduleCall(1, fn, nil, 0)
	tm.Start()
}`
	pf, err := parser.ParseFile(fset, "probe.go", probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := literalHandlers(fset, pf); len(got) != 3 {
		t.Fatalf("the probe's three literal handlers were found as %q", got)
	}

	files := 0
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		for _, site := range literalHandlers(fset, f) {
			t.Errorf("%s: function literal passed as a handler; use a package-level function or a handler built once", site)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found under internal/")
	}
}
