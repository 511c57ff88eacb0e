package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typecheck parses and type-checks one import-free source file. Keeping
// the fixtures import-free lets these tests run without export data.
func typecheck(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, f, info
}

func lookupFunc(t *testing.T, g *Graph, name string) types.Object {
	t.Helper()
	for fn := range g.decls {
		if fn.Name() == name {
			return fn
		}
	}
	t.Fatalf("no declared function %q", name)
	return nil
}

func TestGraphCalleesAndClosures(t *testing.T) {
	const src = `package p

type T struct{}

func (T) m() {}

func a() { b() }
func b() {}

func useClosures() {
	cl := func() { b() }
	cl()
	var t T
	t.m()
	rebound := func() {}
	rebound = func() { b() }
	rebound()
}
`
	_, f, info := typecheck(t, src)
	g := NewGraph(info, []*ast.File{f})

	var calls []*ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	bodies := g.Bodies()
	got := map[string]string{}
	for _, c := range calls {
		name := types.ExprString(c.Fun)
		obj := g.Callee(c)
		switch {
		case obj == nil:
			got[name] = "nil"
		case bodies[obj] != nil:
			got[name] = "body"
		default:
			got[name] = "nobody"
		}
	}
	if got["b"] != "body" {
		t.Errorf("call b(): callee = %s, want body", got["b"])
	}
	if got["cl"] != "body" {
		t.Errorf("call cl(): single-assignment closure should resolve with a body, got %s", got["cl"])
	}
	if got["t.m"] != "body" {
		t.Errorf("call t.m(): method should resolve with a body, got %s", got["t.m"])
	}
	// rebound is assigned twice: the target is ambiguous, so it must drop
	// out of the graph rather than resolve to either literal.
	if got["rebound"] != "nil" {
		t.Errorf("call rebound(): reassigned closure must not resolve, got %s", got["rebound"])
	}
}

func TestReachTransitive(t *testing.T) {
	const src = `package p

func poll() {}

func direct()   { poll() }
func viaOne()   { direct() }
func viaTwo()   { viaOne() }
func never()    {}
func viaNever() { never() }

func spawner() { go func() { poll() }() }
func inline()  { func() { poll() }() }

func loops() {
	for { viaTwo() } // reaches

	for { never() } // does not
}
`
	fset, f, info := typecheck(t, src)
	g := NewGraph(info, []*ast.File{f})
	r := g.Reach(func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := c.Fun.(*ast.Ident)
		return ok && id.Name == "poll"
	})

	wantFn := map[string]bool{
		"direct": true, "viaOne": true, "viaTwo": true,
		"never": false, "viaNever": false,
		// A spawned goroutine polls on its own schedule, not the caller's.
		"spawner": false,
		// An immediately-invoked literal runs inline, so its poll counts.
		"inline": true,
	}
	for name, want := range wantFn {
		if got := r.funcs[lookupFunc(t, g, name)]; got != want {
			t.Errorf("Reach.funcs[%s] = %v, want %v", name, got, want)
		}
	}

	var forLoops []*ast.ForStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if l, ok := n.(*ast.ForStmt); ok {
			forLoops = append(forLoops, l)
		}
		return true
	})
	if len(forLoops) != 2 {
		t.Fatalf("want 2 for loops in fixture, got %d", len(forLoops))
	}
	if !r.Reaches(forLoops[0]) {
		t.Errorf("loop at %s should reach poll via viaTwo", fset.Position(forLoops[0].Pos()))
	}
	if r.Reaches(forLoops[1]) {
		t.Errorf("loop at %s must not reach poll", fset.Position(forLoops[1].Pos()))
	}
}
