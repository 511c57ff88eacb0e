package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// typecheck parses and type-checks one import-free source file. Keeping
// the fixtures import-free lets these tests run without export data: the
// dataflow layer itself is exercised with local stand-ins (a local mutex
// type plus a pluggable classifier instead of sync.Mutex).
func typecheck(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
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
		name := ExprPath(c.Fun)
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
		if got := r.Fn(lookupFunc(t, g, name)); got != want {
			t.Errorf("Reach.Fn(%s) = %v, want %v", name, got, want)
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

// lockFixture uses a local mutex stand-in and a name-based classifier, so
// the simulation is exercised without importing sync.
const lockFixture = `package p

type mutex struct{}

func (*mutex) Lock()   {}
func (*mutex) Unlock() {}

type T struct {
	mu mutex
	x  int
}

func (t *T) straight() {
	t.mu.Lock()
	_ = t.x // HELD
	t.mu.Unlock()
	_ = t.x // BARE
}

func (t *T) deferred() {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.x // HELD
	if t.x > 0 { // HELD
		return
	}
	_ = t.x // HELD
}

func (t *T) branchy(c bool) {
	t.mu.Lock()
	if c {
		t.mu.Unlock()
		_ = t.x // BARE
		return
	}
	_ = t.x // HELD
	t.mu.Unlock()
	_ = t.x // BARE
}

func (t *T) merge(c bool) {
	if c {
		t.mu.Lock()
	}
	_ = t.x // BARE: only one branch locked
}

func (t *T) loop(n int) {
	t.mu.Lock()
	for i := 0; i < n; i++ {
		_ = t.x // HELD
	}
	_ = t.x // HELD
	for i := 0; i < n; i++ {
		t.mu.Unlock()
		t.mu.Lock()
	}
	_ = t.x // HELD: every loop exit point re-holds the lock
	for i := 0; i < n; i++ {
		if i == 2 {
			t.mu.Unlock()
			break
		}
	}
	_ = t.x // BARE: the break path released the lock
}

func (t *T) spawn() {
	t.mu.Lock()
	go func() {
		_ = t.x // BARE: new goroutine holds nothing
	}()
	_ = t.x // HELD
	t.mu.Unlock()
}
`

func TestWalkHeldLockStates(t *testing.T) {
	fset, f, info := typecheck(t, lockFixture)

	// expected[line] = true if t.mu must be held at the t.x access.
	expected := map[int]bool{}
	for i, line := range strings.Split(lockFixture, "\n") {
		switch {
		case strings.Contains(line, "// HELD"):
			expected[i+1] = true
		case strings.Contains(line, "// BARE"):
			expected[i+1] = false
		}
	}
	if len(expected) == 0 {
		t.Fatal("no HELD/BARE markers in fixture")
	}

	model := LockModel{
		Info: info,
		Classify: func(call *ast.CallExpr) ([]string, LockEffect) {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return nil, EffectNone
			}
			keys := []string{ExprPath(sel.X)}
			switch sel.Sel.Name {
			case "Lock":
				return keys, EffectAcquire
			case "Unlock":
				return keys, EffectRelease
			}
			return nil, EffectNone
		},
	}

	got := map[int]bool{}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Recv == nil {
			continue
		}
		WalkHeld(model, fd.Body, NewLockSet(), func(n ast.Node, held *LockSet) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "x" {
				return
			}
			line := fset.Position(sel.Pos()).Line
			h := held.Holds("t.mu")
			if prev, seen := got[line]; seen {
				h = h && prev // visited on several paths: must-hold meets
			}
			got[line] = h
		})
	}

	for line, want := range expected {
		gotHeld, seen := got[line]
		if !seen {
			t.Errorf("line %d: access never visited", line)
			continue
		}
		if gotHeld != want {
			t.Errorf("line %d: held = %v, want %v", line, gotHeld, want)
		}
	}
}

func TestMutexOpAndFieldKeys(t *testing.T) {
	// This one needs real sync.Mutex resolution, so it gets its own tiny
	// package with a vendored-in shape: a named struct from this package
	// only. MutexOp demands package path "sync", so a local impostor must
	// be rejected.
	const src = `package p

type Mutex struct{}

func (*Mutex) Lock() {}

type S struct{ mu Mutex }

func f(s *S) { s.mu.Lock() }
`
	_, f, info := typecheck(t, src)
	var call *ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			call = c
		}
		return true
	})
	if keys, eff := MutexOp(info, call); eff != EffectNone {
		t.Errorf("local impostor Mutex classified as a lock op: %v %v", keys, eff)
	}

	var sel *ast.SelectorExpr
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok && s.Sel.Name == "mu" {
			sel = s
		}
		return true
	})
	pathKey, typeKey := FieldKeys(info, sel)
	if pathKey != "s.mu" || typeKey != "S.mu" {
		t.Errorf("FieldKeys = %q, %q; want \"s.mu\", \"S.mu\"", pathKey, typeKey)
	}
}
