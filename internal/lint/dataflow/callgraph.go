// Package dataflow is the flow-aware layer beneath ctxpoll: a
// type-directed call graph over one package (declared functions, methods
// and single-assignment local closures) and loop-contains-call
// reachability over it (Reach): does executing this node hit a given
// "direct" fact, literally or through calls to package functions that do?
//
// Everything here is intra-package: calls that resolve to another package,
// to an interface method, or to a dynamic function value are treated as
// opaque. That bias is deliberate — the fact is consumed by a "must reach"
// check, so opaque calls err toward reporting, never toward silence.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Graph is a call graph over one type-checked package. Nodes are
// types.Objects: *types.Func for declared functions and methods,
// *types.Var for local variables bound exactly once to a function literal
// (x := func(...){...} with no reassignment).
type Graph struct {
	Info *types.Info

	decls    map[*types.Func]*ast.FuncDecl
	closures map[*types.Var]*ast.FuncLit
}

// NewGraph builds the graph from the package's syntax and type info.
func NewGraph(info *types.Info, files []*ast.File) *Graph {
	g := &Graph{
		Info:     info,
		decls:    map[*types.Func]*ast.FuncDecl{},
		closures: map[*types.Var]*ast.FuncLit{},
	}
	// A closure variable only counts while it has exactly one binding:
	// reassignment (or a second candidate literal) makes the target
	// ambiguous, so the variable drops out of the graph.
	unstable := map[*types.Var]bool{}
	bind := func(id *ast.Ident, rhs ast.Expr, define bool) {
		v, ok := objOf(g.Info, id).(*types.Var)
		if !ok {
			return
		}
		lit, isLit := unparen(rhs).(*ast.FuncLit)
		if define && isLit {
			if _, dup := g.closures[v]; dup {
				unstable[v] = true
			}
			g.closures[v] = lit
			return
		}
		unstable[v] = true
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if fn, ok := info.Defs[n.Name].(*types.Func); ok {
					g.decls[fn] = n
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					bind(id, rhs, n.Tok == token.DEFINE)
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					var rhs ast.Expr
					if i < len(n.Values) {
						rhs = n.Values[i]
					}
					bind(id, rhs, true)
				}
			}
			return true
		})
	}
	for v := range unstable {
		delete(g.closures, v)
	}
	return g
}

// Callee resolves the static target of a call: a *types.Func (declared
// anywhere — same package, imported, or a method), a closure *types.Var
// tracked by this graph, or nil for dynamic calls, conversions and
// builtins.
func (g *Graph) Callee(call *ast.CallExpr) types.Object {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		switch o := objOf(g.Info, fun).(type) {
		case *types.Func:
			return o
		case *types.Var:
			if _, ok := g.closures[o]; ok {
				return o
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := g.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// Bodies returns every graph node that has a body: declared functions and
// methods plus tracked closures.
func (g *Graph) Bodies() map[types.Object]*ast.BlockStmt {
	out := make(map[types.Object]*ast.BlockStmt, len(g.decls)+len(g.closures))
	for fn, d := range g.decls {
		if d.Body != nil {
			out[fn] = d.Body
		}
	}
	for v, lit := range g.closures {
		out[v] = lit.Body
	}
	return out
}

// Reach answers loop-contains-call queries against one direct fact: a node
// predicate such as "this is a context poll". A function reaches the fact
// if its body contains a matching node, or calls (transitively, within the
// package) a function that does.
type Reach struct {
	g      *Graph
	direct func(ast.Node) bool
	funcs  map[types.Object]bool
}

// Reach computes the reaching-function set for the direct fact.
func (g *Graph) Reach(direct func(ast.Node) bool) *Reach {
	r := &Reach{g: g, direct: direct, funcs: map[types.Object]bool{}}
	type summary struct {
		hit   bool
		calls []types.Object
	}
	sums := map[types.Object]summary{}
	for obj, body := range g.Bodies() {
		hit, calls := r.scan(body)
		sums[obj] = summary{hit: hit, calls: calls}
	}
	for changed := true; changed; {
		changed = false
		for obj, s := range sums {
			if r.funcs[obj] {
				continue
			}
			ok := s.hit
			for _, c := range s.calls {
				if r.funcs[c] {
					ok = true
				}
			}
			if ok {
				r.funcs[obj] = true
				changed = true
			}
		}
	}
	return r
}

// Reaches reports whether executing root (e.g. a loop statement) reaches
// the fact: a direct match under root, or a call to a reaching function.
func (r *Reach) Reaches(root ast.Node) bool {
	hit, calls := r.scan(root)
	if hit {
		return true
	}
	for _, c := range calls {
		if r.funcs[c] {
			return true
		}
	}
	return false
}

// scan walks root without descending into function literals — their bodies
// run on someone else's schedule — except literals that are invoked on the
// spot (func(){...}()), which execute inline. A `go func(){...}()` literal
// is NOT inline: the spawned goroutine's polls do not interrupt this one.
func (r *Reach) scan(root ast.Node) (hit bool, calls []types.Object) {
	inline := map[*ast.FuncLit]bool{}
	spawned := map[*ast.FuncLit]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
				spawned[lit] = true
			}
		}
		if lit, ok := n.(*ast.FuncLit); ok && n != root && !inline[lit] {
			return false
		}
		if r.direct(n) {
			hit = true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
				if !spawned[lit] {
					inline[lit] = true
				}
			} else if obj := r.g.Callee(call); obj != nil {
				calls = append(calls, obj)
			}
		}
		return true
	})
	return hit, calls
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
