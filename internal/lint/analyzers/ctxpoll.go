package analyzers

import (
	"go/ast"
	"go/types"

	"pace/internal/lint"
	"pace/internal/lint/dataflow"
)

// CtxpollScope is the set of import paths whose loops carry the PR 8
// cancellation contract. Tests point it at fixture packages.
var CtxpollScope = []string{"pace/internal/cluster", "pace/internal/serve"}

// Ctxpoll enforces the cancellation contract of the engine and serving
// packages: a dispatch/protocol loop (`for` with no condition) or a wait
// loop (a conditional `for` that blocks on a select, channel receive or
// sleep) must poll the run's context on its own control path — a
// `ctx.Err()` / `Config.ctxErr()` call or a `<-ctx.Done()` case, possibly
// behind same-package helper calls. Otherwise a canceled run keeps the
// loop (and the rank driving it) alive forever.
//
// The check is reachability over the package call graph: a poll buried in
// a helper the loop calls counts, a poll in a goroutine the loop spawns
// does not. Loops that are legitimately exempt (e.g. a bounded drain that
// runs after the context already fired) carry //pacelint:allow ctxpoll
// with the reason.
var Ctxpoll = &lint.Analyzer{
	Name: "ctxpoll",
	Doc:  "unbounded and blocking wait loops in the engine/serving packages must poll the run context",
	Run:  runCtxpoll,
}

func runCtxpoll(pass *lint.Pass) error {
	if !pathInScope(pass.Pkg.Path(), CtxpollScope) {
		return nil
	}
	g := dataflow.NewGraph(pass.TypesInfo, pass.Files)
	reach := g.Reach(func(n ast.Node) bool { return isCtxPoll(pass.TypesInfo, n) })
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			if loop.Cond != nil && !isWaitLoop(loop.Body) {
				return true
			}
			if reach.Reaches(loop) {
				return true
			}
			kind := "unbounded loop"
			if loop.Cond != nil {
				kind = "blocking wait loop"
			}
			pass.Reportf(loop.Pos(),
				"%s never polls the run context; poll Config.Ctx (ctxErr) or select on ctx.Done() so cancellation can interrupt it", kind)
			return true
		})
	}
	return nil
}

// isCtxPoll matches the primitive poll shapes: any use of context.Context's
// Err or Done methods (`ctx.Err()`, `<-ctx.Done()`, a Done case in a
// select). Helper chains on top of these are handled by reachability.
func isCtxPoll(info *types.Info, n ast.Node) bool {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Err" && sel.Sel.Name != "Done" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// isWaitLoop reports whether a conditional loop's body blocks: a select
// statement, a channel receive (<-ch, including <-time.After) or a
// time.Sleep call, without descending into nested function literals.
func isWaitLoop(body *ast.BlockStmt) bool {
	blocking := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			blocking = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				blocking = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" {
					blocking = true
				}
			}
		}
		return !blocking
	})
	return blocking
}

// pathInScope reports whether pkgPath equals one of the scope entries
// (tests point the scope at the fixture module's own paths).
func pathInScope(pkgPath string, scope []string) bool {
	for _, s := range scope {
		if pkgPath == s {
			return true
		}
	}
	return false
}
