package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"pace/internal/lint"
)

// TagConst enforces the tag registry discipline of the master–slave
// protocol: every tag handed to the mp endpoint (Send, Recv, RecvTimeout,
// Probe) must be a named constant whose name starts with
// "tag"/"Tag" — never a bare literal or an arbitrary expression — and
// within one package no two tag constants may share a value (a collision
// silently cross-wires two message streams; see the collective-tag space in
// internal/mp). A tag that is threaded through a parameter itself named
// tag* is accepted: the constant obligation falls on the outermost caller.
var TagConst = &lint.Analyzer{
	Name:      "tagconst",
	Doc:       "mp message tags must be named tag* constants with package-unique values",
	SkipTests: true,
	Run:       runTagConst,
}

// tagArgIndex maps Comm method name -> index of its tag argument.
var tagArgIndex = map[string]int{
	"Send":        1,
	"Recv":        1,
	"RecvTimeout": 1,
	"Probe":       1,
}

func runTagConst(pass *lint.Pass) error {
	checkTagUniqueness(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for name, idx := range tagArgIndex {
				if !commMethod(pass.TypesInfo, call, name) || len(call.Args) <= idx {
					continue
				}
				arg := call.Args[idx]
				if !isTagExpr(pass.TypesInfo, arg) {
					pass.Reportf(arg.Pos(),
						"tag argument of Comm.%s must be a named tag* constant (or a tag* parameter), not %s",
						name, exprString(arg))
				}
			}
			return true
		})
	}
	return nil
}

// isTagExpr accepts identifiers/selectors resolving to a constant or
// variable/parameter whose name starts with tag or Tag.
func isTagExpr(info *types.Info, e ast.Expr) bool {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		return false
	}
	if !strings.HasPrefix(obj.Name(), "tag") && !strings.HasPrefix(obj.Name(), "Tag") {
		return false
	}
	switch obj.(type) {
	case *types.Const, *types.Var:
		return true
	}
	return false
}

// checkTagUniqueness reports package-level tag* constants that collide on a
// value.
func checkTagUniqueness(pass *lint.Pass) {
	type tagDecl struct {
		name string
		pos  token.Pos
	}
	seen := map[int64]tagDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "tag") && !strings.HasPrefix(name.Name, "Tag") {
						continue
					}
					c, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok {
						continue
					}
					v, exact := constant.Int64Val(c.Val())
					if !exact {
						continue
					}
					if prev, dup := seen[v]; dup {
						pass.Reportf(name.Pos(),
							"tag constant %s = %d collides with %s declared at %s: tag values must be unique within a package",
							name.Name, v, prev.name, pass.Fset.Position(prev.pos))
						continue
					}
					seen[v] = tagDecl{name: name.Name, pos: name.Pos()}
				}
			}
		}
	}
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.BasicLit:
		return "literal " + x.Value
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	default:
		return "an expression"
	}
}
