package analyzers

import (
	"go/ast"
	"go/types"
	"strconv"

	"pace/internal/lint"
)

// ErrwrapScope is the set of import paths whose error chains must stay
// errors.Is/As-transparent. Tests point it at fixture packages.
var ErrwrapScope = []string{"pace", "pace/internal/serve", "pace/internal/cluster"}

// Errwrap enforces chain-preserving error wrapping in the packages whose
// errors cross API boundaries (the root package, serve, cluster): an
// error value formatted into fmt.Errorf must use %w — %v, %s or a
// .Error() call flattens it to text, and downstream errors.Is(err,
// context.Canceled) / errors.As(&RankFailedError{}) matching silently
// stops working. Since Go 1.20 fmt.Errorf accepts multiple %w verbs, so
// there is no excuse for flattening a second error in one format.
var Errwrap = &lint.Analyzer{
	Name: "errwrap",
	Doc:  "errors formatted into fmt.Errorf in API-boundary packages must use %w, not %v/%s/.Error()",
	Run:  runErrwrap,
}

func runErrwrap(pass *lint.Pass) error {
	if !pathInScope(pass.Pkg.Path(), ErrwrapScope) {
		return nil
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgFunc(info, call, "fmt", "Errorf") || len(call.Args) == 0 {
				return true
			}
			format, ok := stringLit(call.Args[0])
			if !ok {
				return true
			}
			verbs := formatVerbs(format)
			for i, arg := range call.Args[1:] {
				if i >= len(verbs) {
					break
				}
				if verbs[i] != 'w' && isErrorType(info.TypeOf(arg)) {
					pass.Reportf(arg.Pos(),
						"error formatted with %%%c loses the chain; use %%w so errors.Is/As still match through it", verbs[i])
				}
				reportErrorCalls(pass, arg)
			}
			return true
		})
	}
	return nil
}

// reportErrorCalls flags (error).Error() calls feeding an Errorf argument:
// stringifying inside the format drops the chain just like %v does.
func reportErrorCalls(pass *lint.Pass, arg ast.Expr) {
	info := pass.TypesInfo
	ast.Inspect(arg, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
			return true
		}
		if isErrorType(info.TypeOf(sel.X)) {
			pass.Reportf(call.Pos(),
				".Error() inside fmt.Errorf flattens the chain; pass the error itself with %%w")
		}
		return true
	})
}

// formatVerbs returns the verb letter consuming each successive argument
// of a printf-style format ('*' width/precision slots consume an int and
// are reported as '*').
func formatVerbs(format string) []rune {
	var verbs []rune
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// flags, width, precision; '*' consumes an argument of its own.
	spec:
		for i < len(format) {
			switch c := format[i]; {
			case c == '*':
				verbs = append(verbs, '*')
				i++
			case c == '#' || c == '+' || c == '-' || c == ' ' || c == '0' || c == '.' || (c >= '0' && c <= '9'):
				i++
			default:
				break spec
			}
		}
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue // literal %%
		}
		verbs = append(verbs, rune(format[i]))
	}
	return verbs
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind.String() != "STRING" {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface)
}

// isPkgFunc matches a call to pkg.Name (e.g. fmt.Errorf) by resolved
// object, not by spelling.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}
