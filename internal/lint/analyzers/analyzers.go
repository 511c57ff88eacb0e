// Package analyzers holds the pacelint checks. Each one mechanizes a
// contract an earlier PR established by convention and guarded only with
// tests:
//
//   - walltime: no wall-clock reads in the virtual-time packages.
//   - tagconst: message tags are named tag* constants, unique per package.
//   - codecwords: fixed-width wire structs, their words() arrays and their
//     *Words constants stay in agreement.
//   - atomichygiene: a field accessed atomically is accessed atomically
//     everywhere.
//   - vfsonly: durable writes in the state-persisting packages go through
//     the internal/vfs seam, so fault injection covers them.
//   - ctxpoll: engine dispatch loops and serving wait loops poll the run
//     context (the PR 8 cancellation contract).
//   - lockguard: `// guarded by <mu>` fields are accessed with the mutex
//     held on every path; suspicious unannotated fields are flagged.
//   - errwrap: errors crossing the cluster/serve/root API boundaries wrap
//     with %w so errors.Is/As survive the chain.
//   - metriccatalog: pace_* metric names in code and the DESIGN.md §13/§15
//     catalog stay in lockstep, both directions.
//
// The flow-aware ones (ctxpoll, lockguard) are built on
// pace/internal/lint/dataflow. The roster (contract, rationale, origin)
// is the table in DESIGN.md §10, which TestRosterMatchesDesign keeps in
// lockstep with All; the dataflow layer is described in §16.
package analyzers

import (
	"go/ast"
	"go/types"

	"pace/internal/lint"
)

// All returns the full pacelint suite in stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		Walltime,
		TagConst,
		CodecWords,
		AtomicHygiene,
		Vfsonly,
		Ctxpoll,
		Lockguard,
		Errwrap,
		MetricCatalog,
	}
}

// commMethod resolves call to a method of the given name on the
// message-passing endpoint type Comm (package mp — matched by package name
// so test fixtures can supply their own mp). It returns false for anything
// else.
func commMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Comm" && obj.Pkg() != nil && obj.Pkg().Name() == "mp"
}

// resolveIdent returns the object an identifier uses or defines.
func resolveIdent(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
