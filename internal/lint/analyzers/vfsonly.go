package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"pace/internal/lint"
)

// VfsonlyScope lists the import-path suffixes of the packages whose durable
// writes must flow through the internal/vfs seam: the serving stack's state
// directories and the engine's checkpoint path. A direct os mutation there
// is invisible to fault injection — chaos tests and crash-window sweeps
// cannot reach it, so its failure modes ship untested.
//
// Tests may override the slice to point the analyzer at fixture modules.
var VfsonlyScope = []string{
	"pace/internal/serve",
	"pace/internal/cluster",
}

// vfsonlyFuncs are the forbidden package os entry points: every durable
// mutation the vfs.FS interface covers. Reads (os.Open, os.ReadFile,
// os.ReadDir) stay legal — the seam covers the write path only.
var vfsonlyFuncs = map[string]bool{
	"WriteFile":  true,
	"Rename":     true,
	"CreateTemp": true,
	"Create":     true,
	"Remove":     true,
	"RemoveAll":  true,
	"MkdirAll":   true,
	"Mkdir":      true,
}

// Vfsonly forbids direct filesystem mutation in the packages that persist
// session state: writes must go through an injected vfs.FS so deterministic
// fault plans (ENOSPC, torn writes, fsync failures, crash-at-op-k) exercise
// every durability path the server actually takes.
var Vfsonly = &lint.Analyzer{
	Name: "vfsonly",
	Doc:  "forbids direct os writes (os.WriteFile/Rename/... and (*os.File).Sync) in state-persisting packages; route them through internal/vfs",
	Run:  runVfsonly,
}

func runVfsonly(pass *lint.Pass) error {
	if !vfsonlyInScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch {
			case fn.Pkg().Path() == "os" && fn.Type().(*types.Signature).Recv() == nil && vfsonlyFuncs[fn.Name()]:
				pass.Reportf(sel.Pos(),
					"os.%s mutates the filesystem outside the vfs seam in %s; write through an injected vfs.FS so fault plans cover it, or annotate with //pacelint:allow vfsonly <reason>",
					fn.Name(), pass.Pkg.Path())
			case fn.Name() == "Sync" && osFileMethod(fn):
				pass.Reportf(sel.Pos(),
					"(*os.File).Sync fsyncs outside the vfs seam in %s; use a vfs.File from the injected FS, or annotate with //pacelint:allow vfsonly <reason>",
					pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

// osFileMethod reports whether fn is a method on package os's File type.
func osFileMethod(fn *types.Func) bool {
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
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}

func vfsonlyInScope(path string) bool {
	for _, s := range VfsonlyScope {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
