package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"pace/internal/lint"
)

// WalltimeScope lists the import-path suffixes of the virtual-time
// packages: code whose behavior must be identical under the simulated
// machine, checkpoint replay and fault-injected reruns. Inside them a
// wall-clock read is a determinism bug unless explicitly annotated
// (ModeReal transports, the simulator's own measured-compute bridge).
//
// Tests may override the slice to point the analyzer at fixture modules.
var WalltimeScope = []string{
	"pace/internal/mp",
	"pace/internal/cluster",
	"pace/internal/telemetry",
}

// walltimeFuncs are the forbidden package time entry points. Conversions
// and constructors that do not read the clock (time.Duration, time.Unix,
// time.Date) stay legal.
var walltimeFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Since":     true,
	"Until":     true,
}

// slogWallFuncs are the log/slog entry points that smuggle wall-clock
// reads into virtual-time code: the stdlib handler constructors stamp
// every record with time.Now at Handle time, and the process-default
// logger routes records to such a handler too. telemetry.NewLogger is the
// sanctioned factory — it wraps the handler so each record is re-stamped
// from an injected Clock before encoding.
var slogWallFuncs = map[string]bool{
	"NewJSONHandler": true,
	"NewTextHandler": true,
	"Default":        true,
	"SetDefault":     true,
}

// Walltime forbids wall-clock reads in the virtual-time packages, the
// contract behind the simulator's reproducible timings and the
// checkpoint/fault replay equivalence tests. Production code must take its
// time from Comm.Elapsed, an injected clock, or explicit charges. The same
// contract covers logging: stdlib slog handlers stamp records from the
// wall clock, so loggers must come from telemetry.NewLogger instead.
var Walltime = &lint.Analyzer{
	Name: "walltime",
	Doc:  "forbids time.Now/Sleep/... and wall-clock slog handlers in virtual-time packages unless annotated",
	Run:  runWalltime,
}

func runWalltime(pass *lint.Pass) error {
	if !walltimeInScope(pass.Pkg.Path()) {
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
			case fn.Pkg().Path() == "time" && walltimeFuncs[fn.Name()]:
				pass.Reportf(sel.Pos(),
					"time.%s reads the wall clock in virtual-time package %s; use Comm.Elapsed / an injected clock, or annotate with //pacelint:allow walltime <reason>",
					fn.Name(), pass.Pkg.Path())
			case fn.Pkg().Path() == "log/slog" && slogWallFuncs[fn.Name()]:
				pass.Reportf(sel.Pos(),
					"slog.%s stamps log records from the wall clock in virtual-time package %s; build loggers with telemetry.NewLogger (injected clock), or annotate with //pacelint:allow walltime <reason>",
					fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

func walltimeInScope(path string) bool {
	for _, s := range WalltimeScope {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
