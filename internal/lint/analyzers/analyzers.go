// Package analyzers holds the pacelint checks. Each one mechanizes a
// contract that no test, race leg, fuzzer or the compiler already holds:
//
//   - walltime: no wall-clock reads in the virtual-time packages.
//   - vfsonly: durable writes in the state-persisting packages go through
//     the internal/vfs seam, so fault injection covers them.
//   - ctxpoll: engine dispatch loops and serving wait loops poll the run
//     context (the PR 8 cancellation contract).
//   - errwrap: errors crossing the cluster/serve/root API boundaries wrap
//     with %w so errors.Is/As survive the chain.
//   - metriccatalog: pace_* metric names in code and the DESIGN.md §13
//     catalog stay in lockstep, both directions.
//
// ctxpoll is built on the call graph in pace/internal/lint/dataflow. The
// roster (contract, what else enforces it, findings) is the table in
// DESIGN.md §10, which TestRosterMatchesDesign keeps in lockstep with All.
package analyzers

import "pace/internal/lint"

// All returns the full pacelint suite in stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		Walltime,
		Vfsonly,
		Ctxpoll,
		Errwrap,
		MetricCatalog,
	}
}
