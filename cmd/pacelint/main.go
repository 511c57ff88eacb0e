// Command pacelint runs the project's analyzer suite: the mechanical form
// of the determinism, persistence, cancellation, error-chain and
// metric-catalog contracts that no test or compiler check already holds.
//
//	go run ./cmd/pacelint ./...
//
// It analyzes the packages' non-test sources, audits the //pacelint:allow
// ledger and runs the whole-program checks; -h lists the analyzers. See
// DESIGN.md §10 for the roster and the directive syntax.
package main

import (
	"pace/internal/lint"
	"pace/internal/lint/analyzers"
)

func main() {
	lint.Main(analyzers.All())
}
