// Package lint is a self-contained static-analysis framework in the spirit
// of golang.org/x/tools/go/analysis, built only on the standard library so
// the repo stays dependency-free. It exists to carry pacelint: the
// project-specific analyzers that enforce the determinism, persistence,
// cancellation, error-chain and metric-catalog contracts no test or
// compiler check holds (see DESIGN.md §10).
//
// The framework has two entry points:
//
//   - Main, the one driver: `pacelint [packages]` loads the packages'
//     non-test sources itself (via `go list -export`), runs every analyzer
//     over each, audits the allow-directive ledger and runs the
//     whole-program checks.
//   - linttest, which runs an analyzer over fixture modules with
//     analysistest-style `// want "regexp"` expectations.
//
// Findings are suppressed with scoped directives:
//
//	//pacelint:allow <analyzer> <reason>       (this line and the next)
//	//pacelint:allow-file <analyzer> <reason>  (the whole file)
//
// A directive without a reason is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in output and in allow directives.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run reports findings via pass.Reportf.
	Run func(pass *Pass) error
	// RunGlobal, when non-nil, is a whole-program direction of the check
	// that needs every package in view at once (e.g. "the catalog lists a
	// metric no package registers"). It runs in the driver and in the repo
	// suite test, after every package's Run.
	RunGlobal func(pkgs []*Package) []Diagnostic
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	allow *allowIndex
	out   *[]Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos unless an allow directive for this
// analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	posn := p.Fset.Position(pos)
	if p.allow != nil && p.allow.allows(p.Analyzer.Name, posn) {
		return
	}
	*p.out = append(*p.out, Diagnostic{
		Pos:      posn,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// AnalyzePackage runs the analyzers over one loaded package and returns the
// surviving findings, sorted by position. Malformed pacelint directives are
// reported under the pseudo-analyzer "pacelint".
func AnalyzePackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := analyzePackage(pkg, analyzers)
	return diags, err
}

// AnalyzePackageStrict additionally reports allow directives that
// suppressed nothing as "stale-allow" findings (and directives naming an
// analyzer that does not exist). It is meant for full runs — the
// driver and the repo suite test — where every analyzer and every
// non-test file is in view, so "suppressed nothing" genuinely means
// the directive is dead weight in the exemption ledger.
func AnalyzePackageStrict(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, allow, err := analyzePackage(pkg, analyzers)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	diags = append(diags, allow.stale(known)...)
	sortDiagnostics(diags)
	return diags, nil
}

func analyzePackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, *allowIndex, error) {
	var diags []Diagnostic
	allow, bad := buildAllowIndex(pkg.Fset, pkg.Files)
	diags = append(diags, bad...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			allow:     allow,
			out:       &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	sortDiagnostics(diags)
	return diags, allow, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
