package lint

import (
	"flag"
	"fmt"
	"os"
)

// Main is the entry point of cmd/pacelint:
//
//	pacelint [packages]   (default ./...)
//
// It runs Check from the working directory, prints findings to stderr and
// exits 2 if there were any. -h prints the analyzer roster.
func Main(analyzers []*Analyzer) {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: pacelint [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := Check(".", analyzers, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// Check is a full run over the packages matching patterns in dir: strict
// per-package analysis (stale-allow audit included) plus each analyzer's
// whole-program RunGlobal pass over everything the patterns matched.
func Check(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := LoadPackages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		diags, err := AnalyzePackageStrict(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	for _, a := range analyzers {
		if a.RunGlobal != nil {
			all = append(all, a.RunGlobal(pkgs)...)
		}
	}
	return all, nil
}
