// Package linttest runs pacelint analyzers against fixture packages and
// checks their diagnostics against // want "regexp" comments, in the style
// of golang.org/x/tools/go/analysis/analysistest (re-implemented here on
// the standard library; the container builds offline).
//
// Fixture layout: internal/lint/testdata is its own module ("fixture") so
// the main build never sees it — the go tool ignores testdata directories —
// and so it can carry its own DESIGN.md metric catalog. A line expecting
// one or more diagnostics carries
//
//	code() // want "first regexp" "second regexp"
//
// Every diagnostic must be matched by a want on its line, and every want
// must be matched by a diagnostic; mismatches fail the test with positions.
package linttest

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"pace/internal/lint"
)

// Run loads pattern (e.g. "./walltime/...") relative to dir, applies the
// analyzers, and verifies diagnostics against want comments.
func Run(t *testing.T, dir string, analyzers []*lint.Analyzer, pattern string) {
	t.Helper()
	pkgs, err := lint.LoadPackages(dir, pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("pattern %s matched no packages under %s", pattern, dir)
	}
	for _, pkg := range pkgs {
		diags, err := lint.AnalyzePackage(pkg, analyzers)
		if err != nil {
			t.Fatalf("analyzing %s: %v", pkg.PkgPath, err)
		}
		checkWants(t, pkg, diags)
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

func checkWants(t *testing.T, pkg *lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWants(t, pkg.Fset, c)...)
			}
		}
	}

	for _, d := range diags {
		if !matchWant(wants, d) {
			t.Errorf("%s:%d: unexpected diagnostic [%s]: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func parseWants(t *testing.T, fset *token.FileSet, c *ast.Comment) []*want {
	t.Helper()
	text := c.Text
	idx := strings.Index(text, "// want ")
	if idx < 0 {
		return nil
	}
	pos := fset.Position(c.Pos())
	rest := text[idx+len("// want "):]
	ms := wantRE.FindAllStringSubmatch(rest, -1)
	if len(ms) == 0 {
		t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, text)
	}
	var ws []*want
	for _, m := range ms {
		re, err := regexp.Compile(m[1])
		if err != nil {
			t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
		}
		ws = append(ws, &want{file: pos.Filename, line: pos.Line, re: re})
	}
	return ws
}

func matchWant(wants []*want, d lint.Diagnostic) bool {
	for _, w := range wants {
		if w.used || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.used = true
			return true
		}
	}
	return false
}

// Diagnose is a convenience for tests asserting on raw diagnostics.
func Diagnose(t *testing.T, dir string, analyzers []*lint.Analyzer, pattern string) []lint.Diagnostic {
	t.Helper()
	pkgs, err := lint.LoadPackages(dir, pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	var all []lint.Diagnostic
	for _, pkg := range pkgs {
		diags, err := lint.AnalyzePackage(pkg, analyzers)
		if err != nil {
			t.Fatalf("analyzing %s: %v", pkg.PkgPath, err)
		}
		all = append(all, diags...)
	}
	return all
}

// DiagnoseStrict is the driver's full run (lint.Check) as a test helper.
func DiagnoseStrict(t *testing.T, dir string, analyzers []*lint.Analyzer, pattern string) []lint.Diagnostic {
	t.Helper()
	diags, err := lint.Check(dir, analyzers, pattern)
	if err != nil {
		t.Fatalf("checking %s: %v", pattern, err)
	}
	return diags
}
