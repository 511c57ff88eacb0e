package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, *allowIndex, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ix, bad := buildAllowIndex(fset, []*ast.File{f})
	return fset, ix, bad
}

func TestDirectiveMissingReason(t *testing.T) {
	_, _, bad := parseOne(t, `package p
//pacelint:allow walltime
func f() {}
`)
	if len(bad) != 1 || !strings.Contains(bad[0].Message, "missing reason") {
		t.Fatalf("want one missing-reason diagnostic, got %v", bad)
	}
}

func TestDirectiveMissingAnalyzer(t *testing.T) {
	_, _, bad := parseOne(t, `package p
//pacelint:allow
func f() {}
`)
	if len(bad) != 1 || !strings.Contains(bad[0].Message, "malformed directive") {
		t.Fatalf("want one malformed diagnostic, got %v", bad)
	}
}

func TestDirectiveUnknownForm(t *testing.T) {
	_, _, bad := parseOne(t, `package p
//pacelint:suppress walltime because reasons
func f() {}
`)
	if len(bad) != 1 || !strings.Contains(bad[0].Message, "malformed directive") {
		t.Fatalf("want one malformed diagnostic, got %v", bad)
	}
}

func TestDirectiveScopes(t *testing.T) {
	_, ix, bad := parseOne(t, `package p
//pacelint:allow walltime real-mode backoff
func f() {}
`)
	if len(bad) != 0 {
		t.Fatalf("unexpected diagnostics: %v", bad)
	}
	if !ix.allows("walltime", token.Position{Filename: "d.go", Line: 2}) {
		t.Error("directive line itself not suppressed")
	}
	if !ix.allows("walltime", token.Position{Filename: "d.go", Line: 3}) {
		t.Error("line below directive not suppressed")
	}
	if ix.allows("walltime", token.Position{Filename: "d.go", Line: 4}) {
		t.Error("suppression leaked past the next line")
	}
	if ix.allows("vfsonly", token.Position{Filename: "d.go", Line: 3}) {
		t.Error("suppression leaked to another analyzer")
	}
}

func TestDirectiveFileScope(t *testing.T) {
	_, ix, bad := parseOne(t, `package p
//pacelint:allow-file walltime transport shim is wall-clock by design
func f() {}
`)
	if len(bad) != 0 {
		t.Fatalf("unexpected diagnostics: %v", bad)
	}
	if !ix.allows("walltime", token.Position{Filename: "d.go", Line: 99}) {
		t.Error("file-wide directive did not suppress an arbitrary line")
	}
	if ix.allows("walltime", token.Position{Filename: "other.go", Line: 99}) {
		t.Error("file-wide directive leaked to another file")
	}
}
