package analyzers_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pace/internal/lint"
	"pace/internal/lint/analyzers"
	"pace/internal/lint/linttest"
)

func fixtureDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("../testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestWalltime(t *testing.T) {
	old := analyzers.WalltimeScope
	analyzers.WalltimeScope = []string{"fixture/walltime"}
	defer func() { analyzers.WalltimeScope = old }()
	linttest.Run(t, fixtureDir(t), []*lint.Analyzer{analyzers.Walltime}, "./walltime")
}

func TestWalltimeOutOfScope(t *testing.T) {
	// With the real scope, the fixture package is not a virtual-time
	// package and must produce no findings.
	diags := linttest.Diagnose(t, fixtureDir(t), []*lint.Analyzer{analyzers.Walltime}, "./walltime")
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside WalltimeScope: %s", d)
	}
}

func TestVfsonly(t *testing.T) {
	old := analyzers.VfsonlyScope
	analyzers.VfsonlyScope = []string{"fixture/vfsonly"}
	defer func() { analyzers.VfsonlyScope = old }()
	linttest.Run(t, fixtureDir(t), []*lint.Analyzer{analyzers.Vfsonly}, "./vfsonly")
}

func TestVfsonlyOutOfScope(t *testing.T) {
	// With the real scope, the fixture package is not a state-persisting
	// package and must produce no findings.
	diags := linttest.Diagnose(t, fixtureDir(t), []*lint.Analyzer{analyzers.Vfsonly}, "./vfsonly")
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside VfsonlyScope: %s", d)
	}
}

func TestCtxpoll(t *testing.T) {
	old := analyzers.CtxpollScope
	analyzers.CtxpollScope = []string{"fixture/ctxpoll"}
	defer func() { analyzers.CtxpollScope = old }()
	linttest.Run(t, fixtureDir(t), []*lint.Analyzer{analyzers.Ctxpoll}, "./ctxpoll")
}

func TestCtxpollOutOfScope(t *testing.T) {
	// With the real scope, the fixture package carries no cancellation
	// contract and must produce no findings.
	diags := linttest.Diagnose(t, fixtureDir(t), []*lint.Analyzer{analyzers.Ctxpoll}, "./ctxpoll")
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside CtxpollScope: %s", d)
	}
}

func TestErrwrap(t *testing.T) {
	old := analyzers.ErrwrapScope
	analyzers.ErrwrapScope = []string{"fixture/errwrap"}
	defer func() { analyzers.ErrwrapScope = old }()
	linttest.Run(t, fixtureDir(t), []*lint.Analyzer{analyzers.Errwrap}, "./errwrap")
}

func TestErrwrapOutOfScope(t *testing.T) {
	diags := linttest.Diagnose(t, fixtureDir(t), []*lint.Analyzer{analyzers.Errwrap}, "./errwrap")
	for _, d := range diags {
		t.Errorf("unexpected diagnostic outside ErrwrapScope: %s", d)
	}
}

func TestMetricCatalog(t *testing.T) {
	// No scope to override: the check keys off pace_* literals wherever
	// they appear, against the DESIGN.md of the literal's own module.
	linttest.Run(t, fixtureDir(t), []*lint.Analyzer{analyzers.MetricCatalog}, "./metriccatalog")
}

// TestMetricCatalogGlobal exercises the reverse direction: the fixture
// catalog lists pace_stale_total, which nothing registers, and
// pace_unread_total, whose "read by" cell is empty.
func TestMetricCatalogGlobal(t *testing.T) {
	pkgs, err := lint.LoadPackages(fixtureDir(t), "./metriccatalog")
	if err != nil {
		t.Fatal(err)
	}
	diags := analyzers.MetricCatalog.RunGlobal(pkgs)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	for i, want := range []string{"pace_stale_total", "pace_unread_total"} {
		d := diags[i]
		if !strings.Contains(d.Message, want) {
			t.Errorf("diagnostic %d: want one about %s, got %s", i, want, d.Message)
		}
		if filepath.Base(d.Pos.Filename) != "DESIGN.md" {
			t.Errorf("diagnostic should point into the catalog file, got %s", d.Pos.Filename)
		}
	}
	if !strings.Contains(diags[0].Message, "no code registers it") {
		t.Errorf("unexpected stale message: %s", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "names no reader") {
		t.Errorf("unexpected reader message: %s", diags[1].Message)
	}
}

// TestStaleAllow exercises the strict-mode exemption-ledger check: unused
// directives and directives naming unknown analyzers are findings.
func TestStaleAllow(t *testing.T) {
	old := analyzers.WalltimeScope
	analyzers.WalltimeScope = []string{"fixture/staleallow"}
	defer func() { analyzers.WalltimeScope = old }()

	pkgs, err := lint.LoadPackages(fixtureDir(t), "./staleallow")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	diags, err := lint.AnalyzePackageStrict(pkgs[0], []*lint.Analyzer{analyzers.Walltime})
	if err != nil {
		t.Fatal(err)
	}
	var stale, unknown, other int
	for _, d := range diags {
		switch {
		case d.Analyzer == "stale-allow" && strings.Contains(d.Message, "suppresses no findings"):
			stale++
		case d.Analyzer == "stale-allow" && strings.Contains(d.Message, `unknown analyzer "walltyme"`):
			unknown++
		default:
			other++
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if stale != 1 || unknown != 1 {
		t.Errorf("got %d stale + %d unknown diagnostics, want 1 + 1 (all: %v)", stale, unknown, diags)
	}

	// The same package under non-strict analysis is quiet: the used
	// directive suppresses its finding and the ledger is not audited.
	plain, err := lint.AnalyzePackage(pkgs[0], []*lint.Analyzer{analyzers.Walltime})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range plain {
		t.Errorf("unexpected non-strict diagnostic: %s", d)
	}
}

// TestSuiteOnRepo runs the full suite over the real tree exactly as the
// driver does — strict per-package analysis (stale-allow audit included)
// plus the whole-program RunGlobal passes. The contract the CI lint gate
// enforces: the repo itself lints clean.
func TestSuiteOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	diags := linttest.DiagnoseStrict(t, root, analyzers.All(), "./...")
	for _, d := range diags {
		t.Errorf("repo is not lint-clean: %s", d)
	}
}

// rosterRowRE matches a row of the DESIGN.md §10 roster table and captures
// the analyzer name in its first cell.
var rosterRowRE = regexp.MustCompile("^\\| `([a-z]+)` \\|")

// TestRosterMatchesDesign keeps the one analyzer roster, the table in
// DESIGN.md §10, in lockstep with All(), in both directions: an analyzer
// added without a row, or a row left behind by a deleted analyzer, fails.
func TestRosterMatchesDesign(t *testing.T) {
	doc, err := os.ReadFile("../../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 10. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 10")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	inDoc := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if m := rosterRowRE.FindStringSubmatch(line); m != nil {
			if inDoc[m[1]] {
				t.Errorf("DESIGN.md §10 lists %s twice", m[1])
			}
			inDoc[m[1]] = true
		}
	}
	inCode := map[string]bool{}
	for _, a := range analyzers.All() {
		inCode[a.Name] = true
		if !inDoc[a.Name] {
			t.Errorf("analyzer %s has no row in the DESIGN.md §10 roster", a.Name)
		}
	}
	for name := range inDoc {
		if !inCode[name] {
			t.Errorf("DESIGN.md §10 lists %s, which analyzers.All() does not return", name)
		}
	}
}
