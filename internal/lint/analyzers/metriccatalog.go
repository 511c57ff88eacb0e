package analyzers

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"

	"pace/internal/lint"
)

// MetricCatalog keeps the telemetry surface and its documentation in
// lockstep: every `pace_*` metric name registered in code must appear (as
// a full name — wildcard families like `pace_wild_*` don't count) in
// the DESIGN.md metric catalog, and — in full runs, which see the whole
// program — every full name the catalog lists must be registered by some
// package, and every catalog row must name its reader (a test or a CI step)
// in its "read by" cell: a family nobody reads is deleted, not catalogued.
// The catalog file is the DESIGN.md next to the module's go.mod, so fixture
// modules bring their own.
var MetricCatalog = &lint.Analyzer{
	Name:      "metriccatalog",
	Doc:       "every pace_* metric registered in code is listed in the DESIGN.md catalog with a reader, and vice versa",
	Run:       runMetricCatalog,
	RunGlobal: runMetricCatalogGlobal,
}

var metricNameRE = regexp.MustCompile(`^pace_[a-z0-9_]+$`)

// catalogTokenRE extracts candidate names from DESIGN.md. Tokens ending
// in "_" are prefixes from wildcard or brace notation (`pace_wild_*`,
// `pace_x_{a,b}_total`) — not full names — and are dropped.
var catalogTokenRE = regexp.MustCompile(`pace_[a-z0-9_]+`)

func runMetricCatalog(pass *lint.Pass) error {
	type site struct {
		name string
		pos  token.Pos
	}
	var sites []site
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if name, ok := stringLit(asExpr(n)); ok && metricNameRE.MatchString(name) {
				sites = append(sites, site{name: name, pos: n.Pos()})
			}
			return true
		})
	}
	if len(sites) == 0 {
		return nil
	}
	dir := filepath.Dir(pass.Fset.Position(sites[0].pos).Filename)
	catalog, path, err := loadCatalog(dir)
	if err != nil {
		pass.Reportf(sites[0].pos, "cannot load the metric catalog: %v", err)
		return nil
	}
	for _, s := range sites {
		if !catalog[s.name] {
			pass.Reportf(s.pos,
				"metric %s is not in the catalog (%s §13); document it there (full name, not a wildcard)", s.name, filepath.Base(path))
		}
	}
	return nil
}

// runMetricCatalogGlobal is the reverse direction, possible only with the
// whole program in view: catalog names nothing registers are stale docs.
func runMetricCatalogGlobal(pkgs []*lint.Package) []lint.Diagnostic {
	registered := map[string]bool{}
	var anyFile string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if anyFile == "" {
				anyFile = pkg.Fset.Position(f.Pos()).Filename
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if s, ok := stringLit(asExpr(n)); ok && metricNameRE.MatchString(s) {
					registered[s] = true
				}
				return true
			})
		}
	}
	if anyFile == "" {
		return nil
	}
	_, path, err := loadCatalog(filepath.Dir(anyFile))
	if err != nil {
		return nil // per-package direction already reported this
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var out []lint.Diagnostic
	readBy := -1 // the "read by" column of the table being scanned
	for i, line := range strings.Split(string(data), "\n") {
		cells := strings.Split(line, "|")
		for j := range cells {
			cells[j] = strings.TrimSpace(cells[j])
		}
		switch {
		case !strings.HasPrefix(line, "|"):
			readBy = -1
		case slices.Contains(cells, "read by"):
			readBy = slices.Index(cells, "read by")
		case metricNameRE.MatchString(strings.Trim(cells[1], "`")) &&
			(readBy < 0 || readBy >= len(cells) || cells[readBy] == ""):
			out = append(out, lint.Diagnostic{
				Pos:      token.Position{Filename: path, Line: i + 1, Column: 1},
				Analyzer: "metriccatalog",
				Message:  "catalog row " + cells[1] + " names no reader; name the test or CI step that reads it in its \"read by\" cell, or delete the family",
			})
		}
		for _, tok := range catalogTokenRE.FindAllString(line, -1) {
			if strings.HasSuffix(tok, "_") || registered[tok] || seriesSuffixOf(tok, registered) {
				continue
			}
			out = append(out, lint.Diagnostic{
				Pos:      token.Position{Filename: path, Line: i + 1, Column: strings.Index(line, tok) + 1},
				Analyzer: "metriccatalog",
				Message:  "catalog lists " + tok + " but no code registers it; delete the row or register the metric",
			})
		}
	}
	return out
}

// seriesSuffixOf accepts derived series names the exporter synthesizes
// from a registered family: histogram _bucket/_sum/_count/_max.
func seriesSuffixOf(tok string, registered map[string]bool) bool {
	for _, suf := range []string{"_bucket", "_sum", "_count", "_max"} {
		if base, ok := strings.CutSuffix(tok, suf); ok && registered[base] {
			return true
		}
	}
	return false
}

var catalogCache sync.Map // dir -> catalogEntry

type catalogEntry struct {
	names map[string]bool
	path  string
	err   error
}

// loadCatalog walks up from dir to the nearest go.mod and parses the
// DESIGN.md beside it into a set of full metric names.
func loadCatalog(dir string) (map[string]bool, string, error) {
	if v, ok := catalogCache.Load(dir); ok {
		e := v.(catalogEntry)
		return e.names, e.path, e.err
	}
	e := loadCatalogUncached(dir)
	catalogCache.Store(dir, e)
	return e.names, e.path, e.err
}

func loadCatalogUncached(start string) catalogEntry {
	dir := start
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return catalogEntry{err: os.ErrNotExist}
		}
		dir = parent
	}
	path := filepath.Join(dir, "DESIGN.md")
	data, err := os.ReadFile(path)
	if err != nil {
		return catalogEntry{path: path, err: err}
	}
	names := map[string]bool{}
	for _, tok := range catalogTokenRE.FindAllString(string(data), -1) {
		if !strings.HasSuffix(tok, "_") {
			names[tok] = true
		}
	}
	return catalogEntry{names: names, path: path}
}

func asExpr(n ast.Node) ast.Expr {
	if e, ok := n.(ast.Expr); ok {
		return e
	}
	return nil
}
