package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath      string
	Name            string
	Dir             string
	Export          string
	DepOnly         bool
	GoFiles         []string
	CompiledGoFiles []string
	Error           *struct{ Err string }
}

// LoadPackages loads the packages matching patterns in dir, type-checked
// against compiler export data. It shells out to `go list -export -deps
// -json`, which compiles (into the build cache) the export data of every
// dependency — the same trick go/packages uses, done here with nothing but
// the standard library.
//
// Only non-test sources are loaded: every contract pacelint enforces binds
// production code.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %w\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && p.Name != "" {
			pp := p
			targets = append(targets, &pp)
		}
	}

	var pkgs []*Package
	for _, t := range targets {
		pkg, err := typecheck(t, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// exportLookup resolves import paths to export-data readers for the gc
// importer.
func exportLookup(exports map[string]string) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}
}

func typecheck(p *listPkg, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	srcs := p.CompiledGoFiles
	if len(srcs) == 0 {
		srcs = p.GoFiles
	}
	var files []*ast.File
	for _, name := range srcs {
		if filepath.Ext(name) != ".go" {
			continue // cgo-generated artifacts; none in this repo
		}
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", path, err)
		}
		files = append(files, f)
	}
	// The analyzers read types, definitions and uses; nothing else.
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", exportLookup(exports)),
	}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", p.ImportPath, err)
	}
	return &Package{PkgPath: p.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
