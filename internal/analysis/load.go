package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -deps -export -json` in dir and decodes the
// package stream. -export makes the go command materialize compiler export
// data for every listed package in the build cache, which is what lets the
// loader type-check targets against their dependencies without compiling
// anything itself.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ExportMap returns ImportPath -> export-data file for the patterns and all
// their dependencies. The analysistest driver uses it to satisfy fixture
// imports of real (standard library) packages.
func ExportMap(dir string, patterns []string) (map[string]string, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			out[p.ImportPath] = p.Export
		}
	}
	return out, nil
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Load resolves the patterns in dir (a module root or below), parses each
// matched package from source and type-checks it against export data for
// its dependencies. Test files are not loaded: the invariants police the
// simulator and its services, not test scaffolding.
func Load(dir string, patterns []string) ([]*Package, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	var out []*Package
	for _, p := range pkgs {
		if p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("package %s: cgo packages are not supported", p.ImportPath)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		fset := token.NewFileSet()
		files, err := ParseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		imp := NewExportImporter(fset, p.ImportMap, exports)
		tpkg, info, err := TypeCheck(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("package %s: %w", p.ImportPath, err)
		}
		out = append(out, &Package{Path: p.ImportPath, Fset: fset, Files: files, Pkg: tpkg, Info: info})
	}
	return out, nil
}

// FormatDiagnostic renders a diagnostic the way vet does, with the
// analyzer name appended for attribution.
func FormatDiagnostic(fset *token.FileSet, d Diagnostic) string {
	p := fset.Position(d.Pos)
	name := strings.TrimPrefix(p.Filename, "./")
	return fmt.Sprintf("%s:%d:%d: %s [shelfvet/%s]", name, p.Line, p.Column, d.Message, d.Analyzer)
}
