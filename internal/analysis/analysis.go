// Package analysis is a self-contained static-analysis framework for the
// simulator: a minimal analogue of golang.org/x/tools/go/analysis built on
// the standard library only (go/ast + go/types + the go command), so the
// repo's invariant checkers need no external module. It provides
//
//   - the Analyzer/Pass/Diagnostic vocabulary (this file),
//   - a package loader driven by `go list -export` (load.go),
//   - the one driver, Main, that vets package patterns (driver.go), and
//   - a golden-test driver with `// want` comments (analysistest/).
//
// The concrete checkers that enforce the simulator's invariants live in
// internal/analysis/checkers and are wired into one multichecker binary,
// cmd/shelfvet.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"
)

// Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //shelfvet:ignore directives. It must be a valid identifier.
	Name string
	// Doc is a one-paragraph description: first line is a summary.
	Doc string
	// Run executes the check, reporting findings through pass.Reportf.
	// A returned error aborts the whole run (it means the analyzer
	// itself failed, not that the code is in violation).
	Run func(pass *Pass) error
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// RunAnalyzers executes each analyzer over one type-checked package and
// returns the surviving diagnostics sorted by position, with
// //shelfvet:ignore suppressions already applied.
//
// Directives are audited as they suppress: one that suppresses nothing
// from any running analyzer it names (or from any analyzer at all, for
// bare directives) produces an "unusedignore" diagnostic at the
// directive itself, so stale ignores fail the gate instead of silently
// masking the next regression.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	directives := ParseDirectives(fset, files)
	running := map[string]bool{}
	var all []Diagnostic
	for _, a := range analyzers {
		running[a.Name] = true
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		for _, d := range pass.diags {
			p := fset.Position(d.Pos)
			suppressed := false
			for _, dir := range directives {
				if dir.suppresses(p.Filename, p.Line, d.Analyzer) {
					dir.used = true
					suppressed = true
				}
			}
			if suppressed {
				continue
			}
			all = append(all, d)
		}
	}
	for _, dir := range directives {
		if dir.applicable(running) && !dir.used {
			all = append(all, Diagnostic{
				Pos:      dir.Pos,
				Analyzer: UnusedIgnoreName,
				Message: fmt.Sprintf(
					"unused //shelfvet:ignore directive: it suppresses no diagnostic from %s — stale ignores mask regressions, delete it",
					dir.nameList()),
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		pi, pj := fset.Position(all[i].Pos), fset.Position(all[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all, nil
}

// newInfo allocates a types.Info with every map the checkers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// ParseFiles parses the given files (absolute or dir-relative paths) with
// comments retained, since //shelfvet:ignore directives live in comments.
func ParseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if dir != "" && !strings.HasPrefix(name, "/") {
			path = dir + "/" + name
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// exportImporter resolves imports from compiler export data: importMap
// rewrites source-level paths (vendoring) and packageFile locates each
// canonical path's export file, the shape `go list -export` hands us.
type exportImporter struct {
	gc          types.Importer
	importMap   map[string]string
	packageFile map[string]string
}

// NewExportImporter builds an importer over importMap/packageFile tables.
func NewExportImporter(fset *token.FileSet, importMap, packageFile map[string]string) *exportImporter {
	e := &exportImporter{importMap: importMap, packageFile: packageFile}
	e.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := e.packageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return e
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := e.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.gc.Import(path)
}

// TypeCheck type-checks one package's parsed files.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := newInfo()
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(path, fset, files, info)
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}
