// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against `// want "regexp"` comments, mirroring the
// golden-test workflow of golang.org/x/tools/go/analysis/analysistest on
// the standard library only.
//
// Fixtures live in a GOPATH-style tree: testdata/src/<importpath>/*.go.
// Imports among fixtures resolve inside the tree; any other import (fmt,
// time, ...) resolves to the real package via `go list -export`. A want
// comment expects one diagnostic on its line whose message matches the
// quoted regular expression; multiple expectations may share one comment:
//
//	x := now()  // want `wall-clock` `second finding`
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"shelfsim/internal/analysis"
)

// Run analyzes each fixture package under testdata/src and reports any
// mismatch between produced diagnostics and // want expectations as test
// errors.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	l := newLoader(t, testdata)
	for _, path := range pkgpaths {
		fix := l.load(path)
		diags, err := analysis.RunAnalyzers([]*analysis.Analyzer{a}, l.fset, fix.files, fix.pkg, fix.info)
		if err != nil {
			t.Errorf("%s: running %s: %v", path, a.Name, err)
			continue
		}
		checkWants(t, l.fset, fix.files, diags)
	}
}

// fixture is one loaded fixture package.
type fixture struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader resolves fixture packages against the testdata tree, falling back
// to real export data for everything else.
type loader struct {
	t        *testing.T
	src      string
	fset     *token.FileSet
	fixtures map[string]*fixture
	exports  map[string]string
	gc       types.Importer
}

func newLoader(t *testing.T, testdata string) *loader {
	t.Helper()
	l := &loader{
		t:        t,
		src:      filepath.Join(testdata, "src"),
		fset:     token.NewFileSet(),
		fixtures: map[string]*fixture{},
	}
	// One `go list -export` run resolves every external import any fixture
	// in the tree makes, plus dependencies.
	ext := l.externalImports()
	l.exports = map[string]string{}
	if len(ext) > 0 {
		m, err := analysis.ExportMap(".", ext)
		if err != nil {
			t.Fatalf("resolving fixture imports %v: %v", ext, err)
		}
		l.exports = m
	}
	l.gc = analysis.NewExportImporter(l.fset, nil, l.exports)
	return l
}

// externalImports scans every fixture file in the tree for imports that do
// not resolve to a fixture directory.
func (l *loader) externalImports() []string {
	seen := map[string]bool{}
	err := filepath.Walk(l.src, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parseImportsOnly(l.fset, path)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if dir := filepath.Join(l.src, p); !isDir(dir) {
				seen[p] = true
			}
		}
		return nil
	})
	if err != nil {
		l.t.Fatalf("scanning fixtures: %v", err)
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// parseImportsOnly parses just enough of a file to read its import block.
func parseImportsOnly(fset *token.FileSet, path string) (*ast.File, error) {
	return parser.ParseFile(fset, path, nil, parser.ImportsOnly)
}

// load parses and type-checks one fixture package (memoized).
func (l *loader) load(path string) *fixture {
	l.t.Helper()
	if f, ok := l.fixtures[path]; ok {
		return f
	}
	dir := filepath.Join(l.src, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatalf("fixture %s: %v", path, err)
	}
	var names []string
	for _, e := range entries {
		// Test files are skipped, as analysis.Load skips them.
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	if len(names) == 0 {
		l.t.Fatalf("fixture %s: no go files in %s", path, dir)
	}
	files, err := analysis.ParseFiles(l.fset, "", names)
	if err != nil {
		l.t.Fatalf("fixture %s: %v", path, err)
	}
	pkg, info, err := analysis.TypeCheck(l.fset, path, files, l)
	if err != nil {
		l.t.Fatalf("fixture %s: type-checking: %v", path, err)
	}
	f := &fixture{files: files, pkg: pkg, info: info}
	l.fixtures[path] = f
	return f
}

// Import implements types.Importer over the fixture tree with real-package
// fallback.
func (l *loader) Import(path string) (*types.Package, error) {
	if isDir(filepath.Join(l.src, path)) {
		return l.load(path).pkg, nil
	}
	return l.gc.Import(path)
}

// wantRe matches one quoted expectation: a double-quoted Go string or a
// backquoted raw string.
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// expectation is one // want entry, keyed to a file line.
type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// checkWants compares diagnostics against the fixture's want comments.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[string][]*expectation{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				rest := c.Text[idx+len("// want "):]
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
					text := m[1]
					if m[2] != "" || text == "" {
						text = m[2]
					}
					re, err := regexp.Compile(text)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", key, text, err)
						continue
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, w.re)
			}
		}
	}
}
