package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSrc parses one file and returns its fset + files for the
// directive parser.
func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, []*ast.File{f}
}

func TestDirectiveBare(t *testing.T) {
	fset, files := parseSrc(t, "package p\n\nvar x int //shelfvet:ignore\n")
	ds := ParseDirectives(fset, files)
	if len(ds) != 1 {
		t.Fatalf("directives = %d, want 1", len(ds))
	}
	if !ds[0].Names[""] {
		t.Fatal("bare directive must suppress all analyzers")
	}
	if !ds[0].suppresses("d.go", 3, "anything") {
		t.Fatal("bare directive must cover its own line for any analyzer")
	}
}

func TestDirectiveCommaList(t *testing.T) {
	fset, files := parseSrc(t, "package p\n\nvar x int //shelfvet:ignore noglobals, walltime\n")
	ds := ParseDirectives(fset, files)
	if len(ds) != 1 {
		t.Fatalf("directives = %d, want 1", len(ds))
	}
	d := ds[0]
	if !d.Names["noglobals"] || !d.Names["walltime"] {
		t.Fatalf("comma list parsed as %v", d.Names)
	}
	if d.Names[""] {
		t.Fatal("named directive must not be a suppress-all")
	}
	if d.suppresses("d.go", 3, "hotalloc") {
		t.Fatal("directive must not suppress analyzers it does not name")
	}
}

func TestDirectiveEmDashJustification(t *testing.T) {
	fset, files := parseSrc(t, "package p\n\nvar x int //shelfvet:ignore hotalloc — audited growth path, resized once\n")
	ds := ParseDirectives(fset, files)
	if len(ds) != 1 {
		t.Fatalf("directives = %d, want 1", len(ds))
	}
	d := ds[0]
	if !d.Names["hotalloc"] || len(d.Names) != 1 {
		t.Fatalf("em-dash justification leaked into names: %v", d.Names)
	}
}

func TestDirectiveTrailingCommentStopsNames(t *testing.T) {
	// A `// want` comment (the analysistest convention) after the
	// directive must not be read as analyzer names.
	fset, files := parseSrc(t, "package p\n\nvar x int //shelfvet:ignore maprange // want \"unused\"\n")
	ds := ParseDirectives(fset, files)
	if len(ds) != 1 {
		t.Fatalf("directives = %d, want 1", len(ds))
	}
	d := ds[0]
	if !d.Names["maprange"] || len(d.Names) != 1 {
		t.Fatalf("trailing comment leaked into names: %v", d.Names)
	}
}

func TestDirectiveLineAboveVsTrailing(t *testing.T) {
	src := `package p

//shelfvet:ignore walltime
var above int

var trailing int //shelfvet:ignore walltime
`
	fset, files := parseSrc(t, src)
	ds := ParseDirectives(fset, files)
	if len(ds) != 2 {
		t.Fatalf("directives = %d, want 2", len(ds))
	}
	// Line-above form: directive on line 3 covers line 4.
	if !ds[0].suppresses("d.go", 4, "walltime") {
		t.Fatal("line-above directive must cover the next line")
	}
	if ds[0].suppresses("d.go", 5, "walltime") {
		t.Fatal("directive must not cover two lines down")
	}
	// Trailing form: directive on line 6 covers line 6.
	if !ds[1].suppresses("d.go", 6, "walltime") {
		t.Fatal("trailing directive must cover its own line")
	}
}

func TestMultipleDirectivesOneLine(t *testing.T) {
	// Two ignores for different analyzers stacked above one site: both
	// parse, both cover the site.
	src := `package p

//shelfvet:ignore noglobals
//shelfvet:ignore walltime
var x int
`
	fset, files := parseSrc(t, src)
	ds := ParseDirectives(fset, files)
	if len(ds) != 2 {
		t.Fatalf("directives = %d, want 2", len(ds))
	}
	// The second directive (line 4) covers the declaration (line 5); the
	// first covers lines 3-4 only.
	if !ds[1].suppresses("d.go", 5, "walltime") {
		t.Fatal("second stacked directive must cover the declaration")
	}
	if ds[0].suppresses("d.go", 5, "noglobals") {
		t.Fatal("first stacked directive covers its own and the next line only")
	}
}

// runWithDirectives type-checks src and runs the given analyzer through
// RunAnalyzers, so suppression and unused-directive auditing are
// exercised end to end.
func runWithDirectives(t *testing.T, src string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	fset, files := parseSrc(t, src)
	pkg, info, err := TypeCheck(fset, "p", files, nil)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	diags, err := RunAnalyzers(analyzers, fset, files, pkg, info)
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	return diags
}

// always is a test analyzer that flags every package-level variable.
var always = &Analyzer{
	Name: "always",
	Doc:  "flags every package-level var, for directive tests",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					pass.Reportf(spec.Pos(), "package-level var")
				}
			}
		}
		return nil
	},
}

func TestUsedDirectiveSuppressesAndStaysQuiet(t *testing.T) {
	diags := runWithDirectives(t, "package p\n\nvar x int //shelfvet:ignore always — audited\n", []*Analyzer{always})
	if len(diags) != 0 {
		t.Fatalf("used directive: want no diagnostics, got %v", diags)
	}
}

func TestUnusedDirectiveIsReported(t *testing.T) {
	diags := runWithDirectives(t, "package p\n\nfunc f() {} //shelfvet:ignore always — stale\n", []*Analyzer{always})
	if len(diags) != 1 {
		t.Fatalf("unused directive: want 1 diagnostic, got %v", diags)
	}
	if diags[0].Analyzer != UnusedIgnoreName {
		t.Fatalf("diagnostic attributed to %q, want %q", diags[0].Analyzer, UnusedIgnoreName)
	}
	if !strings.Contains(diags[0].Message, "unused //shelfvet:ignore") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

func TestUnusedDirectiveForAbsentAnalyzerNotReported(t *testing.T) {
	// A directive naming an analyzer that is not running cannot be
	// judged unused (fixture trees exercise one analyzer at a time).
	diags := runWithDirectives(t, "package p\n\nfunc f() {} //shelfvet:ignore someother\n", []*Analyzer{always})
	if len(diags) != 0 {
		t.Fatalf("directive for absent analyzer must not be audited, got %v", diags)
	}
}

func TestUnusedBareDirectiveIsReported(t *testing.T) {
	diags := runWithDirectives(t, "package p\n\nfunc f() {} //shelfvet:ignore\n", []*Analyzer{always})
	if len(diags) != 1 || diags[0].Analyzer != UnusedIgnoreName {
		t.Fatalf("unused bare directive must be reported, got %v", diags)
	}
}

func TestDirectiveCoversNextLineAndCountsUsed(t *testing.T) {
	src := `package p

//shelfvet:ignore always — next-line form
var x int
`
	diags := runWithDirectives(t, src, []*Analyzer{always})
	if len(diags) != 0 {
		t.Fatalf("line-above suppression failed or audited as unused: %v", diags)
	}
}
