package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// Main is the multichecker entry point behind cmd/shelfvet:
//
//	shelfvet [-json] <package patterns>
//
// It loads the patterns through `go list -export`, runs every analyzer
// over each package and prints the diagnostics to stderr; with -json it
// prints one report to stdout instead, listing the packages it vetted and
// every diagnostic. It returns the process exit code: 0 clean, 1 tool
// failure, 2 diagnostics.
func Main(analyzers []*Analyzer, args []string) int {
	fs := flag.NewFlagSet("shelfvet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "print the report as JSON on stdout")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: shelfvet [-json] <package patterns>")
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 1
	}
	pkgs, err := Load(".", fs.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "shelfvet: %v\n", err)
		return 1
	}
	type jsonDiagnostic struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	report := struct {
		Count       int              `json:"count"`
		Packages    []string         `json:"packages"`
		Diagnostics []jsonDiagnostic `json:"diagnostics"`
	}{Packages: []string{}, Diagnostics: []jsonDiagnostic{}}
	for _, p := range pkgs {
		report.Packages = append(report.Packages, p.Path)
		diags, err := RunAnalyzers(analyzers, p.Fset, p.Files, p.Pkg, p.Info)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shelfvet: %v\n", err)
			return 1
		}
		for _, d := range diags {
			if !*jsonOut {
				fmt.Fprintln(os.Stderr, FormatDiagnostic(p.Fset, d))
			}
			pos := p.Fset.Position(d.Pos)
			report.Diagnostics = append(report.Diagnostics, jsonDiagnostic{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}
	report.Count = len(report.Diagnostics)
	if *jsonOut {
		out, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "shelfvet: %v\n", err)
			return 1
		}
		fmt.Println(string(out))
	}
	if report.Count > 0 {
		return 2
	}
	return 0
}
