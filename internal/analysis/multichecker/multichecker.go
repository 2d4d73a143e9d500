// Package multichecker composes analyzers into a vet-style command.
//
// It is the stdlib-only counterpart of
// golang.org/x/tools/go/analysis/multichecker: the driver loads the
// packages named on the command line (plus their non-standard
// dependencies, from source), builds the whole-program call graph
// (analysis.BuildProgram) every pass shares for interprocedural
// summaries, applies every analyzer to every target package, prints
// diagnostics in file:line:col order, and exits non-zero when anything
// was flagged — which is what lets CI gate on the suite.
//
// Flags:
//
//	-json        emit diagnostics as a JSON array of
//	             {file,line,col,analyzer,message} objects
//	-facts       after the diagnostics, emit the computed function
//	             summaries (the fact-export format) as JSON
package multichecker

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"lhws/internal/analysis"
	"lhws/internal/analysis/load"
)

// Main runs the analyzers over the packages named by os.Args and exits
// with 0 (clean), 1 (diagnostics reported), or 2 (usage or load error).
func Main(analyzers ...*analysis.Analyzer) {
	os.Exit(Run(os.Stdout, os.Args[1:], analyzers))
}

// jsonDiag is the machine-readable diagnostic record of -json mode.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Run is Main with injectable output and arguments, for testing.
func Run(w io.Writer, args []string, analyzers []*analysis.Analyzer) int {
	fs := flag.NewFlagSet("lhws-vet", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	factsOut := fs.Bool("facts", false, "emit computed function summaries as JSON")
	if err := fs.Parse(args); err != nil {
		printUsage(w, analyzers)
		if errors.Is(err, flag.ErrHelp) {
			return 2
		}
		fmt.Fprintf(os.Stderr, "lhws-vet: %v\n", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(load.Config{}, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	progPkgs := make([]*analysis.ProgramPackage, len(pkgs))
	for i, pkg := range pkgs {
		progPkgs[i] = &analysis.ProgramPackage{Pkg: pkg.Types, Files: pkg.Syntax, Info: pkg.TypesInfo}
	}
	prog := analysis.BuildProgram(pkgs[0].Fset, progPkgs)

	total := 0
	var jsonDiags []jsonDiag
	for _, pkg := range pkgs {
		if pkg.DepOnly {
			continue
		}
		var diags []analysis.Diagnostic
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Prog:      prog,
			}
			pass.Report = func(d analysis.Diagnostic) { diags = append(diags, d) }
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "%s: analyzer %s: %v\n", pkg.PkgPath, a.Name, err)
				return 2
			}
		}
		analysis.SortDiagnostics(pkg.Fset, diags)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if *jsonOut {
				jsonDiags = append(jsonDiags, jsonDiag{
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Analyzer: d.Analyzer, Message: d.Message,
				})
			} else {
				fmt.Fprintf(w, "%s: %s (%s)\n", pos, d.Message, d.Analyzer)
			}
		}
		total += len(diags)
	}
	if *jsonOut {
		if jsonDiags == nil {
			jsonDiags = []jsonDiag{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "\t")
		if err := enc.Encode(jsonDiags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if *factsOut {
		recs := prog.FactRecords()
		if recs == nil {
			recs = []analysis.FactRecord{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "\t")
		if err := enc.Encode(recs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if total > 0 {
		return 1
	}
	return 0
}

func printUsage(w io.Writer, analyzers []*analysis.Analyzer) {
	fmt.Fprintf(w, "usage: lhws-vet [-json] [-facts] [packages]\n\nRegistered analyzers:\n\n")
	for _, a := range analyzers {
		fmt.Fprintf(w, "  %s: %s\n", a.Name, a.Doc)
	}
}
