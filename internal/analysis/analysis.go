// Package analysis is a minimal, dependency-free core for writing
// scheduler-aware static analyzers for this repository.
//
// It deliberately mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer holds a name, documentation, and a Run function over a
// Pass — but is built entirely on the standard library (go/ast,
// go/types, go/token) so the vet suite works in hermetic build
// environments with no module downloads. Packages are loaded by
// internal/analysis/load via `go list -export`, analyzers are composed
// into a driver by internal/analysis/multichecker, and analyzer test
// suites run fixtures through internal/analysis/analysistest.
//
// # Directives
//
// The analyzers in this tree enforce concurrency invariants the type
// system cannot see (non-blocking scheduling loops, suspension only in
// task context). Some code declares the role it plays, or the reason an
// invariant holds where the analyzer cannot see it, with a
// machine-readable directive comment:
//
//	//lhws:owner <justification>        mark a deque-owner region, which must not suspend
//	//lhws:nonblocking                  mark a function as a checked hot path
//	//lhws:nosuspend                    mark a function as a checked no-suspend region
//	//lhws:allowblock <justification>   permit one blocking operation
//	//lhws:parks <condition>            declare the worker's one sanctioned park
//	//lhws:allowsuspend <justification> permit one may-suspend call in a no-suspend region
//	//lhws:ctxok <justification>        permit one Ctx escape from its task
//
// Function-level directives live in the function's doc comment;
// statement-level directives go on the flagged line or the line
// directly above it. Directives that suppress a finding must carry a
// non-empty justification: an analyzer treats a bare suppression as a
// finding of its own, so every exception in the tree documents why it
// is safe.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. Run inspects a single package and
// reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test expectations.
	// It must be a valid Go identifier.
	Name string
	// Doc is the analyzer's documentation, shown by the driver's help.
	Doc string
	// Directives are the //lhws: directive names the analyzer reads. A
	// directive no registered analyzer reads is an error in the tree (see
	// cmd/lhws-vet's TestDirectivesKnown): matching is exact, so a
	// misspelled one would silently switch its check off.
	Directives []string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass is one application of an analyzer to one package: the parsed
// and type-checked inputs plus the Report sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Prog is the whole-program call graph (see program.go), shared by
	// every pass of a driver run. Analyzers that use interprocedural
	// summaries must tolerate a nil Prog by falling back to their
	// intraprocedural checks.
	Prog *Program

	// Report receives each diagnostic. The driver and the test harness
	// install their own sinks.
	Report func(Diagnostic)

	directives directiveIndex
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// A Directive is one parsed //lhws:<name> <args> comment.
type Directive struct {
	Name string // the word after "lhws:"
	Args string // rest of the line, trimmed; the justification
	Pos  token.Pos
}

// DirectivePrefix introduces machine-readable comments recognized by the
// analyzers. The comment form //lhws:name (no space after //) follows the
// Go convention for tool directives, which gofmt preserves verbatim.
const DirectivePrefix = "lhws:"

// ParseDirective parses a single comment's text, returning ok=false for
// ordinary comments.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	text, found := strings.CutPrefix(c.Text, "//"+DirectivePrefix)
	if !found {
		return Directive{}, false
	}
	name, args, _ := strings.Cut(text, " ")
	if name == "" {
		return Directive{}, false
	}
	// Allow a trailing comment after the justification (used by analyzer
	// test fixtures for // want markers).
	if i := strings.Index(args, "//"); i >= 0 {
		args = args[:i]
	}
	return Directive{Name: name, Args: strings.TrimSpace(args), Pos: c.Pos()}, true
}

// directiveIndex maps filename -> line -> parsed directives; shared by
// the per-package Pass and the whole-program Program.
type directiveIndex map[string]map[int][]Directive

func (idx directiveIndex) addFile(fset *token.FileSet, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := ParseDirective(c)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			byLine := idx[pos.Filename]
			if byLine == nil {
				byLine = make(map[int][]Directive)
				idx[pos.Filename] = byLine
			}
			byLine[pos.Line] = append(byLine[pos.Line], d)
		}
	}
}

// at returns the named directive attached to the statement at pos: on
// the same source line or on the line immediately above.
func (idx directiveIndex) at(fset *token.FileSet, pos token.Pos, name string) (Directive, bool) {
	position := fset.Position(pos)
	byLine := idx[position.Filename]
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, d := range byLine[line] {
			if d.Name == name {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// DirectiveAt returns the named directive attached to the statement at
// pos: on the same source line or on the line immediately above.
func (p *Pass) DirectiveAt(pos token.Pos, name string) (Directive, bool) {
	if p.directives == nil {
		p.directives = make(directiveIndex)
		for _, f := range p.Files {
			p.directives.addFile(p.Fset, f)
		}
	}
	return p.directives.at(p.Fset, pos, name)
}

// FuncDirective returns the named directive from a function's doc
// comment.
func FuncDirective(fn *ast.FuncDecl, name string) (Directive, bool) {
	if fn == nil || fn.Doc == nil {
		return Directive{}, false
	}
	for _, c := range fn.Doc.List {
		if d, ok := ParseDirective(c); ok && d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// Suppressed reports whether a finding of the given directive name at
// pos is suppressed, and reports a diagnostic of its own when the
// suppression carries no justification. Analyzers call this exactly at
// the point they would otherwise report.
func (p *Pass) Suppressed(pos token.Pos, name string) bool {
	d, ok := p.DirectiveAt(pos, name)
	if !ok {
		return false
	}
	if d.Args == "" {
		p.Reportf(d.Pos, "%s%s directive needs a justification", DirectivePrefix, name)
	}
	return true
}

// SortDiagnostics orders diagnostics by file position, then analyzer,
// for stable driver output.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// ReceiverNamed returns the named type of a method receiver expression
// type (unwrapping pointers and aliases), or nil.
func ReceiverNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// Callee resolves the static callee of a call expression, or nil for
// calls of function values, type conversions, and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}
