package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"testing"

	"lhws/internal/analysis"
)

// unknownDirectives returns the position and name of every //lhws:
// directive in f that no registered analyzer reads.
func unknownDirectives(fset *token.FileSet, f *ast.File, known map[string]bool) []string {
	var bad []string
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := analysis.ParseDirective(c); ok && !known[d.Name] {
				bad = append(bad, fset.Position(c.Pos()).String()+": //lhws:"+d.Name)
			}
		}
	}
	return bad
}

// TestDirectivesKnown checks that every //lhws: directive in the
// module's Go files (tests included, analyzer fixtures under testdata
// excluded) names a directive some registered analyzer reads. Directive
// names match exactly, so a misspelled //lhws:nonblockng would silently
// switch noblock off for its function, and a directive left behind by a
// deleted analyzer would document a check that no longer runs.
func TestDirectivesKnown(t *testing.T) {
	known := map[string]bool{}
	for _, a := range analyzers {
		for _, d := range a.Directives {
			known[d] = true
		}
	}
	fset := token.NewFileSet()
	misspelled, err := parser.ParseFile(fset, "misspelled.go",
		"package p\n\n//lhws:nonblockng\nfunc f() {}\n", parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if bad := unknownDirectives(fset, misspelled, known); len(bad) != 1 {
		t.Fatalf("misspelled directive reported as %q, want one finding", bad)
	}
	files := 0
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && name != ".." && name[0] == '.') {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, b := range unknownDirectives(fset, f, known) {
			t.Errorf("%s names no registered analyzer's directive", b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked %d Go files; the walk did not reach the module", files)
	}
}
