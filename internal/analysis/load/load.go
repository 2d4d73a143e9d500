// Package load turns package patterns into parsed, type-checked
// packages for the analyzers, using only the standard library and the
// go command.
//
// The conventional loader for analysis tools is
// golang.org/x/tools/go/packages; this repository must also build in
// hermetic environments where module downloads are impossible, so load
// reimplements the narrow slice the analyzers need: it shells out to
// `go list -export -json -deps`, which compiles every dependency and
// reports the path of each package's export data, then type-checks
// from source.
//
// Unlike the usual export-data division of labour, load type-checks
// every non-standard dependency from source as well (in dependency
// order, so type identities are shared), not just the packages named by
// the patterns. The interprocedural summary engine
// (analysis.BuildProgram) needs dependency function *bodies* to
// propagate facts such as may-suspend across package boundaries;
// export data carries types but no bodies. Standard-library packages
// are still consumed as export data — their facts come from the
// analyzers' seed tables. Dependencies loaded this way are marked
// DepOnly; drivers analyze only the target packages but feed everything
// to the call graph.
package load

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
	goruntime "runtime"
	"strings"
)

// A Package is one type-checked package.
type Package struct {
	PkgPath   string
	Name      string
	Dir       string
	GoFiles   []string // absolute paths of the parsed files
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// DepOnly marks a package loaded only because a target imports it:
	// it contributes bodies to the call graph but is not analyzed.
	DepOnly bool
}

// Config parameterizes a load.
type Config struct {
	// Dir is the working directory for the go command ("" = cwd).
	Dir string
	// Env, when non-nil, replaces the go command's environment. The
	// analysistest harness uses this to load GOPATH-mode fixtures.
	Env []string
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Imports    []string
	ImportMap  map[string]string
	Incomplete bool
	Error      *struct{ Err string }
}

// loader carries the state of one Load call.
type loader struct {
	fset     *token.FileSet
	byPath   map[string]*listPackage
	checked  map[string]*Package // source-checked, by import path
	checking map[string]bool     // cycle guard
	fallback types.Importer      // export-data importer for std packages
}

// Load lists, parses, and type-checks the packages matching patterns
// and every non-standard dependency (returned with DepOnly set), in
// dependency order.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	listed, err := goList(cfg, patterns)
	if err != nil {
		return nil, err
	}

	// Export data for every dependency, keyed by resolved import path.
	exports := make(map[string]string, len(listed))
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}

	fset := token.NewFileSet()
	ld := &loader{
		fset:     fset,
		byPath:   make(map[string]*listPackage, len(listed)),
		checked:  make(map[string]*Package),
		checking: make(map[string]bool),
	}
	for _, lp := range listed {
		ld.byPath[lp.ImportPath] = lp
	}
	ld.fallback = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	})

	var pkgs []*Package
	targets := 0
	for _, lp := range listed {
		if lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("load: package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := ld.ensure(lp)
		if err != nil {
			return nil, err
		}
		pkg.DepOnly = lp.DepOnly
		if !lp.DepOnly {
			targets++
		}
		pkgs = append(pkgs, pkg)
	}
	if targets == 0 {
		return nil, fmt.Errorf("load: no packages matched %v", patterns)
	}
	return pkgs, nil
}

func goList(cfg Config, patterns []string) ([]*listPackage, error) {
	args := []string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,Standard,DepOnly,Imports,ImportMap,Incomplete,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	cmd.Env = cfg.Env
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("load: starting go list: %v", err)
	}
	var listed []*listPackage
	dec := json.NewDecoder(out)
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			_ = cmd.Wait()
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	return listed, nil
}

// ensure type-checks lp from source, memoized, checking its
// non-standard dependencies first so every package in the load shares
// one set of type identities.
func (ld *loader) ensure(lp *listPackage) (*Package, error) {
	if pkg, ok := ld.checked[lp.ImportPath]; ok {
		return pkg, nil
	}
	if ld.checking[lp.ImportPath] {
		return nil, fmt.Errorf("load: import cycle through %s", lp.ImportPath)
	}
	ld.checking[lp.ImportPath] = true
	defer delete(ld.checking, lp.ImportPath)
	pkg, err := ld.typecheck(lp)
	if err != nil {
		return nil, err
	}
	ld.checked[lp.ImportPath] = pkg
	return pkg, nil
}

// srcImporter resolves an importing package's imports: through its
// ImportMap (vendoring, test shadowing), then preferring source-checked
// packages, then falling back to compiled export data (std).
type srcImporter struct {
	ld *loader
	lp *listPackage
}

func (im srcImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := im.lp.ImportMap[path]; ok {
		path = mapped
	}
	if dep := im.ld.byPath[path]; dep != nil && !dep.Standard {
		if dep.Error != nil {
			return nil, fmt.Errorf("package %s: %s", dep.ImportPath, dep.Error.Err)
		}
		pkg, err := im.ld.ensure(dep)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return im.ld.fallback.Import(path)
}

// typecheck parses a package's files and type-checks them.
func (ld *loader) typecheck(lp *listPackage) (*Package, error) {
	pkg := &Package{
		PkgPath: lp.ImportPath,
		Name:    lp.Name,
		Dir:     lp.Dir,
		Fset:    ld.fset,
	}
	for _, f := range lp.GoFiles {
		path := f
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, f)
		}
		syntax, err := parser.ParseFile(ld.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %v", err)
		}
		pkg.GoFiles = append(pkg.GoFiles, path)
		pkg.Syntax = append(pkg.Syntax, syntax)
	}

	conf := types.Config{
		Importer: srcImporter{ld: ld, lp: lp},
		Sizes:    types.SizesFor("gc", goruntime.GOARCH),
	}
	pkg.TypesInfo = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, err := conf.Check(lp.ImportPath, ld.fset, pkg.Syntax, pkg.TypesInfo)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", lp.ImportPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}
