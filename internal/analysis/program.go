// Interprocedural layer: a whole-program call graph with per-function
// fact summaries.
//
// The per-package Pass model is enough for syntactic invariants (a
// deque operation outside an //lhws:owner region is wrong wherever it
// appears), but the scheduler's most dangerous bugs are properties of
// call *chains*: a function three packages away from Await is still a
// may-suspend function, and calling it from a nonblocking worker loop
// or while holding a mutex is exactly as wrong as calling Await
// directly. A Program makes those chains visible: the driver builds one
// call graph over every loaded package (dependencies included), and
// analyzers derive FactSets — transitive function summaries such as
// "may suspend the calling task" — that propagate leaf facts up the
// graph with a witness chain for each derived fact, so a diagnostic can
// say not just *that* a call misbehaves but *through which calls*.
//
// Facts are deliberately boolean per function and flow only from callee
// to caller, which keeps propagation a linear-time worklist pass and
// the results easy to export (see FactRecords). Analyzers compose by
// sharing fact definitions: Program.Facts memoizes per definition name,
// so a summary several analyzers consult is computed once.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A ProgramPackage is one loaded, type-checked package contributing
// source to the Program's call graph.
type ProgramPackage struct {
	Pkg   *types.Package
	Files []*ast.File
	Info  *types.Info
}

// A FuncNode is one function body in the program: a declared function
// or method, or a function literal.
type FuncNode struct {
	// Obj is the declared function's object (its generic origin, for
	// methods of generic types); nil for function literals.
	Obj *types.Func
	// Decl is the declaration; nil for function literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Parent is the enclosing function node; non-nil only for literals.
	Parent *FuncNode
	// Pkg is the package the body was parsed from.
	Pkg *ProgramPackage
	// Calls are the call sites in the body, in source order. Calls
	// inside nested literals belong to the literal's own node; calls
	// spawned by a go statement are excluded (the spawned body runs on
	// another goroutine, so its facts do not apply to this function).
	Calls []CallSite
}

// Name returns a human-readable label for the node.
func (n *FuncNode) Name() string {
	if n.Obj != nil {
		return FuncLabel(n.Obj)
	}
	return "function literal"
}

// A CallSite is one call expression inside a FuncNode.
type CallSite struct {
	Call *ast.CallExpr
	Pos  token.Pos
	// Callee is the static callee's origin, or nil for calls of
	// function values, conversions, and builtins.
	Callee *types.Func
	// LitNode is the called literal's node when the call invokes a
	// function literal in place (func(){...}() and defer func(){...}()),
	// linking the literal's facts to the enclosing function.
	LitNode *FuncNode
}

// A Program is the whole-program call graph the driver builds over
// every loaded package and hands to each Pass.
type Program struct {
	Fset     *token.FileSet
	Packages []*ProgramPackage

	funcs   map[*types.Func]*FuncNode
	lits    map[*ast.FuncLit]*FuncNode
	nodes   []*FuncNode
	callers map[*FuncNode][]callerEdge
	facts   map[string]*FactSet
	dirs    directiveIndex
}

type callerEdge struct {
	caller *FuncNode
	site   *CallSite
}

// BuildProgram constructs the call graph. All packages must share fset,
// and cross-package facts flow only between packages present here, so
// drivers load dependencies from source (see internal/analysis/load).
func BuildProgram(fset *token.FileSet, pkgs []*ProgramPackage) *Program {
	p := &Program{
		Fset:     fset,
		Packages: pkgs,
		funcs:    make(map[*types.Func]*FuncNode),
		lits:     make(map[*ast.FuncLit]*FuncNode),
		facts:    make(map[string]*FactSet),
		dirs:     make(directiveIndex),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			p.dirs.addFile(fset, file)
			b := &progBuilder{prog: p, pkg: pkg, goCalls: goCalls(file)}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &FuncNode{Obj: fn.Origin(), Decl: fd, Pkg: pkg}
				p.funcs[fn.Origin()] = n
				p.nodes = append(p.nodes, n)
				b.scan(n, fd.Body)
			}
		}
	}
	p.callers = make(map[*FuncNode][]callerEdge)
	for _, n := range p.nodes {
		for i := range n.Calls {
			cs := &n.Calls[i]
			target := cs.LitNode
			if target == nil && cs.Callee != nil {
				target = p.funcs[cs.Callee]
			}
			if target != nil {
				p.callers[target] = append(p.callers[target], callerEdge{caller: n, site: cs})
			}
		}
	}
	return p
}

// goCalls returns the call expressions that are go statements in file.
func goCalls(file *ast.File) map[*ast.CallExpr]bool {
	m := make(map[*ast.CallExpr]bool)
	ast.Inspect(file, func(x ast.Node) bool {
		if g, ok := x.(*ast.GoStmt); ok {
			m[g.Call] = true
		}
		return true
	})
	return m
}

type progBuilder struct {
	prog    *Program
	pkg     *ProgramPackage
	goCalls map[*ast.CallExpr]bool
}

// scan records n's call sites and creates nodes for nested literals.
func (b *progBuilder) scan(n *FuncNode, body ast.Node) {
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if b.prog.lits[x] == nil {
				child := &FuncNode{Lit: x, Parent: n, Pkg: b.pkg}
				b.prog.lits[x] = child
				b.prog.nodes = append(b.prog.nodes, child)
				b.scan(child, x.Body)
			}
			return false
		case *ast.CallExpr:
			if b.goCalls[x] {
				return true // spawned call: not part of this function
			}
			cs := CallSite{Call: x, Pos: x.Pos()}
			if fn := Callee(b.pkg.Info, x); fn != nil {
				cs.Callee = fn.Origin()
			}
			if lit, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
				if b.prog.lits[lit] == nil {
					child := &FuncNode{Lit: lit, Parent: n, Pkg: b.pkg}
					b.prog.lits[lit] = child
					b.prog.nodes = append(b.prog.nodes, child)
					b.scan(child, lit.Body)
				}
				cs.LitNode = b.prog.lits[lit]
			}
			n.Calls = append(n.Calls, cs)
		}
		return true
	})
}

// FuncNode returns the node for a declared function, or nil if its body
// is not part of the program (interface methods, unloaded packages).
func (p *Program) FuncNode(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return p.funcs[fn.Origin()]
}

// LitNode returns the node for a function literal in a loaded file.
func (p *Program) LitNode(lit *ast.FuncLit) *FuncNode { return p.lits[lit] }

// DirectiveAt returns the named //lhws: directive attached to pos (same
// line or the line above) anywhere in the program.
func (p *Program) DirectiveAt(pos token.Pos, name string) (Directive, bool) {
	return p.dirs.at(p.Fset, pos, name)
}

// FuncMarked reports whether fn's declaration carries the named
// function-level directive (in any loaded package).
func (p *Program) FuncMarked(fn *types.Func, name string) bool {
	_, ok := p.FuncDirective(fn, name)
	return ok
}

// FuncDirective returns the named function-level directive on fn's
// declaration (in any loaded package).
func (p *Program) FuncDirective(fn *types.Func, name string) (Directive, bool) {
	n := p.FuncNode(fn)
	if n == nil {
		return Directive{}, false
	}
	return FuncDirective(n.Decl, name)
}

// A FactDef defines one propagated function fact. Facts are boolean
// ("calling this function may X") and flow from callee to caller.
type FactDef struct {
	// Name keys the memoized FactSet on the Program.
	Name string
	// Calls reports whether calling fn is itself a source of the fact
	// (a leaf in the seed table), with the reason. It is consulted for
	// every statically resolved callee, including functions with no
	// body in the program.
	Calls func(fn *types.Func) (string, bool)
	// Scan, when non-nil, reports a syntactic source of the fact inside
	// the node's own body (e.g. a channel operation), with its position.
	Scan func(p *Program, n *FuncNode) (token.Pos, string, bool)
	// SkipCall, when non-nil, reports call sites the fact must not
	// propagate through — typically sites carrying a justified escape
	// directive.
	SkipCall func(p *Program, n *FuncNode, cs *CallSite) bool
}

// A FactSet is the result of propagating one FactDef over the program:
// for each function, whether it has the fact and a witness chain saying
// why.
type FactSet struct {
	def   FactDef
	prog  *Program
	marks map[*FuncNode]*factMark
}

// factMark records why a node has a fact: a syntactic source (reason
// only), a direct call to a leaf (callee+reason), or a call to another
// marked node (next).
type factMark struct {
	pos    token.Pos
	reason string
	callee *types.Func
	next   *FuncNode
}

// Facts propagates def over the program, memoized by def.Name.
func (p *Program) Facts(def FactDef) *FactSet {
	if fs, ok := p.facts[def.Name]; ok {
		return fs
	}
	fs := &FactSet{def: def, prog: p, marks: make(map[*FuncNode]*factMark)}
	var queue []*FuncNode
	mark := func(n *FuncNode, m *factMark) {
		if fs.marks[n] == nil {
			fs.marks[n] = m
			queue = append(queue, n)
		}
	}
	for _, n := range p.nodes {
		if def.Scan != nil {
			if pos, reason, ok := def.Scan(p, n); ok {
				mark(n, &factMark{pos: pos, reason: reason})
			}
		}
		for i := range n.Calls {
			cs := &n.Calls[i]
			if cs.Callee == nil {
				continue
			}
			if reason, ok := def.Calls(cs.Callee); ok {
				if def.SkipCall != nil && def.SkipCall(p, n, cs) {
					continue
				}
				mark(n, &factMark{pos: cs.Pos, reason: reason, callee: cs.Callee})
			}
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range p.callers[n] {
			if def.SkipCall != nil && def.SkipCall(p, e.caller, e.site) {
				continue
			}
			mark(e.caller, &factMark{pos: e.site.Pos, next: n})
		}
	}
	p.facts[def.Name] = fs
	return fs
}

// Call reports whether calling fn triggers the fact, with a witness
// description: either fn is a leaf of the seed table, or its body (or a
// body it transitively calls) contains a source. The description reads
// "a.f → b.g → time.Sleep (sleeps the worker)".
func (fs *FactSet) Call(fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	fn = fn.Origin()
	if reason, ok := fs.def.Calls(fn); ok {
		return FuncLabel(fn) + " (" + reason + ")", true
	}
	n := fs.prog.funcs[fn]
	if n == nil || fs.marks[n] == nil {
		return "", false
	}
	return fs.trace(n), true
}

// trace renders the witness chain from n to the fact's leaf.
func (fs *FactSet) trace(n *FuncNode) string {
	var parts []string
	for hops := 0; n != nil && hops < 8; hops++ {
		m := fs.marks[n]
		if m == nil {
			break
		}
		switch {
		case m.next != nil:
			parts = append(parts, n.Name())
			n = m.next
		case m.callee != nil:
			parts = append(parts, n.Name(), FuncLabel(m.callee)+" ("+m.reason+")")
			n = nil
		default:
			parts = append(parts, n.Name()+" ("+m.reason+")")
			n = nil
		}
	}
	if n != nil {
		parts = append(parts, "…")
	}
	return strings.Join(parts, " → ")
}

// A FactRecord is one exported (function, fact) pair, the composable
// output format of the summary engine (lhws-vet -facts).
type FactRecord struct {
	Fact string `json:"fact"`
	Func string `json:"func"`
	Pos  string `json:"pos"`
	Via  string `json:"via"`
}

// FactRecords exports every fact computed on the program so far, sorted
// by fact name then function.
func (p *Program) FactRecords() []FactRecord {
	var recs []FactRecord
	for _, fs := range p.facts {
		for n, m := range fs.marks {
			pos := p.Fset.Position(m.pos)
			recs = append(recs, FactRecord{
				Fact: fs.def.Name,
				Func: n.Name(),
				Pos:  fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
				Via:  fs.trace(n),
			})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Fact != recs[j].Fact {
			return recs[i].Fact < recs[j].Fact
		}
		if recs[i].Func != recs[j].Func {
			return recs[i].Func < recs[j].Func
		}
		return recs[i].Pos < recs[j].Pos
	})
	return recs
}

// FuncLabel renders fn compactly for diagnostics: the FullName with the
// import path shortened to the package name, e.g.
// "(*runtime.Future).Await" instead of
// "(*lhws/internal/runtime.Future).Await".
func FuncLabel(fn *types.Func) string {
	full := fn.FullName()
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() != pkg.Name() {
		full = strings.Replace(full, pkg.Path()+".", pkg.Name()+".", 1)
	}
	return full
}
