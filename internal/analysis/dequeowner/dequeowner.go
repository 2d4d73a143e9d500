// Package dequeowner enforces the single-owner protocol of the
// work-stealing deques in lhws/internal/deque.
//
// The Chase–Lev deque's correctness argument (and with it Lemma 3's
// top-heaviness, which the whole potential-function analysis leans on)
// assumes exactly one goroutine — the owner — operates on the bottom
// end. The Go type system cannot express that, so this analyzer makes
// the owner role an explicitly-declared, machine-checked property:
//
//  1. Every call to an owner-only method (PushBottom, PopBottom, and the
//     owner's PeekBottom, which reads the bottom end unsynchronized) must
//     occur inside a function whose doc comment carries an
//     //lhws:owner directive stating why the caller holds the owner
//     role. Package lhws/internal/deque itself is exempt.
//
//  2. An owner-only call lexically inside a `go func(){...}` literal is
//     flagged regardless: a freshly spawned goroutine never holds the
//     owner role, whatever its enclosing function has proven. A
//     statement-level //lhws:owner directive can override even this for
//     the rare case where the spawn is itself the handoff.
//
//  3. The deque's ordering fields (top, bottom, array, and the
//     batch-steal claim word) may be touched only by methods of the
//     type that declares them or by constructor functions returning
//     that type — even inside package deque, where a helper mutating
//     d.top or d.claim directly would bypass the memory-ordering
//     protocol of PushBottom/PopTop/PopTopBatch.
//
//  4. The same declaring-type-only rule guards the buffer pool's
//     reference count (lhws/internal/bufpool's Buf.refs): pooled
//     buffers cross the cancel window between tasks and waiter
//     goroutines, and a refcount touched outside Retain/Release races
//     recycling — the classic use-after-recycle. Hot-path code is free
//     to CALL Retain/Release (they are lock-free); only raw field
//     manipulation is flagged.
//
// The thief-side methods (PopTop, PopTopBatch) need no owner
// declaration: any worker may steal, single items or batches alike.
// Only the bottom end is single-owner.
package dequeowner

import (
	"go/ast"
	"go/types"

	"lhws/internal/analysis"
)

// DequePath is the package whose deques this analyzer guards;
// BufPoolPath's refcounted buffers get the same declaring-type-only
// field protection.
const (
	DequePath   = "lhws/internal/deque"
	BufPoolPath = "lhws/internal/bufpool"
)

var ownerMethods = map[string]bool{
	"PushBottom": true,
	"PopBottom":  true,
	"PeekBottom": true,
}

// guardedFields maps package path → protocol-critical fields that only
// methods (or constructors) of the declaring type may touch, and the
// protocol a stray access would bypass.
var guardedFields = map[string]map[string]string{
	DequePath: {
		"top":    "the Chase-Lev publication protocol",
		"bottom": "the Chase-Lev publication protocol",
		"array":  "the Chase-Lev publication protocol",
		"claim":  "the Chase-Lev publication protocol",
	},
	BufPoolPath: {
		"refs": "the Retain/Release lifecycle (racing buffer recycling)",
	},
}

var Analyzer = &analysis.Analyzer{
	Name: "dequeowner",
	Doc:  "check that owner-only deque operations are confined to declared deque owners",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		w := &walker{pass: pass}
		w.walkDecls(file)
	}
	return nil
}

// walker tracks the enclosing function declaration and whether the walk
// is inside a function literal spawned by a go statement.
type walker struct {
	pass    *analysis.Pass
	fn      *ast.FuncDecl
	goDepth int
}

func (w *walker) walkDecls(file *ast.File) {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			w.fn = fd
			if fd.Body != nil {
				w.walk(fd.Body)
			}
			continue
		}
		w.fn = nil
		w.walk(decl)
	}
}

func (w *walker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// Walk the call's operands normally, but the body of a
			// spawned literal with the goroutine marker set.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				for _, arg := range n.Call.Args {
					w.walk(arg)
				}
				w.goDepth++
				w.walk(lit.Body)
				w.goDepth--
				return false
			}
		case *ast.CallExpr:
			w.checkCall(n)
		case *ast.SelectorExpr:
			w.checkFieldAccess(n)
		}
		return true
	})
}

// checkCall flags owner-only method calls outside declared owners.
func (w *walker) checkCall(call *ast.CallExpr) {
	fn := analysis.Callee(w.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != DequePath {
		return
	}
	if fn.Signature().Recv() == nil || !ownerMethods[fn.Name()] {
		return
	}
	if w.goDepth > 0 {
		if !w.pass.Suppressed(call.Pos(), "owner") {
			w.pass.Reportf(call.Pos(),
				"owner-only deque method %s called from a goroutine spawned here; a fresh goroutine never holds the deque owner role", fn.Name())
		}
		return
	}
	if w.pass.Pkg.Path() == DequePath {
		return // the deque package validates its own protocol in tests
	}
	if _, ok := analysis.FuncDirective(w.fn, "owner"); ok {
		return
	}
	if w.pass.Suppressed(call.Pos(), "owner") {
		return
	}
	name := "this function"
	if w.fn != nil {
		name = w.fn.Name.Name
	}
	w.pass.Reportf(call.Pos(),
		"owner-only deque method %s called in %s, which does not declare the owner role (add an //lhws:owner directive stating why the caller owns the deque)", fn.Name(), name)
}

// checkFieldAccess flags direct access to protocol-guarded fields
// (deque ordering words, buffer refcounts) outside methods or
// constructors of the declaring type.
func (w *walker) checkFieldAccess(sel *ast.SelectorExpr) {
	selection, ok := w.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || field.Pkg() == nil {
		return
	}
	protocol, guarded := guardedFields[field.Pkg().Path()][field.Name()]
	if !guarded {
		return
	}
	owner := analysis.ReceiverNamed(selection.Recv())
	if owner == nil {
		return
	}
	if w.fn != nil && w.goDepth == 0 {
		if recv := w.fn.Recv; recv != nil && len(recv.List) == 1 {
			if t := w.pass.TypesInfo.TypeOf(recv.List[0].Type); analysis.ReceiverNamed(t) == owner {
				return // method of the declaring type
			}
		}
		if results := w.fn.Type.Results; results != nil {
			for _, r := range results.List {
				if t := w.pass.TypesInfo.TypeOf(r.Type); analysis.ReceiverNamed(t) == owner {
					return // constructor returning the type
				}
			}
		}
	}
	if w.pass.Suppressed(sel.Pos(), "owner") {
		return
	}
	w.pass.Reportf(sel.Pos(),
		"direct access to guarded field %s.%s outside the type's methods bypasses %s", owner.Obj().Name(), field.Name(), protocol)
}
