// Package ctxleak flags task contexts (*runtime.Ctx) escaping the task
// they belong to.
//
// A Ctx is embedded in its task's pooled shell (task.ctx): the pointer
// a task function receives points *into* the shell, and the shell —
// epoch, channels, goroutine and all — is recycled for an unrelated
// task the moment the current one reports done. Any Ctx that outlives
// its task is therefore a use-after-recycle: a Spawn through it pushes
// onto a deque the new task's worker owns, a Latency suspends somebody
// else's task, and the suspension-epoch CAS silently misattributes
// wakeups. The same applies to Ctx values (copies carry the same inner
// *task pointer).
//
// The analyzer flags the stores through which a Ctx can outlive the
// task function's dynamic extent:
//
//   - assignment to a package-level variable, a struct field, or a
//     map/slice element, and composite literals carrying a Ctx;
//   - sending a Ctx on a channel or appending it to a slice;
//   - passing a Ctx to a go statement's call, or capturing one in a
//     go statement's closure — the goroutine runs concurrently with
//     (and can outlive) the task, outside the switch-in/yield handoff
//     that makes task-side scheduler access safe.
//
// Passing a Ctx to an ordinary call or returning it to the caller
// stays inside the task's extent and is not flagged. The runtime
// package itself owns the shell lifecycle and is exempt. A deliberate
// escape — e.g. a test harness that provably joins before the task
// ends — is acknowledged with //lhws:ctxok <justification>.
package ctxleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"lhws/internal/analysis"
	"lhws/internal/analysis/facts"
)

// ctxok permits one Ctx escape from its task.
const ctxok = "ctxok"

var Analyzer = &analysis.Analyzer{
	Name:       "ctxleak",
	Doc:        "check that no *runtime.Ctx escapes its task (pooled shells make that a use-after-recycle)",
	Run:        run,
	Directives: []string{ctxok},
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == facts.RuntimePath {
		return nil // the runtime owns the shell lifecycle
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					if i >= len(x.Lhs) {
						break
					}
					if isCtx(pass, rhs) {
						if kind, bad := sinkLHS(pass, x.Lhs[i]); bad {
							report(pass, rhs.Pos(), kind)
						}
					}
				}
			case *ast.GenDecl:
				// Package-level var initialized with a Ctx.
				if x.Tok == token.VAR {
					for _, spec := range x.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for vi, v := range vs.Values {
							if isCtx(pass, v) && vi < len(vs.Names) {
								if obj := pass.TypesInfo.Defs[vs.Names[vi]]; obj != nil &&
									obj.Parent() == pass.Pkg.Scope() {
									report(pass, v.Pos(), "stored in a package-level variable")
								}
							}
						}
					}
				}
			case *ast.CompositeLit:
				for _, el := range x.Elts {
					v := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if isCtx(pass, v) {
						report(pass, v.Pos(), "stored in a composite literal")
					}
				}
			case *ast.SendStmt:
				if isCtx(pass, x.Value) {
					report(pass, x.Value.Pos(), "sent on a channel")
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
						for _, a := range x.Args[1:] {
							if isCtx(pass, a) {
								report(pass, a.Pos(), "appended to a slice")
							}
						}
					}
				}
			case *ast.GoStmt:
				for _, a := range x.Call.Args {
					if isCtx(pass, a) {
						report(pass, a.Pos(), "passed to a goroutine")
					}
				}
				if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
					checkCapture(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

// checkCapture flags free variables of Ctx type inside a go-statement
// closure: the closure runs on its own goroutine, concurrent with the
// task the Ctx belongs to.
func checkCapture(pass *analysis.Pass, lit *ast.FuncLit) {
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || seen[obj] || obj.IsField() {
			return true
		}
		if !facts.IsCtxPtr(obj.Type()) && !facts.IsCtxNamed(obj.Type()) {
			return true
		}
		// Captured iff declared outside the literal (and not package
		// level — package-level Ctx vars are flagged at their store).
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			if obj.Parent() != pass.Pkg.Scope() {
				seen[obj] = true
				report(pass, id.Pos(), "captured by a go-statement closure")
			}
		}
		return true
	})
}

// isCtx reports whether e evaluates to a task context (pointer or
// value).
func isCtx(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	return facts.IsCtxPtr(t) || facts.IsCtxNamed(t)
}

// sinkLHS classifies an assignment target that lets the value outlive
// the assigning function: package-level variables, struct fields, and
// container elements.
func sinkLHS(pass *analysis.Pass, lhs ast.Expr) (string, bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Defs[lhs]
		if obj == nil {
			obj = pass.TypesInfo.Uses[lhs]
		}
		if obj != nil && obj.Parent() == pass.Pkg.Scope() {
			return "stored in a package-level variable", true
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			return "stored in a struct field", true
		}
		// Qualified identifier: a variable in another package.
		if obj, ok := pass.TypesInfo.Uses[lhs.Sel].(*types.Var); ok && !obj.IsField() {
			return "stored in a package-level variable", true
		}
	case *ast.IndexExpr:
		return "stored in a container element", true
	}
	return "", false
}

func report(pass *analysis.Pass, pos token.Pos, kind string) {
	if pass.Suppressed(pos, ctxok) {
		return
	}
	pass.Reportf(pos, "task context escapes its task (%s); a Ctx points into a pooled task shell that is recycled when the task completes, so any later use is a use-after-recycle — pass results out instead, or justify with //lhws:ctxok", kind)
}
