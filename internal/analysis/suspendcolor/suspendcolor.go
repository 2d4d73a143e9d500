// Package suspendcolor computes the transitive may-suspend coloring of
// the program and enforces the runtime's no-suspend regions.
//
// A task suspension (Await, Chan.Recv, Ctx.Latency, an I/O read, a
// pfor join …) is only legal from task code running between a resume
// and a report. Several kinds of code must never reach one, directly
// or through any chain of calls:
//
//   - //lhws:nosuspend functions: scheduler-side delivery and wake
//     paths (waiter.wake, deliver, timer callbacks) that run on
//     arbitrary goroutines with no task to suspend;
//   - //lhws:owner functions: deque-owner hot paths. A suspension
//     releases the owner role mid-function and the task may resume on
//     a *different* worker, so owner-side state cached across the
//     suspension (the worker, its active deque) is stale — the
//     use-after-migration bug;
//   - ExternalOp implementations (Arm, CancelExternal): the runtime
//     invokes them from completion and cancellation goroutines, and
//     the interface contract says they must not block or suspend;
//   - timer-wheel callbacks (functions passed to
//     timerwheel.AfterFunc, AfterFuncT or AfterFuncInto), which run on
//     the wheel goroutine.
//
// The may-suspend set is seeded by the runtime's heavy-edge entry
// points (see internal/analysis/facts) and propagated over the
// driver's whole-program call graph, so a call three packages removed
// from Await is flagged with the full witness chain. A deliberate
// exception is acknowledged with //lhws:allowsuspend <justification>.
package suspendcolor

import (
	"go/ast"
	"go/types"

	"lhws/internal/analysis"
	"lhws/internal/analysis/facts"
)

// The directives suspendcolor reads.
const (
	nosuspend    = "nosuspend"    // marks a checked no-suspend region
	owner        = "owner"        // marks a deque-owner region, which must not suspend
	allowsuspend = "allowsuspend" // permits one may-suspend call in such a region
)

var Analyzer = &analysis.Analyzer{
	Name:       "suspendcolor",
	Doc:        "check that no-suspend regions (//lhws:nosuspend, //lhws:owner, scheduler callbacks) cannot reach a task suspension",
	Run:        run,
	Directives: []string{nosuspend, owner, allowsuspend},
}

// region is one function whose body must not reach a suspension.
type region struct {
	fd   *ast.FuncDecl
	what string
}

func run(pass *analysis.Pass) error {
	maySuspend := facts.MaySuspendLeaf
	if pass.Prog != nil {
		maySuspend = facts.MaySuspend(pass.Prog).Call
	}

	// Declared functions of this package, for resolving timer callbacks.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}

	seen := make(map[*ast.FuncDecl]bool)
	var regions []region
	add := func(fd *ast.FuncDecl, what string) {
		if fd != nil && fd.Body != nil && !seen[fd] {
			seen[fd] = true
			regions = append(regions, region{fd: fd, what: what})
		}
	}

	for _, fd := range decls {
		if _, ok := analysis.FuncDirective(fd, nosuspend); ok {
			add(fd, "a //lhws:nosuspend region")
		}
		if _, ok := analysis.FuncDirective(fd, owner); ok {
			add(fd, "an //lhws:owner region (a suspension releases the owner role and may resume on a different worker)")
		}
	}

	// ExternalOp implementations: Arm and CancelExternal run on
	// completion/cancellation goroutines and must not suspend or block.
	if iface := lookupInterface(pass.Pkg, facts.RuntimePath, "ExternalOp"); iface != nil {
		for fn, fd := range decls {
			if recv := fn.Signature().Recv(); recv != nil &&
				(fn.Name() == "Arm" || fn.Name() == "CancelExternal") &&
				types.Implements(recv.Type(), iface) {
				add(fd, "an ExternalOp callback (runs on scheduler-side goroutines; the interface contract forbids suspending)")
			}
		}
	}

	// Timer-wheel callbacks: functions passed to timerwheel.AfterFunc,
	// AfterFuncT (the timer-carrying variant the io deadline path uses) or
	// AfterFuncInto (caller-owned Timer storage). The callback is the
	// argument in the method's one func-typed parameter — func(any) or
	// func(*Timer, any) — wherever the signature puts it.
	for _, file := range pass.Files {
		ast.Inspect(file, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "lhws/internal/timerwheel" {
				return true
			}
			switch fn.Name() {
			case "AfterFunc", "AfterFuncT", "AfterFuncInto":
			default:
				return true
			}
			params := fn.Signature().Params()
			for i := 0; i < params.Len() && i < len(call.Args); i++ {
				if _, ok := params.At(i).Type().Underlying().(*types.Signature); !ok {
					continue
				}
				if id, ok := ast.Unparen(call.Args[i]).(*ast.Ident); ok {
					if cb, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
						add(decls[cb], "a timer-wheel callback (runs on the wheel goroutine)")
					}
				}
			}
			return true
		})
	}

	for _, r := range regions {
		checkRegion(pass, r, maySuspend)
	}
	return nil
}

// lookupInterface finds the named interface type in pkg itself or one
// of its direct imports matching path.
func lookupInterface(pkg *types.Package, path, name string) *types.Interface {
	target := pkg
	if pkg.Path() != path {
		target = nil
		for _, imp := range pkg.Imports() {
			if imp.Path() == path {
				target = imp
				break
			}
		}
	}
	if target == nil {
		return nil
	}
	obj := target.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// checkRegion walks the region body — including function literals
// invoked in place, excluding literals that merely escape and bodies
// spawned by go statements — and flags every statically resolved call
// that may suspend.
func checkRegion(pass *analysis.Pass, r region, maySuspend func(*types.Func) (string, bool)) {
	goCalls := make(map[*ast.CallExpr]bool)
	invoked := make(map[*ast.FuncLit]bool)
	ast.Inspect(r.fd.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			goCalls[x.Call] = true
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok && !goCalls[x] {
				invoked[lit] = true
			}
		}
		return true
	})
	ast.Inspect(r.fd.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return invoked[x]
		case *ast.CallExpr:
			if goCalls[x] {
				return true // the spawned body runs outside the region
			}
			fn := analysis.Callee(pass.TypesInfo, x)
			if fn == nil {
				return true
			}
			if desc, ok := maySuspend(fn); ok {
				if !pass.Suppressed(x.Pos(), allowsuspend) {
					pass.Reportf(x.Pos(), "call may suspend the task inside %s: %s", r.what, desc)
				}
			}
		}
		return true
	})
}
