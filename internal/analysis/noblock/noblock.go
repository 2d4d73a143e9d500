// Package noblock checks that scheduler hot-path functions never block
// the worker.
//
// The latency-hiding bound of Theorem 2 — O(W/P + S·U·(1+lg U))
// expected time — holds only if workers make a scheduling decision
// every round: a worker that parks inside the scheduling loop stops
// executing ready work and stops stealing, re-introducing exactly the
// idle time latency hiding exists to remove. Suspension through heavy
// edges (task-side yield to the worker loop) is the only sanctioned
// wait.
//
// A function declares itself part of the checked hot path with an
// //lhws:nonblocking doc-comment directive. Inside such functions the
// analyzer flags:
//
//   - channel sends, receives, range-over-channel, and select
//     statements without a default clause;
//   - calls to known parking operations: time.Sleep, mutex and RWMutex
//     Lock/RLock, WaitGroup.Wait, Cond.Wait, Once.Do, the mutex-backed
//     deque (lhws/internal/deque.Locked), whose every operation takes a
//     lock — hot paths must use the lock-free ChaseLev — and the fault
//     injector's task-side Inject, which sleeps or panics by design
//     (worker hot paths consult Decide instead);
//   - calls to function values (closures, func fields), whose targets
//     the analyzer cannot see;
//   - calls to any function — same package or not — whose transitive
//     may-block summary (see internal/analysis/facts.MayBlock) shows
//     an unescaped path to a parking operation. The diagnostic carries
//     the witness chain. Callees that are themselves marked
//     //lhws:nonblocking are not re-flagged at the call site: their
//     bodies are checked on their own terms, so a violation is
//     reported once, where it happens.
//
// The summary-based rule replaces the old syntactic one ("any call to
// a same-package function not marked //lhws:nonblocking"), which was
// both a false-positive generator — provably non-blocking helpers had
// to be annotated or escaped — and a false-negative one: a blocking
// helper one package away was invisible.
//
// Individual operations that are blocking by design — a bounded leaf
// critical section, the worker loop's coroutine switch into a task — are
// acknowledged with a statement-level //lhws:allowblock directive whose
// argument must state the justification. Justified escapes also stop the
// summary propagation: a blocking operation acknowledged where it happens
// does not taint the functions above it.
//
// One function may park on purpose: the worker's idle wait, which blocks
// only once nothing is runnable, resumable or stealable. It declares
// itself with a function-level //lhws:parks directive whose argument
// states that condition. Such a function may be called from a
// nonblocking one, its body is not checked, and it does not taint its
// callers' may-block summaries. A //lhws:parks without the condition is
// reported and not honoured.
//
// Independently of the directive, the analyzer checks task code: any
// function or closure that takes a *runtime.Ctx parameter runs on a
// worker, so a bare net call inside it (conn.Read, listener.Accept,
// net.Dial, DNS lookups) parks that worker for the operation's full
// latency — precisely the blocking baseline the latency-hiding
// scheduler exists to beat. Both direct net calls and calls to helpers
// whose net-block summary reaches one are flagged, with a pointer to
// lhws/internal/io, whose Conn/Listener/Dial suspend the task through a
// heavy edge instead. Helpers that take a Ctx themselves are task code
// in their own right and are checked (and flagged) there, not at their
// call sites. //lhws:allowblock acknowledges deliberate exceptions (an
// immediate bind, a diagnostic path).
package noblock

import (
	"go/ast"
	"go/token"
	"go/types"

	"lhws/internal/analysis"
	"lhws/internal/analysis/facts"
)

// nonblocking marks a function as a checked hot path.
const nonblocking = "nonblocking"

var Analyzer = &analysis.Analyzer{
	Name:       "noblock",
	Doc:        "check that //lhws:nonblocking scheduler hot paths contain no blocking operations",
	Run:        run,
	Directives: []string{nonblocking, facts.AllowBlock, facts.ParksDir},
}

func run(pass *analysis.Pass) error {
	checkTaskNet(pass)
	// Which same-package functions are vouched for at their declaration —
	// declared nonblocking, or the sanctioned park? (For other packages the
	// Program answers; for a nil Prog only same-package annotations are
	// visible, matching the old behaviour.)
	vouched := make(map[types.Object]bool)
	var hot []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			if _, ok := analysis.FuncDirective(fd, nonblocking); ok {
				vouched[obj] = true
				if fd.Body != nil {
					hot = append(hot, fd)
				}
			}
			if d, ok := analysis.FuncDirective(fd, facts.ParksDir); ok {
				if d.Args == "" {
					pass.Reportf(d.Pos, "%sparks directive needs the condition under which the function parks", analysis.DirectivePrefix)
				} else {
					vouched[obj] = true
				}
			}
		}
	}
	var mayBlock func(*types.Func) (string, bool)
	if pass.Prog != nil {
		mayBlock = facts.MayBlock(pass.Prog).Call
	} else {
		mayBlock = facts.MayBlockLeaf
	}
	for _, fd := range hot {
		check(pass, fd, vouched, mayBlock)
	}
	return nil
}

// checkTaskNet flags net calls that block the worker in task code —
// every FuncDecl and FuncLit whose parameters include a *runtime.Ctx.
func checkTaskNet(pass *analysis.Pass) {
	var netBlock func(*types.Func) (string, bool)
	if pass.Prog != nil {
		netBlock = facts.NetBlock(pass.Prog).Call
	} else {
		netBlock = facts.NetBlockLeaf
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var ft *ast.FuncType
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				ft, body = n.Type, n.Body
			case *ast.FuncLit:
				ft, body = n.Type, n.Body
			default:
				return true
			}
			if body == nil || !hasCtxParam(pass, ft) {
				return true
			}
			checkNetCalls(pass, body, netBlock)
			return true // nested task closures still get their own visit
		})
	}
}

func checkNetCalls(pass *analysis.Pass, body *ast.BlockStmt, netBlock func(*types.Func) (string, bool)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A nested closure is checked on its own terms: with a Ctx
			// param it is task code itself; without one its execution
			// context is unknowable here.
			return false
		case *ast.GoStmt:
			// The spawned body runs on its own goroutine, not under
			// this task's worker.
			return false
		case *ast.CallExpr:
			fn := analysis.Callee(pass.TypesInfo, n)
			if fn == nil {
				return true
			}
			if _, direct := facts.NetBlockLeaf(fn); direct {
				report(pass, n.Pos(),
					"%s blocks the worker under this task for the operation's full latency; use lhws/internal/io so the task suspends instead",
					fn.FullName())
				return true
			}
			// Transitive: a helper without a Ctx of its own that reaches
			// a bare net call. Ctx-taking helpers are task code and are
			// checked where they are defined.
			if facts.TakesCtx(fn) {
				return true
			}
			if desc, ok := netBlock(fn); ok {
				report(pass, n.Pos(),
					"call reaches a blocking net call under this task: %s; use lhws/internal/io so the task suspends instead",
					desc)
			}
		}
		return true
	})
}

// hasCtxParam reports whether the signature takes a *runtime.Ctx (the
// marker that the function body runs as task code on a worker).
func hasCtxParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if t := pass.TypesInfo.TypeOf(field.Type); t != nil && facts.IsCtxPtr(t) {
			return true
		}
	}
	return false
}

func check(pass *analysis.Pass, fd *ast.FuncDecl, vouched map[types.Object]bool, mayBlock func(*types.Func) (string, bool)) {
	// The send/receive in a select's comm clauses is accounted for by the
	// select itself (blocking iff there is no default case).
	commOps := facts.SelectCommOps(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if commOps[n] {
			return true
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			// Spawning is not blocking; the spawned body runs on another
			// goroutine and is outside this function's hot path.
			return false
		case *ast.FuncLit:
			// A literal merely defined here may run elsewhere; only calls
			// are checked, and an immediate call is caught as indirect.
			return false
		case *ast.SendStmt:
			report(pass, n.Pos(), "channel send blocks the worker loop; suspend via heavy edges instead")
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(pass, n.Pos(), "channel receive blocks the worker loop; suspend via heavy edges instead")
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(pass, n.Pos(), "range over channel blocks the worker loop")
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				report(pass, n.Pos(), "select without default blocks the worker loop")
			}
		case *ast.CallExpr:
			checkCall(pass, n, vouched, mayBlock)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, vouched map[types.Object]bool, mayBlock func(*types.Func) (string, bool)) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		// Conversion, builtin, or a call of a function value. The first
		// two are harmless; the last is opaque, so it must be vouched for.
		if isOpaqueCall(pass, call) {
			report(pass, call.Pos(), "call of a function value from a nonblocking context; the analyzer cannot see its body")
		}
		return
	}
	if reason, ok := facts.BlockingCalls[fn.FullName()]; ok {
		report(pass, call.Pos(), "%s %s", fn.FullName(), reason)
		return
	}
	// A callee marked //lhws:nonblocking is checked where it is
	// defined; re-flagging its call sites would report each violation
	// many times. The //lhws:parks function is vouched for whole.
	if vouched[fn.Origin()] {
		return
	}
	if pass.Prog != nil && (pass.Prog.FuncMarked(fn, nonblocking) || facts.Parks(pass.Prog, fn)) {
		return
	}
	if desc, ok := mayBlock(fn); ok {
		report(pass, call.Pos(), "call may block the worker: %s; make the callee non-blocking (and mark it //lhws:nonblocking) or justify with //lhws:allowblock", desc)
	}
}

// isOpaqueCall reports whether call invokes a function value (rather
// than a conversion or builtin).
func isOpaqueCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return false
	}
	if tv.IsType() || tv.IsBuiltin() {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	return isSig
}

func report(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	if pass.Suppressed(pos, facts.AllowBlock) {
		return
	}
	pass.Reportf(pos, format, args...)
}
