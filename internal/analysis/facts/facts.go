// Package facts holds the shared interprocedural fact definitions the
// scheduler-aware analyzers compose on: the transitive may-suspend
// coloring (suspendcolor), the may-block summary (noblock's
// //lhws:nonblocking regions), and the net-block summary (noblock's
// task-code check). Each is an analysis.FactDef propagated over the
// driver's whole-program call graph; analyzers retrieve the memoized
// FactSet with the accessors here, so each summary is computed once per
// driver run no matter how many analyzers consult it.
package facts

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"lhws/internal/analysis"
)

// RuntimePath and IOPath are the import paths of the packages whose
// exported operations seed the may-suspend coloring. Analyzer fixtures
// fake these paths in GOPATH mode, so the seed tables match there too.
const (
	RuntimePath = "lhws/internal/runtime"
	IOPath      = "lhws/internal/io"
	LhwsPath    = "lhws"
)

// The directives the may-block summary reads; noblock lists them as its
// own, since it is the analyzer that reports through the summary.
const (
	AllowBlock = "allowblock" // permits one blocking operation or call
	ParksDir   = "parks"      // declares the worker's one sanctioned park
)

// maySuspendLeaves maps (package, receiver, function) keys — see
// funcKey — to the reason the operation suspends (or, in Blocking mode,
// parks the worker in place of a suspension). These are the heavy-edge
// entry points of the runtime: every transitive caller is a
// may-suspend function.
var maySuspendLeaves = map[string]string{
	RuntimePath + ".Future.Await":        "awaits a future",
	RuntimePath + ".Future.AwaitErr":     "awaits a future",
	RuntimePath + ".Value.Await":         "awaits a future",
	RuntimePath + ".Value.AwaitErr":      "awaits a future",
	RuntimePath + ".Chan.Send":           "suspends until a receiver or buffer slot is ready",
	RuntimePath + ".Chan.Recv":           "suspends until a value arrives",
	RuntimePath + ".Chan.RecvOK":         "suspends until a value arrives",
	RuntimePath + ".Ctx.Latency":         "suspends for the latency duration",
	RuntimePath + ".Ctx.AwaitExternalOp": "suspends until the external operation completes",
	RuntimePath + ".Ctx.finishWait":      "yields the task to the worker loop",
	RuntimePath + ".Ctx.yield":           "yields the task to the worker loop",
	RuntimePath + "..AwaitExternal":      "suspends until the external completion fires",
	RuntimePath + "..AwaitChan":          "suspends until the Go channel yields a value",
	RuntimePath + "..For":                "joins its iteration tasks",
	RuntimePath + "..forRange":           "joins its iteration tasks",
	RuntimePath + "..MapReduce":          "joins its iteration tasks",
	IOPath + ".Conn.Read":                "suspends until the socket is readable",
	IOPath + ".Conn.ReadBuf":             "suspends until the socket is readable",
	IOPath + ".Conn.Write":               "suspends until the socket is writable",
	IOPath + ".Conn.Writev":              "suspends until the vectored write completes",
	IOPath + ".Conn.Flush":               "suspends until the queued writes are flushed",
	IOPath + ".Listener.Accept":          "suspends until a connection arrives",
	IOPath + "..Dial":                    "suspends until the connection is established",
	IOPath + "..Listen":                  "suspends while binding the listener",
	IOPath + "..Wrap":                    "suspends while registering the socket",
	LhwsPath + "..For":                   "joins its iteration tasks",
	LhwsPath + "..ParallelMapReduce":     "joins its iteration tasks",
	LhwsPath + "..IODial":                "suspends until the connection is established",
	LhwsPath + "..IOListen":              "suspends while binding the listener",
	LhwsPath + "..IOWrap":                "suspends while registering the socket",
}

// funcKey renders fn as "pkgpath.Recv.name" ("pkgpath..name" for plain
// functions), keying the seed tables by identity rather than by
// FullName so generic receivers (Value[T], Chan[T]) match their origin.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	recv := ""
	if r := fn.Signature().Recv(); r != nil {
		if named := analysis.ReceiverNamed(r.Type()); named != nil {
			recv = named.Obj().Name()
		}
	}
	return pkg.Path() + "." + recv + "." + fn.Name()
}

// MaySuspendLeaf reports whether calling fn is itself a suspension
// point, with the reason. This is the seed predicate of the coloring
// and the fallback when no Program is available.
func MaySuspendLeaf(fn *types.Func) (string, bool) {
	reason, ok := maySuspendLeaves[funcKey(fn)]
	return reason, ok
}

// MaySuspend returns the transitive may-suspend coloring of the
// program: a function has the fact if it can reach a suspension point
// through statically resolved calls.
func MaySuspend(p *analysis.Program) *analysis.FactSet {
	return p.Facts(analysis.FactDef{
		Name:  "maySuspend",
		Calls: MaySuspendLeaf,
	})
}

// BlockingCalls maps types.Func.FullName to the reason the call parks
// the calling goroutine. These are the leaves of the may-block summary
// and noblock's direct table. The runtime's coroutine switch is listed by
// name: it parks the worker through a call of a function value (the
// iter.Pull next), which the summary cannot see into.
var BlockingCalls = map[string]string{
	"time.Sleep":                                  "sleeps the worker",
	"(*sync.Mutex).Lock":                          "may park on lock contention",
	"(*sync.RWMutex).Lock":                        "may park on lock contention",
	"(*sync.RWMutex).RLock":                       "may park on lock contention",
	"(*sync.WaitGroup).Wait":                      "parks until the group drains",
	"(*sync.Cond).Wait":                           "parks until signalled",
	"(*sync.Once).Do":                             "parks while another goroutine runs the function",
	"(sync.Locker).Lock":                          "may park on lock contention",
	"(*lhws/internal/deque.Locked).PushBottom":    "mutex-backed deque; hot paths must use the lock-free ChaseLev",
	"(*lhws/internal/deque.Locked).PopBottom":     "mutex-backed deque; hot paths must use the lock-free ChaseLev",
	"(*lhws/internal/deque.Locked).PopTop":        "mutex-backed deque; hot paths must use the lock-free ChaseLev",
	"(*lhws/internal/deque.Locked).PopTopBatch":   "mutex-backed deque; hot paths must use the lock-free ChaseLev",
	"(*lhws/internal/deque.Locked).Len":           "mutex-backed deque; hot paths must use the lock-free ChaseLev",
	"(*lhws/internal/deque.Locked).Empty":         "mutex-backed deque; hot paths must use the lock-free ChaseLev",
	"(*lhws/internal/faultpoint.Injector).Inject": "sleeps or panics by design (chaos injection); worker hot paths must use Decide and act non-blockingly",
	"(*lhws/internal/runtime.task).switchIn":      "switches into the task's coroutine until it yields",
}

// MayBlockLeaf reports whether calling fn parks the goroutine.
func MayBlockLeaf(fn *types.Func) (string, bool) {
	reason, ok := BlockingCalls[fn.Origin().FullName()]
	return reason, ok
}

// MayBlock returns the transitive may-block summary: a function has
// the fact if an unescaped path through its body reaches a parking
// operation — a known blocking call or a syntactic channel operation.
// Call sites (and syntactic operations) carrying a justified
// //lhws:allowblock directive do not propagate: the justification
// asserts the block is acceptable where it happens, so callers are not
// tainted by it. Calls to a function marked //lhws:parks (with its
// condition stated) do not propagate either: that function is the
// scheduler's one sanctioned park, vouched for at its declaration rather
// than at each call.
func MayBlock(p *analysis.Program) *analysis.FactSet {
	return p.Facts(analysis.FactDef{
		Name:     "mayBlock",
		Calls:    MayBlockLeaf,
		Scan:     scanBlockingSyntax,
		SkipCall: skipAllowblock,
	})
}

func skipAllowblock(p *analysis.Program, n *analysis.FuncNode, cs *analysis.CallSite) bool {
	if Parks(p, cs.Callee) {
		return true
	}
	d, ok := p.DirectiveAt(cs.Pos, AllowBlock)
	return ok && d.Args != ""
}

// Parks reports whether fn is declared the scheduler's sanctioned park: a
// function-level //lhws:parks directive that states its condition.
func Parks(p *analysis.Program, fn *types.Func) bool {
	d, ok := p.FuncDirective(fn, ParksDir)
	return ok && d.Args != ""
}

// scanBlockingSyntax finds the first unescaped syntactic parking
// operation in the node's own body: a channel send/receive, a range
// over a channel, or a select without a default clause. Operations
// inside nested literals or go statements belong to other nodes.
func scanBlockingSyntax(p *analysis.Program, n *analysis.FuncNode) (token.Pos, string, bool) {
	body := nodeBody(n)
	if body == nil {
		return token.NoPos, "", false
	}
	comm := selectCommOps(body)
	var pos token.Pos
	var reason string
	ast.Inspect(body, func(x ast.Node) bool {
		if pos.IsValid() || comm[x] {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			if !escapedBlock(p, x.Pos()) {
				pos, reason = x.Pos(), "channel send"
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !escapedBlock(p, x.Pos()) {
				pos, reason = x.Pos(), "channel receive"
			}
		case *ast.RangeStmt:
			if t := n.Pkg.Info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok && !escapedBlock(p, x.Pos()) {
					pos, reason = x.Pos(), "range over channel"
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, clause := range x.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault && !escapedBlock(p, x.Pos()) {
				pos, reason = x.Pos(), "select without default"
			}
		}
		return !pos.IsValid()
	})
	return pos, reason, pos.IsValid()
}

func escapedBlock(p *analysis.Program, pos token.Pos) bool {
	d, ok := p.DirectiveAt(pos, AllowBlock)
	return ok && d.Args != ""
}

func nodeBody(n *analysis.FuncNode) *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}

// SelectCommOps collects the send/receive operations that appear as a
// select statement's comm clauses under body; the select itself decides
// whether they block, so per-operation checks must skip them.
func SelectCommOps(body ast.Node) map[ast.Node]bool { return selectCommOps(body) }

func selectCommOps(body ast.Node) map[ast.Node]bool {
	commOps := make(map[ast.Node]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		sel, ok := x.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				commOps[comm] = true
			case *ast.ExprStmt:
				commOps[ast.Unparen(comm.X)] = true
			case *ast.AssignStmt:
				for _, rhs := range comm.Rhs {
					commOps[ast.Unparen(rhs)] = true
				}
			}
		}
		return true
	})
	return commOps
}

// netBlockingNames are the package-net functions and methods (on any of
// net's conn/listener types or interfaces) that park the calling
// goroutine for a network round trip.
var netBlockingNames = map[string]bool{
	"Read":         true,
	"Write":        true,
	"Accept":       true,
	"Dial":         true,
	"DialContext":  true,
	"DialTimeout":  true,
	"Listen":       true,
	"ListenPacket": true,
	"ReadFrom":     true,
	"WriteTo":      true,
}

// NetBlockLeaf reports whether fn is an operation that parks the
// goroutine for a network round trip: a package-net call, or
// syscall.RawConn.Read/Write, which wait in the netpoller whenever their
// callback returns false — a property of the callback's body the
// analyzer does not evaluate, so every such call is a leaf and a callback
// that cannot return false is vouched for with //lhws:allowblock.
func NetBlockLeaf(fn *types.Func) (string, bool) {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return "", false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "net":
		if netBlockingNames[name] || strings.HasPrefix(name, "Lookup") {
			return "blocks for a network round trip", true
		}
	case "syscall":
		if k := funcKey(fn); k == "syscall.RawConn.Read" || k == "syscall.RawConn.Write" {
			return "parks in the netpoller whenever its callback returns false", true
		}
	}
	return "", false
}

// NetBlock returns the transitive net-block summary: a function has
// the fact if it can reach a bare package-net call through statically
// resolved calls. Justified //lhws:allowblock sites do not propagate.
func NetBlock(p *analysis.Program) *analysis.FactSet {
	return p.Facts(analysis.FactDef{
		Name:     "netBlock",
		Calls:    NetBlockLeaf,
		SkipCall: skipAllowblock,
	})
}

// TakesCtx reports whether fn's parameters include a task context
// (*runtime.Ctx) — the marker that the function is task code and is
// therefore checked on its own terms rather than at its call sites.
func TakesCtx(fn *types.Func) bool {
	params := fn.Signature().Params()
	for i := 0; i < params.Len(); i++ {
		if IsCtxPtr(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// IsCtxPtr reports whether t is *runtime.Ctx (or an alias of it).
func IsCtxPtr(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	return IsCtxNamed(ptr.Elem())
}

// IsCtxNamed reports whether t is the runtime.Ctx named type itself.
func IsCtxNamed(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Ctx" && obj.Pkg() != nil &&
		(obj.Pkg().Path() == RuntimePath || obj.Pkg().Path() == LhwsPath)
}
