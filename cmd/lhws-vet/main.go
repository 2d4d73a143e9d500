// Command lhws-vet runs this repository's scheduler-aware static
// analyzers over the named packages (default ./...):
//
//	dequeowner   owner-only deque operations confined to declared owners
//	noblock      no blocking operations in //lhws:nonblocking hot paths
//	suspendcolor no-suspend regions cannot reach a task suspension
//	lockheld     no mutex held across a may-suspend call
//	ctxleak      no task context escapes its task's lifetime
//	atomicpair   no mixed sync/atomic and plain access to one variable
//	rngplumb     no math/rand global state outside internal/rng
//
// The driver loads the full dependency graph and builds a whole-program
// call graph, so suspension and blocking facts propagate across package
// boundaries (see internal/analysis). Flags:
//
//	-json   machine-readable diagnostics on stdout
//	-facts  dump the computed interprocedural fact table
//
// Exit status is 0 when clean, 1 when any analyzer reported a
// diagnostic, and 2 on usage or load errors, so CI can gate on it the
// same way it gates on go vet.
package main

import (
	"lhws/internal/analysis/atomicpair"
	"lhws/internal/analysis/ctxleak"
	"lhws/internal/analysis/dequeowner"
	"lhws/internal/analysis/lockheld"
	"lhws/internal/analysis/multichecker"
	"lhws/internal/analysis/noblock"
	"lhws/internal/analysis/rngplumb"
	"lhws/internal/analysis/suspendcolor"
)

func main() {
	multichecker.Main(
		dequeowner.Analyzer,
		noblock.Analyzer,
		suspendcolor.Analyzer,
		lockheld.Analyzer,
		ctxleak.Analyzer,
		atomicpair.Analyzer,
		rngplumb.Analyzer,
	)
}
