// Command lhws-vet runs this repository's scheduler-aware static
// analyzers over the named packages (default ./...):
//
//	noblock      no blocking operations in //lhws:nonblocking hot paths
//	suspendcolor no-suspend regions cannot reach a task suspension
//	ctxleak      no task context escapes its task's lifetime
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
	"lhws/internal/analysis"
	"lhws/internal/analysis/ctxleak"
	"lhws/internal/analysis/multichecker"
	"lhws/internal/analysis/noblock"
	"lhws/internal/analysis/suspendcolor"
)

// analyzers are the registered analyzers.
var analyzers = []*analysis.Analyzer{
	noblock.Analyzer,
	suspendcolor.Analyzer,
	ctxleak.Analyzer,
}

func main() { multichecker.Main(analyzers...) }
