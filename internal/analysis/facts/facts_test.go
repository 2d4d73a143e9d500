package facts

import (
	"go/types"
	"strings"
	"testing"

	"lhws/internal/analysis/load"
)

// declared loads the repository packages the seed tables name and
// returns every function and method they declare, in both key forms:
// funcKey (maySuspendLeaves) and FullName (BlockingCalls).
func declared(t *testing.T) map[string]bool {
	t.Helper()
	pkgs, err := load.Load(load.Config{}, LhwsPath, RuntimePath, IOPath,
		"lhws/internal/deque", "lhws/internal/faultpoint")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	add := func(fn *types.Func) {
		keys[funcKey(fn)] = true
		keys[fn.FullName()] = true
	}
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				add(obj)
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						add(named.Method(i))
					}
				}
			}
		}
	}
	return keys
}

// unresolved returns the table's keys into this module that name no
// declared function.
func unresolved(table map[string]string, declared map[string]bool) []string {
	var bad []string
	for k := range table {
		if strings.HasPrefix(strings.TrimLeft(k, "(*"), LhwsPath) && !declared[k] {
			bad = append(bad, k)
		}
	}
	return bad
}

// TestSeedKeysResolve guards the seed tables against renames: a key that
// no longer names a function silently drops out of the coloring.
func TestSeedKeysResolve(t *testing.T) {
	decl := declared(t)
	for name, table := range map[string]map[string]string{
		"maySuspendLeaves": maySuspendLeaves,
		"BlockingCalls":    BlockingCalls,
	} {
		for _, k := range unresolved(table, decl) {
			t.Errorf("%s key %q names no declared function", name, k)
		}
	}
	misspelled := map[string]string{
		RuntimePath + ".Ctx.Latancy":            "",
		"(*lhws/internal/deque.Locked).PopTopp": "",
	}
	if bad := unresolved(misspelled, decl); len(bad) != 2 {
		t.Errorf("misspelled keys reported as %q, want both", bad)
	}
}
