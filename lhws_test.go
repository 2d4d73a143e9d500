package lhws_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"lhws"
)

func TestMain(m *testing.M) {
	if goruntime.GOMAXPROCS(0) < 4 {
		goruntime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

// buildFigure1 builds the paper's Figure-1 dag through the public facade.
func buildFigure1(delta int64) *lhws.Graph {
	b := lhws.NewDAGBuilder()
	fork := b.Vertex("fork")
	mul := b.Vertex("mul")
	input := b.Vertex("input")
	double := b.Vertex("double")
	add := b.Vertex("add")
	b.Light(fork, mul)
	b.Light(fork, input)
	b.Heavy(input, double, delta)
	b.Light(mul, add)
	b.Light(double, add)
	return b.MustGraph()
}

func TestPublicDAGMetrics(t *testing.T) {
	g := buildFigure1(10)
	if g.Work() != 5 || g.Span() != 13 || g.SuspensionWidth() != 1 {
		t.Fatalf("metrics: W=%d S=%d U=%d", g.Work(), g.Span(), g.SuspensionWidth())
	}
}

func TestPublicSchedulers(t *testing.T) {
	g := buildFigure1(10)
	lh, err := lhws.RunLHWS(g, lhws.SchedOptions{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := lhws.RunWS(g, lhws.SchedOptions{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := lhws.RunGreedy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*lhws.SchedResult{"lhws": lh, "ws": ws, "greedy": gr} {
		if r.Stats.UserWork != g.Work() {
			t.Errorf("%s: executed %d of %d vertices", name, r.Stats.UserWork, g.Work())
		}
	}
	if gr.Stats.Rounds > lhws.GreedyBound(g, 2) {
		t.Errorf("greedy exceeded Theorem-1 bound")
	}
}

func TestPublicWorkloads(t *testing.T) {
	cases := []*lhws.Workload{
		lhws.MapReduce(lhws.MapReduceConfig{N: 8, Delta: 10, FibWork: 3}),
		lhws.Server(lhws.ServerConfig{Requests: 4, Delta: 10, FibWork: 3}),
		lhws.Fib(8),
		lhws.Pipeline(lhws.PipelineConfig{Items: 3, Stages: 2, StageWork: 2, Delta: 5}),
		lhws.RandomDAG(lhws.RandomConfig{Seed: 1, TargetVertices: 40, PHeavy: 0.3, MaxDelta: 9}),
	}
	for _, w := range cases {
		if err := w.G.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if _, err := lhws.RunLHWS(w.G, lhws.SchedOptions{Workers: 3, Seed: 2}); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestPublicStealPolicies(t *testing.T) {
	g := lhws.MapReduce(lhws.MapReduceConfig{N: 16, Delta: 20, FibWork: 3}).G
	for _, p := range []lhws.StealPolicy{lhws.StealRandomDeque, lhws.StealWorkerThenDeque} {
		if _, err := lhws.RunLHWS(g, lhws.SchedOptions{Workers: 4, Seed: 3, Policy: p}); err != nil {
			t.Errorf("policy %v: %v", p, err)
		}
	}
}

func TestPublicRuntime(t *testing.T) {
	for _, mode := range []lhws.RuntimeMode{lhws.LatencyHiding, lhws.Blocking} {
		var sum int64
		st, err := lhws.RunTasks(lhws.RuntimeConfig{Workers: 2, Mode: mode}, func(c *lhws.Ctx) {
			v := lhws.SpawnValue(c, func(cc *lhws.Ctx) int64 {
				cc.Latency(time.Millisecond)
				return 21
			})
			sum = 21 + v.Await(c)
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum != 42 {
			t.Fatalf("%v: sum = %d", mode, sum)
		}
		if st.TasksSpawned != 2 {
			t.Errorf("%v: spawned %d tasks, want 2", mode, st.TasksSpawned)
		}
	}
}

func TestPublicChan(t *testing.T) {
	var got []int
	_, err := lhws.RunTasks(lhws.RuntimeConfig{Workers: 2, Mode: lhws.LatencyHiding}, func(c *lhws.Ctx) {
		ch := lhws.NewChan[int](4)
		f := c.Spawn(func(cc *lhws.Ctx) {
			for i := 0; i < 10; i++ {
				ch.Send(cc, i)
			}
		})
		for i := 0; i < 10; i++ {
			got = append(got, ch.Recv(c))
		}
		f.Await(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestPublicVariantsExposed(t *testing.T) {
	g := lhws.Server(lhws.ServerConfig{Requests: 5, Delta: 10, FibWork: 2}).G
	if _, err := lhws.RunLHWS(g, lhws.SchedOptions{Workers: 2, Seed: 1, CheckInvariants: true}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicParallelFor(t *testing.T) {
	var sum int64
	_, err := lhws.RunTasks(lhws.RuntimeConfig{Workers: 2, Mode: lhws.LatencyHiding}, func(c *lhws.Ctx) {
		var acc [32]int64
		lhws.For(c, 0, 32, 4, func(cc *lhws.Ctx, i int) {
			acc[i] = int64(i)
		})
		for _, v := range acc {
			sum += v
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 496 {
		t.Fatalf("sum = %d, want 496", sum)
	}
}

func TestPublicResilience(t *testing.T) {
	// Per-subtree deadline: the slow child times out with the typed
	// error, the rest of the run is unaffected.
	_, err := lhws.RunTasks(lhws.RuntimeConfig{Workers: 2}, func(c *lhws.Ctx) {
		cc, cancel := c.WithDeadline(10 * time.Millisecond)
		defer cancel()
		slow := lhws.SpawnValue(cc, func(c2 *lhws.Ctx) int {
			c2.Latency(10 * time.Second)
			return 1
		})
		if _, aerr := slow.AwaitErr(c); !errors.Is(aerr, lhws.ErrDeadline) {
			t.Errorf("AwaitErr = %v, want lhws.ErrDeadline", aerr)
		}
	})
	if err != nil {
		t.Fatalf("RunTasks: %v", err)
	}

	// Chan close flows through the facade aliases.
	_, err = lhws.RunTasks(lhws.RuntimeConfig{Workers: 2}, func(c *lhws.Ctx) {
		ch := lhws.NewChan[int](0)
		ch.Send(c, 5)
		ch.Close()
		if v, ok := ch.RecvOK(c); !ok || v != 5 {
			t.Errorf("RecvOK = (%d, %v), want (5, true)", v, ok)
		}
		if _, ok := ch.RecvOK(c); ok {
			t.Errorf("RecvOK on drained closed chan reported ok")
		}
	})
	if err != nil {
		t.Fatalf("RunTasks: %v", err)
	}
}

// facade parses the package's non-test files and returns the names it
// exports and the names its exported functions' signatures mention.
func facade(t *testing.T) (exported, inSignatures map[string]bool) {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	exported, inSignatures = map[string]bool{}, map[string]bool{}
	add := func(id *ast.Ident) {
		if id.IsExported() {
			exported[id.Name] = true
		}
	}
	for _, f := range pkgs["lhws"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name)
				ast.Inspect(d.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						inSignatures[id.Name] = true
					}
					return true
				})
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						add(sp.Name)
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	return exported, inSignatures
}

var qualified = regexp.MustCompile(`\blhws\.([A-Z][A-Za-z0-9_]*)`)

// namesIn returns every lhws.Name that the files mention.
func namesIn(t *testing.T, files ...string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range qualified.FindAllSubmatch(b, -1) {
			names[string(m[1])] = true
		}
	}
	return names
}

// TestREADMENamesExported keeps README.md compiled in spirit: every
// lhws.Name in its code blocks and prose is exported by the package.
func TestREADMENamesExported(t *testing.T) {
	exported, _ := facade(t)
	for name := range namesIn(t, "README.md") {
		if !exported[name] {
			t.Errorf("README.md names lhws.%s, which the package does not export", name)
		}
	}
}

// TestFacadeNamesUsed is the facade's rule: an exported name stays only
// if README.md or a root test or example names it, or a kept function's
// signature needs it.
func TestFacadeNamesUsed(t *testing.T) {
	exported, inSignatures := facade(t)
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	used := namesIn(t, append(tests, "README.md")...)
	for name := range exported {
		if !used[name] && !inSignatures[name] {
			t.Errorf("lhws.%s is named by no example, test or README line, nor by a kept signature", name)
		}
	}
}
