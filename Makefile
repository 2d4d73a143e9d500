GO ?= go

# Core packages whose hot paths the race/vet gates guard.
CORE := ./internal/deque/... ./internal/runtime/... ./internal/sched/...

.PHONY: all build cross-build test race race-core race-repeat vet lint chaos fuzz-sim bench-runtime bench-goodput bench-goodput-smoke bench-smoke bench-repo-smoke mutants-check ci figures clean

all: build

build:
	$(GO) build ./...

# cross-build compiles for GOOS other than linux (std only, offline), so
# that internal/io's non-linux stub of the raw writev cannot rot.
cross-build:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows $(GO) build ./internal/io/...

test:
	$(GO) test ./...

# Race-detector sweep. The full ./... sweep is the CI gate; the CORE subset
# is the quick local loop.
race:
	$(GO) test -race -count=1 ./...

race-core:
	$(GO) test -race -count=1 $(CORE)
	$(MAKE) --no-print-directory race-repeat

# race-repeat runs the tests whose interleavings vary most from run to run
# five more times under -race. The recycling tests: under -race sync.Pool
# drops items at random, so a test that passes only when the pool happens
# to return an object fails here instead of flaking in CI. The cancel and
# watchdog tests ride along: a cancel detaching a scope's wait list races
# the waits unlinking themselves. So do the Blocking-mode tests, whose
# waits run on the same reference-counted, pooled waiters. So do the
# coroutine tests: a shell's coroutine is switched into by one worker
# goroutine and back in by another, and stopped by Run from a third. The
# deque's concurrent tests are the evidence for batched steals, whose
# single-item pops other thieves and the owner may interleave.
race-repeat:
	$(GO) test -race -count=5 -run 'Pool|Recycled|TestAllocs|Cancel|Watchdog|Blocking|Coroutine' ./internal/runtime/
	$(GO) test -race -count=5 -run Concurrent ./internal/deque/

vet:
	$(GO) vet ./...

# lint is the formatting gate: fails if any file needs gofmt.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# chaos runs the fault-injection suite under the race detector: every
# scheduler fault point (failed steals, dropped/delayed/duplicated task
# wakeups and worker wakes, injected panics) at seeded rates, replayed
# over the fixed seeds baked into the tests. Runs must produce correct
# results or typed errors with watchdog diagnostics — never hang (see
# DESIGN.md §7).
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' -v ./internal/runtime/ ./internal/io/

# fuzz-sim fuzzes the simulated schedulers for 20 s. LHWS and WS run on
# one engine, so FuzzSchedulersAgree is the differential check between
# them; plain `go test` runs only its seed corpus.
fuzz-sim:
	$(GO) test ./internal/sched -run '^$$' -fuzz=FuzzSchedulersAgree -fuzztime=20s

# bench-runtime prints the hot-path microbenchmarks (ns/op + allocs/op;
# see EXPERIMENTS.md "Runtime overheads"). A local profile, not a record:
# speed claims go through the repo benchmark (BENCHMARK.json).
bench-runtime:
	$(GO) test -run '^$$' -bench 'SpawnAwaitLadder|SpawnValue|MapReduce|WideFanout|StealHeavySkew|ResumeStorm' -benchmem -benchtime 1s ./internal/runtime/

# bench-goodput regenerates the overload-robustness record
# (BENCH_goodput.json): at 4x offered load the shedding server's
# admitted goodput must stay >= 70% of its 1x value while the
# no-shedding baseline collapses below that line (see EXPERIMENTS.md
# "Goodput under overload").
bench-goodput:
	$(GO) run ./cmd/lhws-bench -exp goodput

# bench-goodput-smoke is the CI form: a tiny load (2 workers, 400ms
# rows, 1x/4x only) gated only on "shedding does not collapse"; no JSON
# is written, so the checked-in record stays a quiet-machine artifact.
bench-goodput-smoke:
	$(GO) run ./cmd/lhws-bench -exp goodput -goodsmoke

# bench-smoke is the CI form: every benchmark in every package (the root
# package's Figure-11 panels and theorem runs included) runs once, and
# the TestAllocs gates assert the pooled hot paths stay allocation-free
# at steady state (at P=1 under AllocsPerRun, at P=4 for the fan-out and
# steal-skew shapes, and for the io data plane with 1 024 connections in
# flight). No timing thresholds — CI boxes are too noisy for ns/op gates;
# speed is judged by the repo benchmark.
bench-smoke:
	$(GO) test -run '^$$' -bench '.' -benchtime 1x ./...
	$(GO) test -run 'TestAllocs' -count=1 ./internal/runtime/ ./internal/io/

# bench-repo-smoke runs the repo benchmark's own tests (benchmark/ is a
# nested module, invisible to the root `go test ./...`): metric arithmetic,
# BENCHMARK.json matching the code's declarations, and a 300 ms pass of all
# four workloads in both phases with their oracles on.
bench-repo-smoke:
	cd benchmark && $(GO) test ./...

# mutants-check fails if a mutant of the gate audit (scripts/mutants,
# EXPERIMENTS.md "Which gate catches what") no longer applies to the
# tree, so a refactor cannot silently shrink the audit. The audit itself
# (scripts/mutate.sh with no flag) takes about 2 min per mutant.
mutants-check:
	bash scripts/mutate.sh -check

# ci mirrors .github/workflows/ci.yml.
ci: build cross-build lint mutants-check vet test race race-repeat chaos fuzz-sim bench-smoke bench-goodput-smoke bench-repo-smoke

figures:
	$(GO) run ./cmd/lhws-bench -exp fig11 -svg figures

clean:
	$(GO) clean ./...
