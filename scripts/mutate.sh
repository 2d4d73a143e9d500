#!/usr/bin/env bash
# mutate.sh is the mutation audit of the CI gates: which gate catches
# which kind of bug (EXPERIMENTS.md, "Which gate catches what").
#
#   scripts/mutate.sh -check
#       git apply --check every mutant under scripts/mutants against the
#       working tree; fails if any no longer applies (a `make ci` step).
#   scripts/mutate.sh [-o table.md] [mutant.patch ...]
#       audit: copy the tree to a throwaway directory, then for the
#       unmutated copy (the baseline row) and for each mutant (default:
#       all of scripts/mutants/*.patch) apply it, run every gate to the
#       end, and print one markdown row.
#
# The gates, in `make ci` order: go vet, tier-1 (go build ./... && go
# test ./...), make race-core, make chaos and make fuzz-sim. A mutant
# must compile; one that does not is reported and counts as no row.
#
# Every gate but go vet is nondeterministic (-race schedules, seeded
# chaos on a loaded host, fuzzing, wall-clock tests), so a kill by one of
# them is re-run, and it counts only if both runs kill. Cells: K killed,
# . survived, 1/2 killed on one run of two (not counted). A test that
# hangs past the per-binary timeout (GOFLAGS=-timeout, default 180s)
# fails, so a hang is a kill. The first-kill cell names the gate and the
# first test its log reports failing.
#
# The tree itself is never touched: mutants are applied to the copy,
# which is deleted afterwards; the gates' logs are kept beside it.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
mutdir=$root/scripts/mutants

if [ "${1:-}" = "-check" ]; then
	rc=0
	for p in "$mutdir"/*.patch; do
		if ! git -C "$root" apply --check "$p" 2>/dev/null; then
			echo "mutant no longer applies: ${p#"$root"/}" >&2
			rc=1
		fi
	done
	[ $rc -eq 0 ] && echo "$(ls "$mutdir"/*.patch | wc -l) mutants apply"
	exit $rc
fi

out=/dev/stdout
while [ $# -gt 0 ]; do
	case $1 in
	-o) out=$2; shift 2 ;;
	-*) echo "usage: $0 -check | [-o table.md] [mutant.patch ...]" >&2; exit 2 ;;
	*) break ;;
	esac
done
if [ $# -eq 0 ]; then
	set -- "$mutdir"/*.patch
fi
patches=()
for p in "$@"; do patches+=("$(cd "$(dirname "$p")" && pwd)/$(basename "$p")"); done

work=$(mktemp -d "${TMPDIR:-/tmp}/lhws-mutate.XXXXXX")
logs=$work.logs
mkdir -p "$logs"
trap 'rm -rf "$work"' EXIT

# The copy is the working tree as git sees it (tracked and untracked,
# ignored files left out), committed so each mutant can be reverted.
(cd "$root" && git ls-files -z -co --exclude-standard | tar --null -T - --ignore-failed-read -cf -) | tar -xf - -C "$work"
cd "$work"
git init -q
git add -A
git -c user.name=mutate -c user.email=mutate@localhost commit -qm base

gates="go-vet tier-1 race-core chaos fuzz-sim"
export GOFLAGS=-timeout=${MUTATE_TEST_TIMEOUT:-180s}

# gate runs one gate on the copy; its status is the gate's verdict (0
# pass, else kill).
gate() {
	case $1 in
	go-vet) go vet ./... ;;
	tier-1) GOFLAGS= go build ./... && go test ./... ;;
	race-core) make -s race-core ;;
	chaos) make -s chaos ;;
	fuzz-sim) make -s fuzz-sim ;;
	esac
}

header="| mutant |"
sep="|---|"
for g in $gates; do header+=" $g |"; sep+="---|"; done
header+=" first kill | time to kill (s) | wall (s) |"
sep+="---|---|---|"
{
	echo "$header"
	echo "$sep"
} >"$out"

# audit <name> [patch]: one row.
audit() {
	local name=$1 patch=${2:-} t0 t1 st tst first="" ttk="" elapsed=0 row cells=""
	git checkout -q -- . && git clean -fdxq
	if [ -n "$patch" ] && ! git apply "$patch" 2>"$logs/$name.apply"; then
		echo "| $name | does not apply |" >>"$out"
		return
	fi
	t0=$(date +%s)
	if ! GOFLAGS= go build ./... >"$logs/$name.build" 2>&1 || ! go test -run '^$' ./... >>"$logs/$name.build" 2>&1; then
		echo "| $name | does not compile |" >>"$out"
		return
	fi
	for g in $gates; do
		t1=$(date +%s)
		st=0
		gate "$g" >"$logs/$name.$g.1" 2>&1 || st=$?
		elapsed=$((elapsed + $(date +%s) - t1))
		if [ $st -eq 0 ]; then
			cells+=" . |"
			continue
		fi
		# go vet is deterministic; any other kill must repeat.
		if [ "$g" = go-vet ] || ! gate "$g" >"$logs/$name.$g.2" 2>&1; then
			cells+=" K |"
			if [ -z "$first" ]; then
				tst=$(grep -m1 -o -- '--- FAIL: [^ ]*' "$logs/$name.$g.1" | cut -d' ' -f3 || true)
				first="$g${tst:+ $tst}"
				ttk=$elapsed
			fi
		else
			cells+=" 1/2 |"
		fi
	done
	[ -n "$patch" ] || [ -n "$first" ] || first=passes
	row="| $name |$cells ${first:-survivor} | ${ttk:--} | $(($(date +%s) - t0)) |"
	echo "$row" >>"$out"
	[ "$out" = /dev/stdout ] || echo "$row" >&2
}

audit baseline
for p in "${patches[@]}"; do
	audit "$(basename "$p" .patch)" "$p"
done
echo "logs: $logs" >&2
