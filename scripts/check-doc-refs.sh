#!/usr/bin/env bash
# Fails when DESIGN.md or README.md name, in backticks, a Test…, Fuzz… or
# Benchmark… function that no _test.go declares, a repo path that does
# not exist, or a flag a command does not declare. A path is a backticked token with a slash whose first
# segment is a top-level directory of the repo (checked from the root) or
# a package directory under internal/ (checked there); other slashed
# tokens (math/rand, testing/quick) are not paths of this repo. A path may
# be a glob (bench/BENCH_scale-*.baseline.json), which must match a file,
# or a numbered range (results/pr38…pr42_plan_rounds.jsonl), whose two
# ends must exist; a Go package pattern (./internal/chaos/...) names its
# root directory. A test name may carry a subtest (TestX/case); the
# function TestX is what is checked. A backticked span that opens with a
# command of cmd/ and a flag (`p2pnode -stats 5s`, `p2pbench -plan
# scale-1k`) names each of its -flags, which cmd/<command> must declare
# through the flag package. A backticked snake_case token in one of the
# counter families of internal/livenet/counters.go (transport_…,
# transfer_…, query_…, fetch_…: the first word of any stat: tag) must be
# a key Node.Stats shows — a stat: tag or a gauge Stats() sets — unless
# it is a BENCHMARK.json workload name or a harness total
# (internal/harness), whose names share those prefixes.
#
# Usage: scripts/check-doc-refs.sh [repo root]   (default: the script's repo)
set -uo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root" || exit 2
docs=(DESIGN.md README.md)
fail=0

missing() {
	echo "$1: $2 names $3, $4" >&2
	fail=1
}

# exists PATH: the file or directory exists, the glob matches, or both
# ends of a numbered range exist.
exists() {
	local p="$1"
	if [[ "$p" == *…* ]]; then
		local head="${p%%…*}" tail="${p#*…}"
		local lo="${head##*[!0-9]}"
		local stem="${head%"$lo"}"
		tail="${tail#"${stem##*/}"}" # the far end repeats the stem's last segment
		local hi="${tail%%[!0-9]*}"
		local rest="${tail#"$hi"}"
		[[ -n "$lo" && -n "$hi" && -e "$stem$lo$rest" && -e "$stem$hi$rest" ]]
		return
	fi
	if [[ "$p" == *[*?]* ]]; then
		compgen -G "$p" > /dev/null
		return
	fi
	[[ -e "$p" ]]
}

tests=$(find . -name '*_test.go' -not -path './.git/*' -print0 |
	xargs -0 grep -ohE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*\(' |
	sed -E 's/^func //; s/\($//' | sort -u)

stats=$(grep -ohE 'stat:"[a-z0-9_]+"' internal/livenet/counters.go | sed -E 's/^stat:"//; s/"$//')
families=$(sed -E 's/_.*//' <<< "$stats" | sort -u | paste -sd'|')
stats+=$'\n'$(grep -ohE '\bs\["[a-z0-9_]+"\] =' internal/livenet/*.go | sed -E 's/^s\["//; s/"\] =$//')
workloads=$(awk '/"workloads":/ { on = 1 } on && /^  \]/ { on = 0 }
	on && match($0, /"name": "[^"]+"/) { s = substr($0, RSTART, RLENGTH); sub(/^"name": "/, "", s); sub(/"$/, "", s); print s }' BENCHMARK.json)
totals=$(find internal/harness -maxdepth 1 -name '*.go' -not -name '*_test.go' -print0 |
	xargs -0 grep -ohE '(Metric: *"[a-z0-9_]+"|Totals\["[a-z0-9_]+"\]|"[a-z0-9_]+": )' |
	grep -oE '"[a-z0-9_]+"' | tr -d '"')
known=$(printf '%s\n' "$stats" "$workloads" "$totals" | sort -u)

for doc in "${docs[@]}"; do
	while IFS=: read -r line tok; do
		tok="${tok#\`}"
		tok="${tok%\`}"
		case "$tok" in
		Test[A-Z0-9_]* | Fuzz[A-Z0-9_]* | Benchmark[A-Z0-9_]*)
			fn="${tok%%/*}"
			[[ "$fn" =~ ^[A-Za-z0-9_]+$ ]] || continue
			grep -qxF "$fn" <<< "$tests" || missing "$doc:$line" "a test function" "$fn" "which no _test.go declares"
			;;
		*/*)
			[[ "$tok" =~ ^[A-Za-z0-9_.*…/-]+$ ]] || continue
			tok="${tok#./}"
			tok="${tok%/...}" # a Go package pattern names its root
			first="${tok%%/*}"
			if [[ -d "$first" ]]; then
				exists "$tok" || missing "$doc:$line" "a path" "$tok" "which does not exist"
			elif [[ -d "internal/$first" ]]; then
				exists "internal/$tok" || missing "$doc:$line" "a path" "$tok" "which internal/ does not hold"
			fi
			;;
		*_*)
			[[ "$tok" =~ ^($families)_[a-z0-9_]+$ ]] || continue
			grep -qxF "$tok" <<< "$known" || missing "$doc:$line" "a counter" "$tok" "which no stat: tag or Stats() gauge declares"
			;;
		esac
	done < <(grep -noE '`[^`[:space:]]+`' "$doc")

	# Backticked spans, which may wrap, with the line each opens on.
	while IFS=: read -r line cmd rest; do
		declared=$(grep -ohE 'flag\.[A-Za-z0-9]+\((&[^,]+, *)?"[^"]+"' cmd/"$cmd"/*.go |
			sed -E 's/.*"([^"]+)"$/\1/')
		for f in $(grep -oE '(^|[[:space:]])--?[A-Za-z][A-Za-z0-9-]*' <<< " $rest" | sed -E 's/^[[:space:]]*-+//'); do
			grep -qxF "$f" <<< "$declared" || missing "$doc:$line" "a flag" "$cmd -$f" "which cmd/$cmd does not declare"
		done
	done < <(awk -v RS='`' '{ nl = gsub(/\n/, "&") }
		NR % 2 == 0 && match($0, /^(p2pnode|p2pbench|p2psim|experiments|maxfair) -/) {
			split($0, w, " "); sub(/^[^ ]+ /, ""); gsub(/\n/, " "); print line + 1 ":" w[1] ":" $0
		} { line += nl }' "$doc")
done
exit $fail
