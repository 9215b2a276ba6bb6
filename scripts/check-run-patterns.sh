#!/usr/bin/env bash
# Fails when a `go test -run` or `-bench` pattern in the CI workflow has
# an alternative that matches no test (for -run) or no benchmark (for
# -bench) in the packages of its step: a renamed or deleted one would
# otherwise drop out of CI without a sound. Each alternative is matched,
# as an extended regexp, against the names `go test -list` prints for
# those packages.
#
# Usage: bash scripts/check-run-patterns.sh [workflow]
# (the workflow defaults to .github/workflows/ci.yml)
set -euo pipefail
cd "$(dirname "$0")/.."
wf=${1:-.github/workflows/ci.yml}
status=0

# check FLAG KINDS LINE NAMES: every alternative of LINE's -FLAG pattern
# must match one of NAMES that starts with one of KINDS.
check() {
	local flag=$1 kinds=$2 line=$3 names=$4 pat alt
	pat=$(sed -nE "s/.*-$flag[= ]'([^']*)'.*/\1/p" <<<"$line")
	[[ -z $pat || $pat == '^$' ]] && return 0
	names=$(grep -E "^($kinds)" <<<"$names" || true)
	IFS='|' read -ra alts <<<"$pat"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "$wf: -$flag alternative '$alt' matches nothing of $kinds in ${pkgs[*]}" >&2
			status=1
		fi
	done
}

while IFS= read -r line; do
	read -ra pkgs <<<"$(grep -oE '(^|[[:space:]])\./[^[:space:]]*' <<<"$line" | tr '\n' ' ')"
	names=$(go test -list '.*' "${pkgs[@]}")
	check run 'Test|Example|Fuzz' "$line" "$names"
	check bench 'Benchmark' "$line" "$names"
done < <(grep -E 'go test .*-(run|bench)[= ]' "$wf")
exit $status
