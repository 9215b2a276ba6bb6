#!/usr/bin/env bash
# Fails when a `go test -run` pattern in the CI workflow has an
# alternative that matches no test in the packages of its step: a renamed
# or deleted test would otherwise drop out of CI without a sound. Each
# alternative is matched, as an extended regexp, against the test names
# `go test -list` prints for those packages.
#
# Usage: bash scripts/check-run-patterns.sh [workflow]
# (the workflow defaults to .github/workflows/ci.yml)
set -euo pipefail
cd "$(dirname "$0")/.."
wf=${1:-.github/workflows/ci.yml}
status=0
while IFS= read -r line; do
	pat=$(sed -nE "s/.*-run[= ]'([^']*)'.*/\1/p" <<<"$line")
	[[ -z $pat || $pat == '^$' ]] && continue
	read -ra pkgs <<<"$(grep -oE '(^|[[:space:]])\./[^[:space:]]*' <<<"$line" | tr '\n' ' ')"
	names=$(go test -list '.*' "${pkgs[@]}" | grep -E '^(Test|Example|Fuzz)' || true)
	IFS='|' read -ra alts <<<"$pat"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "$wf: -run alternative '$alt' matches no test in ${pkgs[*]}" >&2
			status=1
		fi
	done
done < <(grep -E 'go test .*-run' "$wf")
exit $status
