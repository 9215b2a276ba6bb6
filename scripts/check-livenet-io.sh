#!/usr/bin/env bash
# Fails when non-test code in internal/livenet does I/O behind the node's
# seam's back: reads the wall clock or sets a timer (time.Now, Since,
# Until, After, AfterFunc, NewTimer, NewTicker, Tick, Sleep), derives a
# context deadline (context.WithTimeout, WithDeadline), registers on the
# shared timer wheel (timerwheel.Default()), or calls the transport's
# send directly (tr.send, tr.enqueue, tr.enqueueBulk). Only the production
# seam (nodeio.go) and the transport below it (transport.go) may; every
# other file goes through the node's nodeIO, so a test can drive a node
# on a virtual clock and an in-memory network. Comments are ignored.
#
# Usage: scripts/check-livenet-io.sh [repo root]   (default: the script's repo)
set -uo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root" || exit 2
pattern='\btime\.(Now|Since|Until|After|AfterFunc|NewTimer|NewTicker|Tick|Sleep)\(|\bcontext\.(WithTimeout|WithDeadline)\(|\btimerwheel\.Default\(\)|\btr\.(send|enqueue|enqueueBulk)\('
fail=0
for f in internal/livenet/*.go; do
	case "$f" in
	*_test.go | internal/livenet/nodeio.go | internal/livenet/transport.go) continue ;;
	esac
	hits=$(sed -E 's://.*$::' "$f" | grep -nE "$pattern")
	if [[ -n "$hits" ]]; then
		while IFS= read -r hit; do
			echo "$f:${hit%%:*}: I/O outside the node's seam: ${hit#*:}" >&2
		done <<< "$hits"
		fail=1
	fi
done
exit $fail
