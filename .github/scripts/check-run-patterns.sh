#!/usr/bin/env bash
# Fails when a workflow step's `go test -run '<a>|<b>|...' <pkg>`
# names an alternative that matches no test, example or fuzz target
# in that package: a renamed test would otherwise drop out of its step
# without failing anything. Steps whose -run pattern is unquoted (the
# `-run xxx` benchmark and fuzz steps, which match nothing on purpose)
# are skipped.
#
# Usage: bash .github/scripts/check-run-patterns.sh [workflow.yml]
set -euo pipefail
wf="${1:-.github/workflows/ci.yml}"
fail=0
checked=0
while IFS= read -r line; do
	pattern="$(sed -E "s/.*-run '([^']+)'.*/\1/" <<<"$line")"
	pkg="$(awk '{print $NF}' <<<"$line")"
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		checked=$((checked + 1))
		listed="$(go test -list "$alt" "$pkg")"
		if ! grep -qE '^(Test|Example|Fuzz)' <<<"$listed"; then
			echo "::error file=$wf::-run alternative '$alt' matches no test in $pkg"
			fail=1
		fi
	done
done < <(grep -E "^[[:space:]]*run: go test .*-run '[^']+'" "$wf")
echo "checked $checked -run alternatives in $wf"
exit "$fail"
