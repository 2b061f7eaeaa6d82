#!/usr/bin/env bash
# coverage.sh — how much of internal/ the behavioural contract reaches.
#
# The contract is the experiment suite (internal/experiments) plus the
# service chaos suite (TestChaos* in internal/service). This runs both
# with -coverpkg=./internal/..., merges the two profiles and prints:
#   - total statement coverage of internal/,
#   - the number of functions neither suite ever enters,
#   - those functions, grouped by package.
# It only reports; it has no threshold. Run from anywhere in the repo:
#   bash scripts/coverage.sh
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go test -count=1 -coverpkg=./internal/... -coverprofile="$tmp/experiments.out" \
	./internal/experiments >/dev/null
go test -count=1 -coverpkg=./internal/... -coverprofile="$tmp/chaos.out" \
	-run TestChaos ./internal/service >/dev/null

# One profile: keep the first "mode:" header, drop the second.
{ cat "$tmp/experiments.out"; tail -n +2 "$tmp/chaos.out"; } >"$tmp/all.out"
go tool cover -func="$tmp/all.out" >"$tmp/func.txt"

# Profile lines are "file:start,end numStmts count"; a block both runs
# report is one block, covered if either run entered it. (The total line
# of `go tool cover -func` would leave out blocks outside any function,
# such as closures in package-level vars.)
awk 'NR > 1 { n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
	END {
		for (b in n) { total += n[b]; if (b in hit) covered += n[b] }
		printf "internal/ statement coverage (experiments + chaos suite): %.1f%% of %d statements\n",
			100 * covered / total, total
	}' "$tmp/all.out"
awk '$1 != "total:" && $NF == "0.0%"' "$tmp/func.txt" >"$tmp/never.txt"
echo "never-entered functions: $(wc -l <"$tmp/never.txt") of $(grep -vc '^total:' "$tmp/func.txt")"
# Lines look like "repro/internal/pkg/file.go:12:<tab>Func<tab>0.0%".
awk '{
	split($1, loc, ":"); file = loc[1]; line = loc[2]
	pkg = file; sub(/\/[^\/]*$/, "", pkg)
	base = file; sub(/^.*\//, "", base)
	print pkg "\t" base ":" line "\t" $2
}' "$tmp/never.txt" | sort -t$'\t' -k1,1 -s | awk -F'\t' '
	$1 != pkg { pkg = $1; print pkg }
	{ print "  " $2 "\t" $3 }'
