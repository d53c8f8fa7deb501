#!/usr/bin/env bash
# Usage: bash .github/coverage-floor.sh OUTPUT
#
# OUTPUT is what `go test -cover ./...` printed. Fails when an internal/*
# package listed in .github/COVERAGE.txt reports no coverage, or reports
# more than 0.5 points below its floor there. Prints every package's
# reading against its floor.
set -euo pipefail
floors=$(dirname "$0")/COVERAGE.txt
status=0
report=$(awk '
  FNR == NR { if ($1 !~ /^#/ && NF == 2) floor[$1] = $2 + 0; next }
  /coverage: [0-9.]+% of statements/ {
    pkg = ""; pct = ""
    for (i = 1; i <= NF; i++) {
      if ($i ~ /^dropzero\/internal\//) pkg = substr($i, length("dropzero/") + 1)
      if ($i == "coverage:") pct = $(i + 1)
    }
    sub(/%$/, "", pct)
    if (pkg in floor) got[pkg] = pct + 0
  }
  END {
    bad = 0
    for (p in floor) {
      if (!(p in got)) { printf "%-24s   none (floor %5.1f%%) MISSING\n", p, floor[p]; bad = 1; continue }
      low = got[p] < floor[p] - 0.5
      printf "%-24s %5.1f%% (floor %5.1f%%)%s\n", p, got[p], floor[p], low ? " BELOW FLOOR" : ""
      if (low) bad = 1
    }
    exit bad
  }' "$floors" "$1") || status=$?
sort <<<"$report"
exit "$status"
