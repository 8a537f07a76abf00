#!/usr/bin/env bash
# Go line counts outside benchmark/ (its own module): non-test and test
# lines (wc -l) per package directory and in total. ROADMAP's standing
# constraint asks every PR for its non-test line delta; run this on the
# parent commit and on the change and paste both.
#
# Usage: scripts/loc.sh [dir]   (default: the repository root)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

printf '%-40s %9s %9s\n' package non-test test
find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 |
  xargs -0 wc -l |
  awk '$2 != "total" {
      file = $2; sub(/^\.\//, "", file)
      dir = file; if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
      if (file ~ /_test\.go$/) test[dir] += $1; else code[dir] += $1
      seen[dir] = 1
    }
    END { for (d in seen) printf "%-40s %9d %9d\n", d, code[d], test[d] }' |
  sort |
  awk '{ print; code += $2; test += $3 }
    END { printf "%-40s %9d %9d\n", "total", code, test }'
