#!/bin/sh
# ROADMAP's tracked number: non-test Go lines per package and in total.
#
# One convention, so successive PRs compare like with like:
#   raw   every line of every *.go file that is not a *_test.go file
#   code  raw minus blank lines and lines holding only a comment
#         (// lines and the inside of /* */ blocks)
# vendor/ and testdata/ are excluded; the root package prints as ".".
# The benchmark module is listed too — it is Go the repo maintains —
# and is simply absent when run from a tree without it.
#
# Usage: sh scripts/loc.sh [DIR]    (DIR defaults to the repo root, so a
# clone of another commit can be counted with the same script)
set -eu
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' \
    ! -path './vendor/*' ! -path '*/testdata/*' ! -path './.bench_build/*' \
| sort \
| while read -r f; do
    awk -v pkg="$(dirname "$f" | sed 's|^\./||')" '
        { raw++ }
        inblock { if (index($0, "*/")) inblock = 0; next }
        /^[ \t]*$/ { next }
        /^[ \t]*\/\// { next }
        /^[ \t]*\/\*/ { if (!index($0, "*/")) inblock = 1; next }
        { code++ }
        END { printf "%s %d %d\n", pkg, raw, code }
    ' "$f"
done \
| awk '
    { raw[$1] += $2; code[$1] += $3 }
    END { for (p in raw) print p, raw[p], code[p] }' \
| sort \
| awk '
    BEGIN { printf "%-28s %8s %8s\n", "package", "raw", "code" }
    { printf "%-28s %8d %8d\n", $1, $2, $3; raw += $2; code += $3 }
    END { printf "%-28s %8d %8d\n", "total", raw, code }'
