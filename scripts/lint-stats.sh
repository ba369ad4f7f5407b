#!/bin/sh
# Escape-hatch inventory for the whatiflint suite.
#
# Default mode lists every //lint: directive in the tree with its
# location and reason, then a per-rule count — the reviewable record of
# where the lint gate has been waived and why. With --check it only
# enforces the contract: markers (hotpath, monotonic) declare analyzer
# scope and need no reason, justification directives (coldfmt,
# hotpathok, semdefault, ctxok, lockok, wallclock, pairok) suppress a
# diagnostic and must say why. A reasonless justification fails the
# script, and so does any other directive name: no analyzer reads it,
# so it would silence nothing. verify.sh runs the --check mode.
#
# vendor/ and testdata/ are excluded (testdata deliberately contains
# bare directives to test the "needs a reason" diagnostics), as are
# internal/lint's own sources, whose doc comments and diagnostic
# strings quote directive syntax.
set -eu
cd "$(dirname "$0")/.."

mode="${1:-list}"

find . -name '*.go' \
    ! -path './vendor/*' ! -path '*/testdata/*' ! -path './internal/lint/*' \
    -exec grep -Hn '//lint:' {} + \
| awk -v mode="$mode" '
    BEGIN {
        n = split("coldfmt hotpathok semdefault ctxok lockok wallclock pairok", j, " ")
        for (i = 1; i <= n; i++) just[j[i]] = 1
        mark["hotpath"] = mark["monotonic"] = 1
    }
    {
        split($0, p, ":")
        loc = substr(p[1], 3) ":" p[2]
        d = substr($0, index($0, "//lint:") + 7)
        rule = d
        sub(/[^a-z].*/, "", rule)
        reason = substr(d, length(rule) + 1)
        gsub(/^[ \t]+|[ \t\r]+$/, "", reason)
        count[rule]++
        if (mode != "--check") printf "%-11s %-34s %s\n", rule, loc, reason
        if (!(rule in just) && !(rule in mark)) {
            bad++
            printf "lint-stats: unknown directive //lint:%s at %s\n", rule, loc
        } else if ((rule in just) && reason == "") {
            bad++
            printf "lint-stats: reasonless //lint:%s at %s\n", rule, loc
        }
    }
    END {
        if (mode != "--check") {
            print ""
            for (r in count) printf "%4d  //lint:%s\n", count[r], r
        }
        if (bad > 0) {
            printf "lint-stats: %d unknown or reasonless directive(s)\n", bad
            exit 1
        }
    }
'
