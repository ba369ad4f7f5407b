#!/bin/sh
# The change in ROADMAP's tracked line counts (scripts/loc.sh) between a
# git revision and the working tree: per package whose count moved, and
# in total, the raw and code lines at the revision, in the working tree,
# and the difference — the before/after a CHANGES entry reports. The
# revision is unpacked with git archive into a temporary directory, so
# nothing is fetched; uncommitted edits count on the working-tree side.
#
# Usage: sh scripts/loc-delta.sh [REV]    (REV defaults to HEAD)
set -eu
cd "$(dirname "$0")/.."
rev="${1:-HEAD}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
git archive "$rev" | tar -x -C "$work/tree"
sh scripts/loc.sh "$work/tree" >"$work/before"
sh scripts/loc.sh >"$work/after"

awk -v rev="$rev" '
    FNR == 1 { next }    # the header
    NR == FNR { rb[$1] = $2; cb[$1] = $3; seen[$1] = 1; next }
    { ra[$1] = $2; ca[$1] = $3; seen[$1] = 1 }
    function row(p) {
        return sprintf("%-28s %8d %8d %8d %8d %+8d %+8d", p, rb[p], cb[p], ra[p], ca[p], ra[p] - rb[p], ca[p] - cb[p])
    }
    END {
        printf "%-28s %17s %17s %17s\n", "", "at " rev, "working tree", "delta"
        printf "%-28s %8s %8s %8s %8s %8s %8s\n", "package", "raw", "code", "raw", "code", "raw", "code"
        fflush()
        for (p in seen) {
            if (p != "total" && (ra[p] != rb[p] || ca[p] != cb[p])) {
                print row(p) | "sort"
            }
        }
        close("sort")
        print row("total")
    }' "$work/before" "$work/after"
