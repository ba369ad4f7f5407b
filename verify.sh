#!/bin/sh
# Tier-1 verification gate. Every PR must leave this green.
set -eu

# stage NAME CMD...: run one gate stage and report its wall-clock
# seconds, so regressions in the gate itself (a slow analyzer, a test
# blow-up) are visible in CI logs without re-running under time(1).
stage() {
    stage_name="$1"; shift
    echo ">> $stage_name"
    stage_t0=$(date +%s)
    "$@"
    echo "   [$(( $(date +%s) - stage_t0 ))s] $stage_name"
}

# gofmt: every Go file outside vendor/ (and the benchmark's build
# directory) is formatted; any file name printed fails the gate.
gofmt_gate() {
    unformatted=$(find . \( -path ./vendor -o -path ./.bench_build \) -prune -o -name '*.go' -print | xargs gofmt -l)
    if [ -n "$unformatted" ]; then
        echo "verify: not gofmt-clean:"
        echo "$unformatted"
        return 1
    fi
}
stage 'gofmt -l' gofmt_gate

stage 'go vet ./...' go vet ./...

# whatiflint: the repo's own go/analysis suite of six analyzers
# (internal/lint), run through go vet's -vettool protocol so findings
# arrive per package with file:line positions. It machine-checks the invariants verify.sh used
# to grep for and several it never could:
#   hotpathfmt    - no fmt/reflect/log on declared hot-path files
#                   (internal/trace/trace.go, internal/core/exec.go,
#                   internal/core/project.go,
#                   internal/chunk/overlay.go, internal/chunk/chain.go,
#                   internal/chunk/run.go, internal/obs/retain.go,
#                   and the //lint:hotpath-marked
#                   internal/server/counters.go), including transitively
#                   re-exported formatting and per-call errors.New
#   semexhaustive - switches over the five query semantics (paper §3)
#                   and the eval mode must cover every constant
#   ctxflow       - library code threads the caller's context; chunk-
#                   read loops must be cancellable
#   lockguard     - no blocking calls (disk, segment, obs sinks) while
#                   chunk-store mutexes are held
#   monotonic     - span-recording paths stay on the monotonic clock
#   releasepair   - every acquire (Lock, Pin, span Start, NewLayer, Lease)
#                   is released on every path, including early
#                   returns and panics
# Each diagnostic names the rule and the fix; escape hatches are
# reviewable //lint: directives carrying a reason (see DESIGN.md).
whatiflint_gate() {
    WHATIFLINT="${TMPDIR:-/tmp}/whatiflint.$$"
    go build -o "$WHATIFLINT" ./cmd/whatiflint
    go vet -vettool="$WHATIFLINT" ./...
    rm -f "$WHATIFLINT"
}
stage 'whatiflint (go vet -vettool)' whatiflint_gate

# Every justification directive must carry a reason; the analyzers
# enforce this only where a diagnostic would have fired, the audit
# enforces it everywhere. `sh scripts/lint-stats.sh` (no flag) prints
# the full escape-hatch inventory with per-rule counts.
stage 'lint directive audit' sh scripts/lint-stats.sh --check

stage 'go build ./...' go build ./...

# The examples are the first programs a reader runs: build each one and
# run it, so an example that panics or exits non-zero fails the gate
# (its output is printed then). All four finish in well under a second.
examples_run() {
    exdir="${TMPDIR:-/tmp}/whatif-examples.$$"
    mkdir -p "$exdir"
    for d in examples/*/; do
        name=$(basename "$d")
        go build -o "$exdir/$name" "./$d"
        if ! "$exdir/$name" >"$exdir/$name.out" 2>&1; then
            echo "verify: example $name failed:"
            cat "$exdir/$name.out"
            rm -rf "$exdir"
            return 1
        fi
    done
    rm -rf "$exdir"
}
stage 'examples (build + run)' examples_run

# benchmark/ is a module of its own (replace whatifolap => ../), so the
# stages above never see it: a deleted or re-signed engine method would
# break it silently. Type-check it against the engine API here.
benchmark_vet() { (cd benchmark && go vet ./...); }
stage 'go vet ./... (benchmark module)' benchmark_vet

# ...and run it: all five workloads, both modes, at the tiny scale, with
# every answer checked against the algebra path, so an engine change
# that breaks the benchmark at run time fails here, not in the driver.
benchmark_test() { (cd benchmark && go test ./...); }
stage 'go test ./... (benchmark module)' benchmark_test

stage 'go test ./...' go test ./...

# The fuzz targets' seed corpora, by name: `go test ./...` above already
# ran them, this stage makes a target that lost its seeds (or was
# renamed out of the Makefile's `fuzz` list) fail loudly. `make fuzz`
# is the mutating run.
stage 'fuzz seeds' go test -count=1 -run '^(FuzzDecodeChunk|FuzzOpenSegment|FuzzLoadManifest|FuzzLoadSchema|FuzzParse|FuzzParseExpr|FuzzScenarioApply|FuzzServeQuery)$' \
    ./internal/chunk ./internal/segment ./internal/workload ./internal/mdx ./internal/cube ./internal/scenario ./internal/server

# Race-detector pass over the concurrent paths: the serving layer's
# stress, cache and httptest endpoint tests, the engine's scan
# (cancellation, pool pins, merge-group planning) and overlay-kernel
# equivalence tests, the buffer pool's concurrent fault-in tests, the
# observability layer (span recorder, trace-derived histograms,
# slow-query log, EXPLAIN, the metrics-history collector, tail-sampled
# trace retention, the event log, and the whatif -top view), the
# scenario workspace fork/edit/query races, the storage tier (segment
# reads, manifest commits, background write-back), the buffer pool's
# read leases (leased holders across concurrent faults that recycle
# evicted frames, unleased holders whose frames never recycle), the
# lint suite's analyzer/driver tests, the run-encoded representation (value-run scan
# equivalence, the daemon's run-encoded kill -9 restart), the slab
# relocation kernel (per-cell-oracle equivalence over fixtures, random
# geometries and scenario chains, and its allocation pins), the dense
# planner (pebbler-vs-oracle differential tests, plan determinism, the
# allocation pins that stand in for timing asserts on this host), the
# query footprint (the grid-equivalence property test, the
# random-geometry oracles of the overlay and the fold sink, the fused
# live-run scan's allocation pin), the
# compiled projection (its per-cell equivalence over the same corpus,
# the report shapes it compiles, the derived footprint), and
# the server's executor (overload, close, canceled queued tasks), the
# persister's asynchronous write-back, the catalog's leases, snapshot
# quantiles under load and scenario commits, and member resolution
# (Dimension.Find against Lookup, the evaluator's resolution against its
# reference chain, its allocation pin, qualified perspective points and
# change moments), which concurrent queries run over shared dimensions,
# and positive-scenario splits (PlanSplit against its clone-based
# reference, concurrent splits of one published binding, Extend's
# isolation), whose extensions share the published dimension's tables.
stage 'go test -race (concurrent paths)' \
    go test -race -run 'Concurrent|Server|Cache|Scan|Pool|Overlay|Kernel|Trace|Slowlog|Explain|Lint|Scenario|Segment|Manifest|Writeback|Run|Rle|History|Retain|Event|Top|Pebble|Plan|Slab|Footprint|Project|Executor|Persist|Catalog|UnderLoad|Commit|ResolveMember|FindFollows|ParamMember|PlanSplit|Extend|Fused|Lease' ./...

# Advisory (non-fatal): known-vulnerability scan, skipped when the
# toolchain image does not ship govulncheck or has no network.
if command -v govulncheck >/dev/null 2>&1; then
    echo '>> govulncheck ./... (advisory)'
    govulncheck ./... || echo 'verify: govulncheck reported findings (advisory only)'
else
    echo '>> govulncheck not installed; skipping (advisory)'
fi

echo 'verify: ok'
