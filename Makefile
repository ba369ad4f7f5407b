.PHONY: verify test fuzz lint lint-fix lint-stats loc bench bench-smoke prof scenario-demo segment-smoke obs-demo

verify:
	./verify.sh

test:
	go test ./...

# Mutating fuzz runs, 10 s each (go test -fuzz takes one target and
# one package at a time): the record codec every fault decodes through,
# the segment reader, the manifest loader, and the two parsers.
# verify.sh runs only their seed corpora. A failing input is written
# under the package's testdata/fuzz/ — commit it. Segment inputs are
# page-aligned files of 12 KiB and more, which the default minimizer
# spends a minute on per new input, so its minimization is capped.
fuzz:
	go test -run '^$$' -fuzz '^FuzzDecodeChunk$$' -fuzztime 10s ./internal/chunk
	go test -run '^$$' -fuzz '^FuzzOpenSegment$$' -fuzztime 10s -fuzzminimizetime 3s ./internal/segment
	go test -run '^$$' -fuzz '^FuzzLoadManifest$$' -fuzztime 10s ./internal/segment
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/mdx
	go test -run '^$$' -fuzz '^FuzzParseExpr$$' -fuzztime 10s ./internal/cube

# Run the repo's go/analysis suite (internal/lint) over every package,
# exactly as verify.sh does: build cmd/whatiflint and hand it to go vet
# as a -vettool, so diagnostics come out per package with file:line
# positions and vet's caching.
lint:
	go build -o bin/whatiflint ./cmd/whatiflint
	go vet -vettool=bin/whatiflint ./...

# Standalone driver mode with -fix: applies the safe suggested fixes
# (monotonic's Round(0)/Truncate(0) strips, releasepair's insertion of
# the missing release before a must-held early return). The unitchecker
# protocol cannot apply fixes, so fixing goes through the offline
# driver; the vettool pass afterwards confirms the tree is clean.
lint-fix:
	go build -o bin/whatiflint ./cmd/whatiflint
	./bin/whatiflint -fix || true
	go vet -vettool=bin/whatiflint ./...

# Escape-hatch inventory: every //lint: directive with its location,
# reason and per-rule counts. verify.sh runs the --check mode, which
# fails on justification directives that carry no reason.
lint-stats:
	sh scripts/lint-stats.sh

# ROADMAP's tracked number: non-test, non-vendor Go lines per package
# and in total, raw and code-only (blank and comment-only lines
# dropped). `sh scripts/loc.sh DIR` counts a clone of another commit.
loc:
	sh scripts/loc.sh

# Live curl session against an ephemeral whatifd on 127.0.0.1:18080
# (override with SCENARIO_DEMO_PORT): create a scenario on the
# workforce cube, add a hypothetical account, write cells, fork, diff
# the fork against its parent, and commit as a new catalog version.
scenario-demo:
	sh scripts/scenario-demo.sh

# Live curl session against an ephemeral whatifd on 127.0.0.1:18081
# (override with OBS_DEMO_PORT) showing the observability layer: the
# /metrics/history time-series evolving under miss-then-hit traffic, a
# retained trace fetched back by the X-Trace-Id a query response
# carried, and the structured lifecycle event log.
obs-demo:
	sh scripts/obs-demo.sh

# Fast check of the persistent storage tier: segment file round-trip,
# fail-closed corruption handling, manifest crash recovery, catalog
# write-back/restore, the segment-vs-memory equivalence pin, and the
# daemon's kill -9 restart round trip.
segment-smoke:
	go test -count=1 -run 'Segment|Manifest|Persist|Writeback|Equivalence|Kill9' . ./internal/segment/ ./internal/server/ ./cmd/whatifd/

bench:
	go test -run XXX -bench . ./...

# A fast sanity pass over the figure benchmarks, the overlay-kernel
# write-path comparison, the slab kernel's dense, run-encoded and
# scenario-chain scans, and the trace and trace-retention overhead
# guards; full numbers come from `make bench` or cmd/benchfig.
bench-smoke:
	go test -run '^$$' -bench 'BenchmarkFig|BenchmarkRelocationKernel|BenchmarkRleScan|BenchmarkScanDense|BenchmarkScanChain|BenchmarkTrace|BenchmarkObs' -benchtime=100ms .

# CPU profile of the relocation kernel under the trace hooks; inspect
# with `go tool pprof cpu.prof`.
prof:
	go test -run '^$$' -bench 'BenchmarkTraceOff|BenchmarkTraceOn' -benchtime=2s -cpuprofile cpu.prof .
	@echo "wrote cpu.prof — open with: go tool pprof cpu.prof"
