// Package lint is whatiflint: a go/analysis suite that machine-checks
// the engine's hardest-won invariants — the ones previously enforced
// only by convention, a grep in verify.sh, and reviewer memory.
//
// The six analyzers and the invariant each encodes:
//
//	hotpathfmt    declared hot-path files (per-chunk scan, span
//	              recording, overlay writes) must not import fmt,
//	              reflect or log — directly, or transitively through
//	              module-local packages that have not been reviewed as
//	              formatting only off the hot path (//lint:coldfmt) —
//	              and must not construct errors or format per call.
//	semexhaustive every switch over the paper's query-semantics and
//	              eval-mode enums (perspective.Semantics, the five
//	              semantics of §3; perspective.Mode, visual/non-visual)
//	              must cover all constants or carry //lint:semdefault
//	              with a reason, so adding a sixth semantics fails the
//	              build at every dispatch site.
//	ctxflow       library code in internal/core, internal/server and
//	              internal/mdx must not mint contexts with
//	              context.Background()/TODO() (cancellation must flow
//	              from the caller), and functions that loop over chunk
//	              reads must accept a context to observe between reads.
//	lockguard     no blocking operation — chunk fault-in I/O, channel
//	              sends/receives, segment reads, WaitGroup waits —
//	              while holding a chunk.Store / buffer-pool mutex
//	              (the "I/O outside the lock" rule from the pebbling
//	              buffer-pool work).
//	monotonic     span-recording paths timestamp with the monotonic
//	              clock (time.Since against an epoch); wall-clock
//	              extraction (Unix*, Format, Round, Truncate) is
//	              forbidden in files marked //lint:monotonic.
//	releasepair   paired operations balance on every control-flow
//	              path including early returns and panics:
//	              Lock/Unlock, buffer-pool Pin/Unpin, trace span
//	              Start/End, scenario layer NewLayer/Seal. Must-held
//	              leaks at explicit returns carry a suggested fix
//	              (make lint-fix).
//
// releasepair walks ssax, the suite's SSA-lite foundation
// (internal/lint/ssax): blocks, instructions and exit classification
// lowered from the ctrlflow CFGs.
//
// Escape hatches are explicit //lint: directives that must carry a
// reason; see directives.go. cmd/whatiflint is the driver: it speaks
// the go vet -vettool protocol (unitchecker), so the suite composes
// with the standard vet pass, and has a standalone mode with -fix.
package lint

import "golang.org/x/tools/go/analysis"

// ModulePath is the import-path prefix of this repository's module.
// The analyzers use it to distinguish module-local imports (walked for
// transitive formatting reach) from standard-library ones.
const ModulePath = "whatifolap"

// Analyzers returns the whatiflint suite in a fixed order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		HotpathFmt,
		SemExhaustive,
		CtxFlow,
		LockGuard,
		Monotonic,
		ReleasePair,
	}
}
