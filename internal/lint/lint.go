// Package lint is aurora-lint: a go/analysis suite that turns the
// simulator's conventions — the zero-allocation cycle loop, byte-identical
// sweep output, faultinject-gated invariant panics and nil-guarded probes —
// into compile-time errors instead of flaky benchmark deltas.
//
// Seven aurora analyzers:
//
//   - hotpathalloc: functions annotated //aurora:hotpath (and everything
//     they statically call within the module) must contain no
//     allocation-inducing constructs.
//   - determinism: simulation packages must not read wall-clock time or
//     math/rand, and no output path may iterate a map straight into an
//     io.Writer, CSV row or metric name.
//   - panicsite: every panic in a simulation package must sit behind the
//     faultinject.Fires gating pattern, so the harness fault boundary's
//     recovery contract holds.
//   - probeguard: obs.Probe method calls outside package obs must sit
//     behind the `if p != nil` idiom that keeps the disabled probe cost at
//     one branch and zero allocations.
//   - keyflow: every field of an identity-annotated struct (core.Config,
//     bpred.Config, sample.Params, resultstore.Key) must reach the
//     struct's identity method, so config axes cannot silently miss the
//     memo/store key.
//   - ctxflow: library entry points in harness/aurora/resultstore must
//     accept and forward context.Context; no fresh root contexts outside
//     the F -> FContext wrapper idiom, no dropped ctx parameters.
//   - faultpath: recover() in sim/harness packages must convert to
//     *simfault.Fault, and persistence/artifact-writer errors must not be
//     discarded.
//
// An eighth analyzer, waiver, lints the waiver comments themselves, and
// the stock x/tools passes atomic, copylock, lostcancel, nilfunc and
// unusedresult run alongside (vendored under third_party/).
//
// A diagnostic is suppressed by a waiver comment on its line or the line
// above: //aurora:allow(token, reason), where token is the analyzer's
// waiver token (alloc, determinism, panic, probe, ctx, fault) and the
// reason is mandatory — a bare //aurora:allow(token) waives nothing and
// is itself flagged by the waiver analyzer. keyflow uses its own field
// directive //aurora:identity(none, reason). See docs/LINTING.md.
package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/atomic"
	"golang.org/x/tools/go/analysis/passes/copylock"
	"golang.org/x/tools/go/analysis/passes/lostcancel"
	"golang.org/x/tools/go/analysis/passes/nilfunc"
	"golang.org/x/tools/go/analysis/passes/unusedresult"
)

// Analyzers returns the full aurora-lint suite in stable order: the
// repo-specific analyzers first, then the vendored stock passes (which
// `go vet` also runs; running them here keeps `make lint` sufficient on
// its own and feeds their findings into the SARIF export).
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		HotPathAlloc,
		Determinism,
		PanicSite,
		ProbeGuard,
		KeyFlow,
		CtxFlow,
		FaultPath,
		Waiver,
		atomic.Analyzer,
		copylock.Analyzer,
		lostcancel.Analyzer,
		nilfunc.Analyzer,
		unusedresult.Analyzer,
	}
}

// HotPathAnnotation marks a function as part of the per-cycle hot path.
const HotPathAnnotation = "//aurora:hotpath"

// simPackages is the set of timing-model package names (the final import
// path segment) whose determinism and fault-isolation invariants the suite
// enforces. harness and obs are output layers: they additionally fall under
// the map-iteration-ordering rule (see outputPackages).
var simPackages = map[string]bool{
	"core":     true,
	"fpu":      true,
	"cache":    true,
	"ipu":      true,
	"bpred":    true,
	"mem":      true,
	"prefetch": true,
	"mmu":      true,
	"sample":   true,
	"trace":    true,
}

// outputPackages are the packages whose writes must be byte-identical at
// any worker count: everything a sweep's stdout/CSV/metric stream passes
// through on its way out of the process. resultstore is here because its
// on-disk entries are checksummed canonical JSON — map-ordered iteration
// anywhere in its encoding path would scramble checksums across processes.
var outputPackages = map[string]bool{
	"harness":     true,
	"obs":         true,
	"resultstore": true,
}

// lastSeg returns the final segment of an import path.
func lastSeg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// firstSeg returns the leading segment of an import path. Two packages
// sharing it are treated as module-local: every aurora package starts with
// "aurora/", and analysistest-style fixtures use a shared root such as
// "hot/...".
func firstSeg(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// isSimPackage reports whether pkgPath is a timing-model package.
func isSimPackage(pkgPath string) bool { return simPackages[lastSeg(pkgPath)] }

// isOutputPackage reports whether pkgPath carries sweep output.
func isOutputPackage(pkgPath string) bool { return outputPackages[lastSeg(pkgPath)] }

// allowRE matches only well-formed waivers: token AND a non-empty reason.
// A reasonless //aurora:allow(token) deliberately fails to match — the
// original diagnostic then fires, and the waiver analyzer names the cause.
// Text after the closing paren is ignored (fixtures hang // want there).
var allowRE = regexp.MustCompile(`^//aurora:allow\(([a-z]+),\s*[^)\s][^)]*\)`)

// sourceFiles returns the pass's non-test files. The suite's invariants
// govern shipped simulator code; tests freely use rand, raw panics and
// unguarded probes.
func sourceFiles(pass *analysis.Pass) []*ast.File {
	var out []*ast.File
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// waivers records, per file line, which analyzer tokens are waived there.
type waivers map[int]map[string]bool

// collectWaivers scans every comment in the pass's files for
// //aurora:allow(token) markers. A marker waives its own line and, when it
// is the only thing on its line, the line below — the two places gofmt
// leaves such a comment.
func collectWaivers(pass *analysis.Pass) waivers {
	w := waivers{}
	add := func(line int, tok string) {
		m := w[line]
		if m == nil {
			m = map[string]bool{}
			w[line] = m
		}
		m[tok] = true
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				sub := allowRE.FindStringSubmatch(c.Text)
				if sub == nil {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				add(pos.Line, sub[1])
				add(pos.Line+1, sub[1])
			}
		}
	}
	return w
}

// allowed reports whether token is waived at pos.
func (w waivers) allowed(pass *analysis.Pass, pos token.Pos, tok string) bool {
	return w[pass.Fset.Position(pos).Line][tok]
}

// report emits a diagnostic unless a waiver covers it.
func report(pass *analysis.Pass, w waivers, pos token.Pos, tok, msg string) {
	if w.allowed(pass, pos, tok) {
		return
	}
	pass.Reportf(pos, "%s", msg)
}

// hasAnnotation reports whether the doc comment group carries the marker
// directive (exact text on its own comment line).
func hasAnnotation(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}
