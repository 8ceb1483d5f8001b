GO ?= go

.PHONY: all build test tier1 race faults bench-smoke sample-smoke bpred-smoke explore-smoke golden fuzz fmt lint store-coherence serve-smoke docs-check perfbench-check loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 10m ./...

# tier1 is the CI gate: formatting, build, vet, the aurora analyzers,
# tests, race on the whole tree. Explicit -timeout values bound a hung
# sweep instead of relying on the go test default, so CI fails with a
# goroutine dump rather than stalling.
tier1: fmt build lint
	$(GO) vet ./...
	$(GO) test -timeout 10m ./...
	$(GO) test -race -short -timeout 10m ./...

# lint runs the repo's own go/analysis suite (hotpathalloc, determinism,
# panicsite, probeguard, keyflow, ctxflow, faultpath, waiver, plus the
# vendored stock vet passes — see docs/LINTING.md) over the whole module
# via the vet driver, so facts flow across packages exactly as in go vet:
# keyflow's identity facts are what let core.Config.BPred prove coverage
# through bpred.Config.Key. `bin/aurora-lint -sarif out.sarif ./...`
# exports the same findings as SARIF; `bin/aurora-lint -waivers` lists
# every waiver in shipped code with its reason.
lint:
	$(GO) build -o bin/aurora-lint ./cmd/aurora-lint
	$(GO) vet -vettool=bin/aurora-lint ./...

race:
	$(GO) test -race -short -timeout 10m ./...

# faults runs the fault-isolation layer's tests under the race detector:
# injected panics at every guarded site, the memo-poison regression, the
# cancellation races, Runner.Cell's keep-going rule in both modes, the
# per-cell keep-going rendering (exact and sampled sweeps, aurora-serve's
# fault objects) and the dead-suite NaN rates.
faults:
	$(GO) test -race -timeout 5m -count=1 \
		-run 'TestFault|TestRunHonorsCancellation|TestJobDeadline|TestCell|TestKeepGoing|TestFailFast|TestConcurrentRunRace|TestPredictorSweepAllFaulted|TestSweepFaulted' \
		./internal/harness/ ./internal/simfault/ ./cmd/aurora-serve/
	$(GO) test -race -timeout 5m -count=1 -run TestRunContextCancellation ./internal/core/

# bench-smoke is the fast benchmark gate, and the whole of CI's bench-smoke
# job: assert zero allocations on the cycle loop (synthetic trace, every
# predictor, every VM-fed kernel) and on the disabled probe path, run the
# cycle-loop and probe benchmarks briefly (allocs/op must print 0), and
# replay the checked-in fuzz corpora — among them the seed corpus of
# FuzzSkipMatchesForcedTick, the proof that jumping quiet cycles changes no
# result, with the unit-level next-event and idle-latch tests beside it.
bench-smoke:
	$(GO) test -run TestCycleLoopZeroAlloc -count=1 -v .
	$(GO) test -run 'FuzzSkipMatchesForcedTick|TestSkipWakesOnYoungerProducer|TestRunContextCancelledWhileSkipping' -count=1 ./internal/core/
	$(GO) test -run 'NextEvent|IdleLatchMatchesForcedTick' -count=1 ./internal/fpu/ ./internal/ipu/ ./internal/mem/ ./internal/prefetch/
	$(GO) test -run TestNilProbeZeroAllocs -count=1 -v ./internal/obs/
	$(GO) test -run '^$$' -bench BenchmarkCycleLoop -benchtime 20000x .
	$(GO) test -run '^$$' -bench 'BenchmarkNilProbe|BenchmarkEnabledProbe' -benchtime 20000x ./internal/obs/
	$(GO) test -run FuzzAsmRoundTrip -count=1 ./internal/asm/
	$(GO) test -run FuzzPredictorStream -count=1 ./internal/bpred/

# sample-smoke is the fast sampled-mode gate: one end-to-end sampled run
# asserting the estimate arrives with a positive error bound, the
# back-to-back-window capture layout, the compact checkpoint encoding
# (round trip on every kernel, rejection of records it cannot hold), the
# capped warm-log ring, zero allocations on window replay, plus the
# checkpoint byte-identity and differential-bound tests in -short form
# (see docs/SIMULATION-MODES.md).
sample-smoke:
	$(GO) test -run 'TestSampleSmoke|TestCheckpointSharedIdenticalToPrivate|TestCheckpointBackToBackWindows|TestWindowRecordsRoundTrip|TestEncodeRecordRejects|TestWarmRingTruncation|TestReplayZeroAlloc' -count=1 ./internal/sample/
	$(GO) test -short -run TestSampledCPIWithinBound -count=1 .

# bpred-smoke is the predictor-axis gate: the differential/property/unit net
# and the recovery contract under race, zero allocations with every predictor
# swapped in, the ring-size goldens (whose gshare, TAGE and no-folding rows
# pin every counter of the fetch unit's control-flow scan), and the
# key-separation tests that keep predictor results from ever aliasing
# default-config entries (see docs/BRANCH-PREDICTION.md).
bpred-smoke:
	$(GO) test -race -count=1 ./internal/bpred/
	$(GO) test -run 'TestCycleLoopZeroAlloc|TestGoldenRingSizes' -count=1 .
	$(GO) test -count=1 -run 'TestFingerprint|TestCostRBEPredictor' ./internal/core/
	$(GO) test -count=1 -run 'BPred|TestPredictorSweepShapes' ./internal/harness/ ./internal/resultstore/

# explore-smoke is the design-space-explorer gate: the explorer test net
# (frontier dominance, promotion accounting, worker-count determinism,
# store-backed re-run, fault dropping) plus the end-to-end CLI script on the
# tiny grid — two halving rungs, byte-identical at -j 1 and -j 8, zero
# re-simulation against a warm store (see docs/EXPLORER.md).
explore-smoke:
	$(GO) test -count=1 -run 'TestExplore|TestIPUBreakdown' ./internal/harness/ ./internal/rbe/ ./cmd/aurora-serve/
	sh scripts/explore-smoke.sh

# perfbench-check vets and tests the benchmark module. perfbench/ is its
# own Go module (replace aurora => ../), so the root `go test ./...` never
# compiles it; this is the gate that keeps an API change in the simulator
# from breaking the benchmark unnoticed (see perfbench/README.md).
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# docs-check verifies every relative markdown link in the repo resolves and
# every page under docs/ is reachable from the docs/README.md index.
docs-check:
	sh scripts/check-docs-links.sh

# store-coherence runs the full experiment batch twice in fresh processes
# sharing one result store: the second run must simulate nothing and emit
# byte-identical stdout and CSV artifacts (see docs/STORE.md).
store-coherence:
	sh scripts/store-coherence.sh

# serve-smoke boots the aurora-serve daemon against a fresh store, submits
# a sweep twice over HTTP and checks the second is answered from cache.
serve-smoke:
	sh scripts/serve-smoke.sh

# loc prints the non-test Go lines of each package directory and their
# total, leaving out third_party/, perfbench/, testdata/ and hidden
# directories: the count ROADMAP quotes, so a claim that a change makes the
# code smaller is one command to check.
loc:
	@files=$$(find . \( -path ./third_party -o -path ./perfbench -o -name testdata -o -name '.?*' \) -prune \
		-o -name '*.go' ! -name '*_test.go' -print); \
	for f in $$files; do echo "$$(dirname $$f) $$(wc -l < $$f)"; done | \
		awk '{n[$$1] += $$2} END {for (d in n) printf "%6d %s\n", n[d], d}' | sort -k2; \
	cat $$files | wc -l | awk '{printf "%6d total\n", $$1}'

# golden checks the byte-pinned outputs: every kernel's report fingerprint
# and the ring-size matrix in the root package, then the harness artifact
# goldens — every registry artifact's text and CSV files, the exploration,
# the every-cell-faulted render and the sampled grid.
golden:
	$(GO) test -run 'TestGolden' -count=1 .
	$(GO) test -run 'TestRenderParallelMatchesSerial|TestExploreDeterminismAcrossWorkers|TestKeepGoingMarksEveryRow|TestSampledSweepGrid' -count=1 ./internal/harness/

# fuzz exercises the fuzz targets for a short local burst each: the
# assembler round-trip and the branch-predictor stream harness.
fuzz:
	$(GO) test -fuzz FuzzAsmRoundTrip -fuzztime 30s ./internal/asm/
	$(GO) test -fuzz FuzzPredictorStream -fuzztime 30s ./internal/bpred/

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" $$out; exit 1; fi
