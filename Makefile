GO ?= go

# Packages with concurrency surface: the batch engine, everything it
# fans out over, and the concurrent serving layers. These get the -race leg; they are also fast enough to
# run instrumented on every push.
RACE_PKGS = ./internal/sched ./internal/core ./internal/suite \
            ./internal/trace ./internal/mem ./internal/xrand \
            ./internal/faults ./internal/serve ./internal/resilience \
            ./internal/stream ./internal/ml ./internal/perfingest \
            ./internal/fleet ./internal/lifecycle ./internal/ensemble

.PHONY: all build test race fuzz fuzz-smoke bench bench-snapshot serve-smoke watch-smoke fleet-smoke lifecycle-smoke ensemble-smoke chaos ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the concurrency-sensitive packages under the race detector
# (ci.sh runs it).
race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# fuzz gives the trace parser a short randomized workout (the seed
# corpus alone runs on every plain `make test`).
fuzz:
	$(GO) test ./internal/trace -fuzz FuzzParseTrace -fuzztime 30s

# fuzz-smoke is the CI leg (ci.sh runs it): a 10s fuzz of every fuzz
# target with the unit tests filtered out, so regressions in their
# robustness surface on every push. The ingestion parsers (access
# traces, perf output) and spec parsers come first; then inference
# equivalence and wire robustness: the compiled tree must stay
# bit-identical to the pointer-tree oracle and the committee vote to
# the map-based ensemble oracle, every detector or ensemble that
# decodes must classify to finite confidences, and garbage binary
# frames must always land in typed errors.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseTrace -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzParsePerf -fuzztime 10s ./internal/perfingest
	$(GO) test -run '^$$' -fuzz FuzzParseWindowSpec -fuzztime 10s ./internal/stream
	$(GO) test -run '^$$' -fuzz FuzzParseLifecycleSpec -fuzztime 10s ./internal/lifecycle
	$(GO) test -run '^$$' -fuzz FuzzParseEnsembleSpec -fuzztime 10s ./internal/ensemble
	$(GO) test -run '^$$' -fuzz FuzzFlatVsPointerTree -fuzztime 10s ./internal/ml
	$(GO) test -run '^$$' -fuzz FuzzDecodeDetector -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzEnsembleVsOracle -fuzztime 10s ./internal/ensemble
	$(GO) test -run '^$$' -fuzz FuzzDecodeEnsemble -fuzztime 10s ./internal/ensemble
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/serve

# bench records the parallel-vs-sequential engine numbers (see
# EXPERIMENTS.md).
bench:
	$(GO) test . -run XXX -bench 'Sequential|Parallel' -benchtime 1x

# bench-snapshot regenerates the committed perf snapshots:
# BENCH_6.json — inference/wire numbers (flat-tree vs pointer-tree
# prediction, the columnar batch path, JSON vs binary serve round
# trips); BENCH_7.json — perf-output ingestion throughput (parse +
# Table-2 mapping per fixture format); BENCH_8.json — fleet-coordinator
# overhead (direct vs routed classify latency); BENCH_9.json — what
# lifecycle shadow-mirroring costs the classify hot path (absent vs
# armed-idle vs actively shadowing); BENCH_10.json — what the
# multi-pathology ensemble costs per classify next to the single
# 3-class tree.
bench-snapshot:
	$(GO) run ./cmd/benchsnap -o BENCH_6.json \
	    -bench 'FlatPredict|ClassifyBatch|DetectorClassify|ServeClassify' \
	    ./internal/ml ./internal/core ./internal/serve
	$(GO) run ./cmd/benchsnap -o BENCH_7.json \
	    -bench 'ParsePerf' ./internal/perfingest
	$(GO) run ./cmd/benchsnap -o BENCH_8.json -benchtime 300x \
	    -bench 'FleetClassify' ./internal/fleet
	$(GO) run ./cmd/benchsnap -o BENCH_9.json \
	    -bench 'ShadowMirror' ./internal/serve
	$(GO) run ./cmd/benchsnap -o BENCH_10.json \
	    -bench 'EnsembleClassify|DetectorClassify' ./internal/ensemble

# serve-smoke exercises the detection server's full lifecycle: bind an
# ephemeral port, health-check, register a model, classify through the
# inline pipeline, scrape metrics, and shut down gracefully.
serve-smoke:
	$(GO) test ./internal/serve -run TestServeSmoke -count=1 -v

# watch-smoke exercises the live-monitoring path end to end: the online
# monitor catching an injected false-sharing phase with exact
# boundaries, and the SSE endpoint streaming, shedding under load, and
# draining on shutdown.
watch-smoke:
	$(GO) test ./internal/stream -run TestMonitorCatchesInjectedPhase -count=1 -v
	$(GO) test ./internal/serve -run TestWatch -count=1 -v

# fleet-smoke exercises the coordinator's lifecycle: route a classify
# across live backends, kill one, and keep answering through failover.
fleet-smoke:
	$(GO) test ./internal/fleet -run TestFleetSmoke -count=1 -v

# lifecycle-smoke drives the self-healing model loop end to end: drift
# debounce, retrain, shadow scoring, promotion, rejection, and an
# automatic rollback, all against a live server under the race detector.
lifecycle-smoke:
	$(GO) test ./internal/serve -run TestChaosDriftRetrainPromoteRollback -race -count=1 -v

# ensemble-smoke is the multi-pathology acceptance run: train the
# ensemble on the widened quick grids and classify one held-out workload
# per pathology with the correct top-ranked label, deterministically
# across -j 1 vs -j 8, under the race detector.
ensemble-smoke:
	$(GO) test ./internal/ensemble -run 'TestAcceptanceHeldOutPathologies|TestEnsembleDeterministicAcrossParallelism' -race -count=1 -v

# chaos drives the serving layer through every failure mode at once —
# corrupt registry files, failing trainers, shed storms, shutdown under
# load — under the race detector (see internal/serve/chaos_test.go),
# then kills a fleet backend mid-classify-storm and requires zero lost
# verdicts (internal/fleet/chaos_test.go).
chaos:
	$(GO) test ./internal/serve -run TestChaos -race -count=1 -v
	$(GO) test ./internal/fleet -run TestChaos -race -count=1 -v

ci:
	./ci.sh
