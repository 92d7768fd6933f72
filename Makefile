# Developer entry points. `make ci` is what the build gate runs.

GO ?= go

# Per-target budget for the fuzz smoke pass (native Go fuzzing syntax).
FUZZTIME ?= 30s

.PHONY: ci fmt vet build test race check bench fuzz-smoke bench-compare cache-gate bench-rebuild chaos-gate bench-faults liveness-gate agg-gate bench-agg ingest-gate bench-ingest compile-gate crash-gate alloc-gate perf-test gate-patterns api-gate bench-smoke

ci: fmt vet build test race check liveness-gate cache-gate chaos-gate agg-gate ingest-gate compile-gate crash-gate alloc-gate gate-patterns api-gate bench-smoke fuzz-smoke bench-compare perf-test

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The monitor's global-context path, the trace recorder and the build
# graph's scheduler/cache are exercised from many goroutines; keep them
# provably race-free. TestModelDifferential, the slowest test under the
# race detector, has its one race run in chaos-gate.
race:
	$(GO) test -race -skip '^TestModelDifferential$$' ./...

# The static checker and the analyser over the demo programs, from
# binaries built once (`go run` reports a child's exit 2 as 1). tesla-check
# must exit 0 on safe.c and liveness.c, 1 on doomed.c (provably failing)
# and 2 on a program that does not parse; its -json reports must match the
# golden files byte for byte (regenerate with
# `go test ./examples/staticcheck -update`). `tesla-analyse -lint -print`
# (stdout, then stderr) must match cmd/tesla-analyse/testdata/*.golden,
# the multi-file buildgraph program included.
check: build
	@bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin/" ./cmd/tesla-check ./cmd/tesla-analyse || exit 1; \
	sc=examples/staticcheck/testdata; \
	for want in $$sc/safe.c:0 $$sc/doomed.c:1 $$sc/liveness.c:0 cmd/tesla-check/testdata/parse_error.c:2; do \
		f=$${want%:*}; \
		"$$bin/tesla-check" "$$f"; rc=$$?; \
		[ "$$rc" = "$${want##*:}" ] || { echo "check: tesla-check $$f exited $$rc, want $${want##*:}"; exit 1; }; \
	done; \
	for n in safe doomed liveness; do \
		"$$bin/tesla-check" -json $$sc/$$n.c | diff - $$sc/$$n.golden.json \
			|| { echo "check: $$n.c JSON drifted from golden"; exit 1; }; \
	done; \
	for n in safe doomed liveness buildgraph; do \
		if [ $$n = buildgraph ]; then src=examples/buildgraph/testdata/*.c; else src=$$sc/$$n.c; fi; \
		"$$bin/tesla-analyse" -lint -print $$src >"$$bin/out" 2>"$$bin/err" \
			|| { echo "check: tesla-analyse $$n failed"; cat "$$bin/err"; exit 1; }; \
		cat "$$bin/out" "$$bin/err" | diff - cmd/tesla-analyse/testdata/$$n.golden \
			|| { echo "check: tesla-analyse $$n output drifted from golden"; exit 1; }; \
	done

# Soundness differential for the liveness refinement: every corpus
# program is executed under the real VM/monitor across an input range; a
# liveness-PROVABLY-SAFE assertion must never record a runtime violation,
# and its hooks must actually be elided. TestHookOrderAgrees holds the three
# readers of the one hook plan (the instrumenter's VM build, the monitor's
# name-driven dispatch and the checker) to one answer, with one assertion
# or two sharing a bound, lazy initialisation on and off.
liveness-gate:
	$(GO) test -count=1 ./internal/staticcheck -run 'TestLivenessGate|TestVerdictSoundness'
	$(GO) test -count=1 ./internal/toolchain -run 'TestHookOrderAgrees'
	$(GO) test -count=1 ./examples/staticcheck -run 'TestJSONGoldens'

bench:
	$(GO) run ./cmd/tesla-bench -fig elide -files 8

# Smoke run of the paper's timed figures (10-14b) in both harnesses: every
# root BenchmarkFig* case once, then each tesla-bench figure on the same
# cases with a few iterations. The numbers are not judged; a figure that
# fails to set up, panics or exits nonzero fails the target. The agg and
# ingest figures are left out: their noise gates are slow and can fail on
# a shared host.
bench-smoke:
	$(GO) test -count=1 -run '^$$' -bench '^BenchmarkFig' -benchtime 1x .
	@for f in 10 11a 11b 12 13 14a 14b; do \
		$(GO) run ./cmd/tesla-bench -fig $$f -iters 8 -files 4 || exit 1; \
	done

# The §5.1 rebuild matrix on the build graph: tesla-perf's seeded rebuild
# workload (cold build, no-op, one-file body edit, one-file assertion edit,
# with each edit's rebuild counts checked), traced so it prints the per-stage
# build.* metrics.
bench-rebuild:
	bash cmd/tesla-perf/run.sh --workload rebuild --trace 1

# Cache-correctness gate: build the example program twice against the same
# on-disk cache. The second build must do zero stage work (built=0 in the
# summary line) and both linked-IR dumps must be byte-identical. First, a
# memory-only build and an assertion edit on its cache must encode no IR
# module artifact (their hashes are content sums) and must leave the link
# artifact unhashed, while a disk-backed build encodes each persisted
# artifact once and writes the link object; and over the corpus and a
# body edit, assertion edit, revert and no-op, every node key must agree
# across memory, cold-disk and warm-disk builds, with every stored content
# sum equal to one recomputed from scratch. A cache that keeps its last
# build's graph must report every node's status, key and error, and link
# the same program, as one made to forget it, through edits, errors,
# added and removed files and toggled options; and builds of two shapes
# racing on one cache, each taking or missing the kept graph, must pass
# the race detector.
CACHEGATE := /tmp/tesla-cache-gate
cache-gate: build
	$(GO) test -count=1 ./internal/build -run '^(TestLinkEncodedOnlyForDisk|TestContentSumsAgree|TestKeptGraphMatchesForgotten)$$'
	$(GO) test -count=1 -race ./internal/build -run '^TestConcurrentBuildsSharedCache$$'
	@rm -rf $(CACHEGATE) && mkdir -p $(CACHEGATE)
	$(GO) run ./cmd/tesla-build -cache $(CACHEGATE)/cache -o $(CACHEGATE)/a.ir \
		examples/buildgraph/testdata/*.c
	$(GO) run ./cmd/tesla-build -cache $(CACHEGATE)/cache -o $(CACHEGATE)/b.ir \
		examples/buildgraph/testdata/*.c | tee $(CACHEGATE)/second.out
	@grep -q 'built=0' $(CACHEGATE)/second.out || \
		{ echo "cache-gate: warm build rebuilt nodes"; exit 1; }
	cmp $(CACHEGATE)/a.ir $(CACHEGATE)/b.ir
	@echo "cache-gate: warm build fully cached, IR byte-identical"

# Fault-injection gate: the chaos property suite (deterministic seeded
# injector, fixed seed matrix baked into the tests) under the race detector.
# The reference for the overflow policies, quarantine and injected
# allocation failures is the lifecycle model: TestModelDifferential holds
# every layout to it under all three policies and injected failure rates of
# 0/10%/50%, to each schedule's end, and on every seventh schedule holds a
# no-op-handler store, which builds no notifications, to a listening one.
# Around it: per-thread-slot-array vs
# global-striped parity at 1%/10%/50%, cross-class quarantine isolation,
# exact suppression and handler-panic accounting, concurrent
# no-deadlock/no-corruption invariants, and the striped store's lock
# planning raced against census growth, one op and batch windows at a
# time (TestConcurrentCensusGrowth, TestGlobalStoreConcurrency) — plus the injector's own
# determinism tests, the monitor's supervision passthrough and its one
# fail-stop flag draining each automaton's verdicts through a batched ring.
chaos-gate:
	$(GO) test -race -count=1 ./internal/faultinject
	$(GO) test -race -count=1 ./internal/core -run 'TestModelDifferential|TestChaos|TestDifferential|TestConcurrentCensusGrowth|TestGlobalStoreConcurrency'
	$(GO) test -race -count=1 ./internal/monitor -run 'TestSupervision|TestHealth'

# Supervision-policy cost ladder on the 8-stripe global store (drop-new vs
# evict-oldest vs quarantine vs drop-new with 1% injected allocation
# failures), one goroutine on one P; target <3% per rung against drop-new.
# benchstat puts the rungs side by side when it is installed.
bench-faults:
	@$(GO) test ./internal/core -run '^$$' -bench '^BenchmarkStorePolicy$$' -benchtime 0.5s -count 7 -cpu 1 | tee /tmp/tesla-policy.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat -col /policy /tmp/tesla-policy.txt; \
	else \
		echo "benchstat not installed; raw results above (target: every rung within 3% of drop-new)"; \
	fi

# Fleet-aggregation gate: the in-process fleet smoke under the race
# detector (concurrent producers, one mid-stream disconnect, exact
# ingested + dropped == sent accounting) plus the built-binary end-to-end
# (tesla-agg serve on a unix socket, three tesla-run -agg producers,
# tesla-agg query).
agg-gate: build
	$(GO) test -race -count=1 ./internal/agg
	$(GO) test -count=1 ./cmd/tesla-agg -run 'TestAggEndToEnd'

# Fleet ingestion throughput ladder (2..16 concurrent producers) with the
# exact-accounting column asserted per rung.
bench-agg:
	$(GO) run ./cmd/tesla-bench -fig agg

# Batched-event-plane gate: the schedule-exploring differential parity
# suites under the race detector. Covers the store-level batch-vs-sequential
# differential (with injected allocation faults), the monitor-level
# batched-vs-synchronous parity harness (>=1000 deterministic schedules
# across batch sizes and thread counts, plus real-goroutine runs, and the
# one-goroutine schedule in which one thread's bound exit cleans up
# another's staged global «init»), the
# trace recorder's ProgramBatch accounting/Seq invariants, replay parity
# over a batched corpus, and the agg producer's exact accounting under a
# batched monitor.
ingest-gate:
	$(GO) test -race -count=1 ./internal/core -run 'TestBatchDifferential'
	$(GO) test -race -count=1 ./internal/monitor -run 'TestBatchParity|TestBatchGlobal'
	$(GO) test -race -count=1 ./internal/trace -run 'TestCutSinceProgramBatch|TestProgramBatchSeqInvariant|TestReplayParityBatchedCorpus|TestReplayIgnoresCallerBatchSize'
	$(GO) test -race -count=1 ./internal/agg -run 'TestAggBatchedProducer'

# Ingest throughput figure: synchronous reference path vs the batched
# per-thread event plane, with the per-rung noise gate (<=10% trimmed
# spread over >=5 runs) enforced by the figure itself.
bench-ingest:
	$(GO) run ./cmd/tesla-bench -fig ingest

# Compiled-engine gate, under the race detector: the cached-plan
# slot-array-vs-striped engine differentials (sync and batched, with and
# without injected allocation faults), the plan-lowering unit tests (state
# tables against the first-match scan) and the automaton-level lowering
# suite. The event bodies against the lifecycle model (TestModelDifferential)
# run in chaos-gate, the model's home (`make race` skips it). On the build
# side: the sequential, cold-graph and warm-graph builds of one program
# running to the same results and verdicts; a Check+Elide build over a
# Check build's memory cache keying every node as a cold one does (the
# check artifact, unhashed by the first build, is hashed on the second's
# memory hit); and an assertion edit re-instrumenting every unit while
# sharing each function the hook plan leaves alone with the previous build.
compile-gate:
	$(GO) test -race -count=1 ./internal/core -run 'TestEngine|TestTransitionSet|TestInitTransition'
	$(GO) test -race -count=1 ./internal/automata -run 'TestEngine|TestStepUnifiedContract'
	$(GO) test -race -count=1 ./internal/build -run 'TestGraphRunsLikeSequential|TestGraphWarmMatchesCold|TestCheckThenElideSharesCache|TestAssertionEditSharesUntouchedFuncs'

# Crash-consistency gate: the WAL spool's torn-tail recovery unit suite,
# the in-process randomized crash schedules (producer/server kills and
# restarts, snapshot restore, seq dedup — exact-accounting invariants
# asserted after every schedule), and the process-level gate that
# SIGKILLs real tesla-run / tesla-agg binaries at randomized points:
# every recovered -trace-spool must be a verbatim prefix of an uncrashed
# run, and fleet counts must come out exactly once across producer
# crash, two resends and a server kill/restart in between. The resend
# tests add a spool replay that survives a connection reset and one that
# refuses to close the accounting with a degraded bye.
crash-gate: build
	$(GO) test -count=1 ./internal/trace -run 'TestSpool'
	$(GO) test -count=1 ./internal/agg -run 'TestCrashSchedules|TestSnapshot|TestDurableAcks|TestResendDeduplicated|TestResendSpool|TestSpoolFaultResentFromMemory'
	$(GO) test -count=1 ./cmd/tesla-agg -run 'TestCrashGate'

# Allocation gate: the steady-state trace path from recorder to fleet
# store reuses its memory. UpdateBatch allocates nothing on the slot array
# or the striped store, also with garbage collections between batches; a trace.Flusher flush (cut, merge and encode
# straight from the rings) allocates nothing at 100 events or at 4000, and
# a recorder with one thread tapped allocates no more than its two rings of
# 144-byte slots and 64 KiB; a Publisher flush (cut, encode, send, server apply,
# ack) and an IngestFrame of a fleet-shaped frame (program events with
# values and an instack list, lifecycle events, one failure) cost as many
# allocations for 2000 events as for 100; that IngestFrame allocates at
# most 4 times more after two garbage collections than warmed, since each
# producer owns its ingester rather than a pool. A spooled client whose server
# holds acks back keeps no payload of a written frame, and its Publisher
# flush allocates about as many bytes for 2000 events as for 100. Re-encoding a linked program into a reused buffer allocates at
# most once, and a built node encodes into the scheduler's pooled buffer:
# the largest corpus program's link node, given a dependent so its hash is
# needed, allocates no more than a one-instruction module's; an instrument
# node over a unit the hook plan leaves alone allocates as often for 64
# functions as for 8, since it copies none of them. The monitor's
# name-driven Call/Return/Site path allocates nothing, however many
# automata share the bound slot it fires, and under the trace recorder's
# tap only the recorder's own copies; no figure 11b configuration's OLTP
# transaction allocates more than Release's one (the kernel's File
# record). A warmed VM.Run allocates nothing: plain, and instrumented under
# the synchronous or the batched monitor. The tests outside internal/core carry a !race build tag
# (sync.Pool drops items under the race detector), so this gate is their
# only CI run besides `make test`; the store keeps its note buffers on a
# channel, so `make race` runs TestUpdateBatchAllocs as well.
alloc-gate:
	$(GO) test -count=1 ./internal/core -run '^TestUpdateBatchAllocs$$'
	$(GO) test -count=1 ./internal/agg -run '^(TestIngestFrameAllocs|TestPublisherFlushAllocs|TestSpooledClientMemoryBound)$$'
	$(GO) test -count=1 ./internal/build -run '^(TestEncodeModuleAllocs|TestInstrumentUntouchedAllocs|TestWarmRebuildAllocs)$$'
	$(GO) test -count=1 ./internal/monitor -run '^TestNameDrivenAllocs$$'
	$(GO) test -count=1 ./internal/trace -run '^(TestRecorderTapAllocs|TestFlusherSteadyAllocs|TestRecorderFootprint)$$'
	$(GO) test -count=1 ./internal/kernel -run '^TestFig11bOLTPAllocs$$'
	$(GO) test -count=1 ./internal/vm -run '^TestRunAllocs$$'

# Gate-pattern check: every -run/-fuzz/-bench alternative in this Makefile must
# name a test or benchmark in its package (`go test -list`), so renaming or
# deleting one a gate selects by name fails here instead of shrinking that
# gate silently.
gate-patterns:
	GO=$(GO) bash scripts/gate-patterns.sh Makefile

# Exported-surface gate: every exported declaration in internal/, every
# unexported declaration anywhere, and every exported *Opts/Options field
# is used (a field: set) by non-test code in the tree, commands, examples
# and cmd/tesla-perf included, or carries a reason in the test's allowlist.
api-gate:
	$(GO) test -count=1 -run '^TestExportedSurfaceUsed$$' .

# Short fuzz pass over the binary/JSON trace codec, the streaming frame
# reader, the in-memory and streaming event decoders agreeing byte for
# byte, the WAL spool's segment repair, the recorder's one-pass cut
# encoding against AppendBinary of CutInto, decoded traces replayed into
# synchronous, fail-stop and batched monitors, the csub front end, the batched
# event plane's flush protocol, the event bodies against the lifecycle
# model and the build cache's IR module codec ($(FUZZTIME) per target);
# saved crashers land in testdata/fuzz and fail `make test` from then on.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzFrameStream$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzDecodeAgree$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzSpoolRecover$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzCutEncode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/csub -run '^$$' -fuzz '^FuzzCsubParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/monitor -run '^$$' -fuzz '^FuzzBatchFlush$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzCompiledStep$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ir -run '^$$' -fuzz '^FuzzModuleCodec$$' -fuzztime $(FUZZTIME)

# Global-store benchmarks, 1 stripe vs the GOMAXPROCS-sized default: each
# benchmark runs both layouts as shards=1 / shards=auto sub-benchmarks in
# one pass, put side by side with benchstat when it is installed. For the
# goroutine ladder, run
#   go test ./internal/core -run '^$' -bench StoreOLTPParallel -cpu 1,2,4,8
bench-compare:
	@$(GO) test ./internal/core -run '^$$' -bench 'StoreOLTP' -benchtime 0.5s -count 5 | tee /tmp/tesla-store.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat -col /shards /tmp/tesla-store.txt; \
	else \
		echo "benchstat not installed; raw results above (shards=1 vs shards=auto = GOMAXPROCS stripes)"; \
	fi

# The benchmark harness is a module of its own (cmd/tesla-perf/go.mod), so
# the root `go build ./...` and `make vet` never reach it: an internal API
# change that breaks it only shows up here.
perf-test:
	cd cmd/tesla-perf && $(GO) vet ./... && $(GO) test ./...
