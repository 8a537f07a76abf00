# Developer/CI entry points. `make ci` is the pre-commit smoke and the
# GitHub Actions gate: formatting, vet, build, full tests, the
# allocation-budget gate over the perf microbenchmarks (which also leaves
# the raw benchmark output in bench-perf.txt for archiving), the
# socket-to-socket benchmark module's vet and tests, and its workloads run
# once each for correctness.

GO ?= go

.PHONY: all vet lint build test bench bench-perf check-fmt check-allocs check-bench bench-module fuzz-short examples chaos serve-smoke loc ci

all: ci

check-fmt:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; \
		echo "run: gofmt -w ."; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project-specific static analysis: builds the adplint vettool (the five
# analyzers under internal/analysis — vclock, maporder, hotalloc,
# sinkcomplete, errcode) and runs it over the whole tree through the
# `go vet -vettool` protocol, so findings are cached per package like any
# other vet check. See docs/static-analysis.md.
lint:
	$(GO) build -o bin/adplint ./cmd/adplint
	$(GO) vet -vettool=$(abspath bin/adplint) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fast perf smoke: hash-probe and hash-build, join push (row batches, plus the
# columnar shim the benchmark's probes time), vectorized key hashing,
# ordered merge-join, aggregate absorb and partition-table fold,
# exchange-partitioning, one whole stitch-up, one corrective run that
# switches twice and stitches up, one standing query per
# maintenance set-up, a standing query's delta-tracker seed and request
# decode, one corrective poll's re-optimization, streaming cursor
# delivery, and the NDJSON row encode (a short and a wide row)
# hot paths with allocation reporting (these back the PR acceptance criteria). The exec join benches grow one hash table for the
# whole run, so layouts are only comparable at equal iteration counts —
# hence the fixed -benchtime.
bench-perf:
	$(GO) test -run='^$$' -bench='BenchmarkHashTableProbe|BenchmarkHashTableInsert' -benchmem ./internal/state/
	$(GO) test -run='^$$' -bench='BenchmarkPipelinedJoinPush|BenchmarkMergeJoinPush|BenchmarkAggTableAbsorb|BenchmarkAggTableMergeFrom|BenchmarkHashKeys|BenchmarkExchangePartition|BenchmarkPartitionMergeRelease|BenchmarkDeltaPropagation' -benchmem -benchtime=300000x ./internal/exec/
	$(GO) test -run='^$$' -bench='BenchmarkStitchUp' -benchmem -benchtime=50x ./internal/core/
	$(GO) test -run='^$$' -bench='BenchmarkCorrectiveRun|BenchmarkParallelAggRun' -benchmem -benchtime=20x ./internal/core/
	$(GO) test -run='^$$' -bench='BenchmarkStandingSetup' -benchmem -benchtime=20x ./internal/core/
	$(GO) test -run='^$$' -bench='BenchmarkBaseTrackerSeed' -benchmem ./internal/ivm/
	$(GO) test -run='^$$' -bench='BenchmarkReoptimize' -benchmem ./internal/opt/
	$(GO) test -run='^$$' -bench='BenchmarkStreamDelivery|BenchmarkFirstRow' -benchmem ./internal/engine/
	$(GO) test -run='^$$' -bench='BenchmarkFaultyNext' -benchmem ./internal/source/
	$(GO) test -run='^$$' -bench='BenchmarkRowEncode|BenchmarkServeQuery|BenchmarkStandingDecode' -benchmem ./internal/server/

# Examples gate: the runnable examples must keep building and vetting
# cleanly (they are real module packages, so rot breaks users first).
examples:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...

# Short fixed-duration fuzzing of the key codec, of the hash table — a list
# under state's one chained index, on an empty spare and on recycled
# storage — against the chain model of the layout it replaced, of the
# aggregate's flat group store (the same index over group ids) against the
# map-based table it replaced, of the delta-row scalar
# conversion against the all-encoding/json one it replaced, of the standing
# body's one-pass delta decode against the encoding/json decode and
# buildDeltas it replaced, of the delta tracker's hash index against the
# string-key tracker it replaced, of one planner's re-optimizations
# against the optimizer it replaced, and of the row encoder's float fast
# path against strconv (the go-native fuzz targets; each -fuzz
# invocation accepts a single target).
fuzz-short:
	$(GO) test -run='^$$' -fuzz='^FuzzKeyCodecRoundTrip$$' -fuzztime=5s ./internal/types/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeKeyArbitrary$$' -fuzztime=5s ./internal/types/
	$(GO) test -run='^$$' -fuzz='^FuzzHashAgreesWithEqual$$' -fuzztime=5s ./internal/types/
	$(GO) test -run='^$$' -fuzz='^FuzzHashTableModel$$' -fuzztime=5s ./internal/state/
	$(GO) test -run='^$$' -fuzz='^FuzzAggTableModel$$' -fuzztime=5s ./internal/exec/
	$(GO) test -run='^$$' -fuzz='^FuzzValueForKind$$' -fuzztime=5s ./internal/server/
	$(GO) test -run='^$$' -fuzz='^FuzzStandingDeltas$$' -fuzztime=5s ./internal/server/
	$(GO) test -run='^$$' -fuzz='^FuzzAppendFloat$$' -fuzztime=5s ./internal/server/
	$(GO) test -run='^$$' -fuzz='^FuzzBaseTracker$$' -fuzztime=5s ./internal/ivm/
	$(GO) test -run='^$$' -fuzz='^FuzzReoptimize$$' -fuzztime=5s ./internal/opt/

# Allocation-budget gate: runs bench-perf, parses allocs/op, fails on any
# pinned-budget regression. Raw output lands in bench-perf.txt.
check-allocs:
	./scripts/check_allocs.sh bench-perf.txt

# Deterministic chaos suite under the race detector: seeded fault
# schedules across all strategies and partition counts, pinning
# recovered-fault runs to their fault-free baselines (PR 6) — and, since
# they share the partition workers, the parallel-aggregation equivalence
# matrix and the mid-phase cancellation tests (PR 18) — and, since the
# delta pump shares the phase runner with the partition workers' caller, the
# maintenance pins and the event goldens of every caller of it (PR 23).
# The standing queries of the engine and the server run here too: their
# update cursor is read while the run goroutine publishes windows into it.
# So do the recycling pins: a run, and its partition clones, take storage an
# earlier run's goroutines released, and a stream the batches another lent;
# and the run-end release pins, joins and aggregate tables alike, and the
# pin that every structure of a run draws its first chunk from its spare.
chaos:
	$(GO) test -race -count=1 -run='Fault|Chaos|ParallelAgg|CancelDuring|Maintenance|PhaseEvent|RegisterStanding|ServeStanding|Recycled|RunEndReleases|SpareDraws' ./internal/source/ ./internal/core/ ./internal/engine/ ./internal/server/

# Black-box smoke of the deployable server binary: build it, boot it on
# a random port, stream a query, check /healthz + /metrics + SSE events,
# SIGTERM, and require a clean drain + exit 0 (PR 7).
serve-smoke:
	$(GO) build -o bin/adpserve ./cmd/adpserve
	$(GO) run ./scripts/servesmoke -bin bin/adpserve

# Socket-to-socket benchmark gate: every BENCHMARK.json workload at its
# --quick size, each op checked against the harness's oracle. Fails unless
# every result line says "correct":true and "failed":0; the timings it
# prints are advisory here (this host swings by the hour — judge those by
# alternated runs, see benchmark/README.md).
check-bench:
	@for w in spj_wide_out agg_corrective agg_par2 standing_churn; do \
		line=$$(bash benchmark/run.sh --workload $$w --quick | tail -n 1); \
		echo "check-bench: $$w $$line"; \
		case "$$line" in \
			*'"correct":true'*'"failed":0'*) ;; \
			*) echo "check-bench: FAIL: $$w did not finish correct with 0 failed ops" >&2; exit 1 ;; \
		esac; \
	done

# The benchmark is a module of its own (benchmark/go.mod, which replaces the
# engine with ../): it compiles against the exec, opt, core and server APIs,
# so it is vetted and tested with every change to them. Nothing in it is
# built by `go build ./...` from the root.
bench-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Go line counts per package and in total, non-test and test, outside
# benchmark/ — the figure every PR states its delta of (ROADMAP, standing
# constraints). `scripts/loc.sh <dir>` counts another checkout, e.g. a clone
# of the parent commit.
loc:
	@./scripts/loc.sh

# Full benchmark sweep (paper figures; slow).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

ci: check-fmt vet lint build test examples fuzz-short chaos check-allocs bench-module check-bench serve-smoke
