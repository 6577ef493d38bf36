GO ?= go

# ci is the tier-1 gate: formatting, vet, static analysis, build (the bench
# module included), the full test suite under the race detector (the serve
# concurrency tests only mean something with -race), the off-heap
# allocator's pointer checks, the fault-injection suite, the pinned-seed
# fault schedule, the alert-delivery suite, a short run of every fuzz
# target, the scenario-corpus quality gate, the fleet-replay acceptance
# gate, and the sharded-cluster equivalence gate.
.PHONY: ci
ci: fmt vet staticcheck build benchbuild race checkptr faulttest crashtest alerttest benchsmoke fuzzsmoke scenariotest fleettest clustertest

.PHONY: fmt
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

.PHONY: vet
vet:
	$(GO) vet ./...

# staticcheck runs the pinned static analyzer when it is installed; the
# hermetic CI image has no network, so a missing binary is a loud skip, not
# a failure. Install locally with:
#   go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
# The zero-finding baseline is enforced whenever the binary is present.
STATICCHECK_VERSION ?= 2025.1
.PHONY: staticcheck
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck $$(staticcheck -version 2>/dev/null | head -n1)"; \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed; skipping (pin: $(STATICCHECK_VERSION))"; \
	fi

.PHONY: build
build:
	$(GO) build ./...

# benchbuild type-checks the outside-in benchmark, a module of its own that
# the root `go build ./...` never compiles: it mirrors the streaming round
# through library APIs, so a library change can break it.
.PHONY: benchbuild
benchbuild:
	cd bench && $(GO) vet ./...

.PHONY: test
test:
	$(GO) test ./...

# The experiments package legitimately needs >10 min under -race on a
# single-core box; the explicit timeout keeps slow CI runners from tripping
# Go's default 10-minute per-package limit.
.PHONY: race
race:
	$(GO) test -race -timeout 30m ./...

# checkptr runs the off-heap allocator and its users with the compiler's
# pointer checks on. `make race` builds the allocator's heap fallback, so
# the unsafe conversions of its mmap path are checked only here.
.PHONY: checkptr
checkptr:
	$(GO) test -gcflags=all=-d=checkptr ./internal/offheap/ ./internal/stats/ ./internal/core/

# faulttest runs the fault-injection suite: the filesystem seam, the WAL's
# torn-tail repair, the manager's degraded-mode and quarantine paths, the
# fsyncs of each policy, a flush racing a delete, and the interval flusher
# racing ingest, eviction, deletion and export.
.PHONY: faulttest
faulttest:
	$(GO) test -count=1 ./internal/faultfs/ ./internal/wal/
	$(GO) test -count=1 -run 'TestCorruptSnapshot|TestDegraded|TestSnapshot|TestTorn|TestGenesis|TestFsyncPolicy|TestFlushFailure|TestFlushDuringDelete' ./internal/manager/
	$(GO) test -race -count=10 -run 'TestFlushConcurrent' ./internal/manager/
	$(GO) test -count=1 -run 'TestReadyzReportsDegraded|TestHealthEndpoints' ./internal/serve/

# crashtest runs the model-based fault schedule — ingest batches,
# evict/restore, crash/recover and export/import interleaved at random over
# a scenario-corpus fault — with a pinned seed and a larger iteration budget
# than the default `go test` run, so CI failures reproduce exactly, plus the
# concurrent crash/recover churn. Override the knobs to explore:
#   make crashtest SCHEDULE_SEED=42 SCHEDULE_ITERS=200
SCHEDULE_SEED ?= 1
SCHEDULE_ITERS ?= 40
.PHONY: crashtest
crashtest:
	CAD_SCHEDULE_SEED=$(SCHEDULE_SEED) CAD_SCHEDULE_ITERS=$(SCHEDULE_ITERS) \
		$(GO) test -count=1 -run 'TestFaultSchedule|TestCrashRecover' ./internal/manager/

# alerttest runs the push-delivery suite: bus fan-out and eviction, webhook
# retry/breaker behaviour against flaky endpoints, dead-lettering and DLQ
# drains, and the end-to-end simulator-to-webhook/SSE path.
.PHONY: alerttest
alerttest:
	$(GO) test -count=1 -race ./internal/alert/
	$(GO) test -count=1 -race -run 'TestAlert|TestSSE|TestSinks|TestAnomaliesPag' ./internal/serve/ ./internal/manager/

.PHONY: bench
bench:
	$(GO) test -run XXX -bench . -benchmem ./internal/core/
	$(GO) test -run XXX -bench BenchmarkManagerIngest -benchmem ./internal/manager/

# benchsmoke runs every benchmark exactly once so they can't rot; it makes
# no timing claims (use `make bench` for numbers).
.PHONY: benchsmoke
benchsmoke:
	$(GO) test -run XXX -bench . -benchtime=1x ./internal/core/ ./internal/manager/ \
		./internal/tsg/ ./internal/stats/ ./internal/louvain/ ./internal/serve/

# fuzzsmoke fuzzes every Fuzz target of the root module for 5 s, one
# target per invocation (go test -fuzz takes a single target); the plain
# test run only replays their seed corpora. A failing input is written to
# the package's testdata/fuzz directory; commit it as a regression seed.
.PHONY: fuzzsmoke
fuzzsmoke:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal cmd *.go 2>/dev/null); do \
		for fz in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz ./$$(dirname $$f) $$fz"; \
			$(GO) test -run '^$$' -fuzz "^$$fz$$" -fuzztime=5s ./$$(dirname $$f); \
		done; \
	done

# scenariotest is the detection-quality gate: a fast, pinned-seed subset of
# the scenario corpus re-runs the gate config from BENCH_scenarios.json and
# fails if any scenario's DPA-F1 drops below its committed floor. It also
# schema-checks the artifact, so a hand-edited or truncated baseline fails
# too.
.PHONY: scenariotest
scenariotest:
	$(GO) test -count=1 -run 'TestCommittedMatrix|TestScenarioFloors' ./internal/scenario/

# fleettest is the fleet-correlation acceptance gate: the deterministic
# corpus replay across 32 staggered streams must dedup ≥90% of raw alarm
# signals, emit ≤2 incidents per injected fault, and order every primary
# incident's suspects by ground-truth onset (plus the -race fan-in test).
# `cadeval -fleet` prints the same evaluation as a table.
.PHONY: fleettest
fleettest:
	$(GO) test -count=1 -run 'TestReplay' ./internal/fleet/
	$(GO) test -count=1 -race -run 'TestConcurrentBusFanIn' ./internal/fleet/

# clustertest is the scale-out acceptance gate: ring placement and failover
# properties, the health/probe loop, snapshot + WAL-tail stream migration
# equivalence (the fault schedule's export/import steps), and the 3-node in-process cluster replaying a scenario corpus
# entry with streams sharded across nodes — alarms, anomalies, and
# pagination must match the single-node run, including after one node is
# drained and closed. -race because every request path crosses goroutines.
.PHONY: clustertest
clustertest:
	$(GO) test -count=1 -race ./internal/cluster/
	$(GO) test -count=1 -race -run 'TestFaultSchedule|TestImportRejections' ./internal/manager/
	$(GO) test -count=1 -race -run 'TestCluster' ./internal/serve/

# scenario-record re-runs the full scenario × config evaluation matrix and
# rewrites the committed quality baseline (floors included). Commit the diff
# alongside detector changes so quality shifts are reviewable:
#   make scenario-record && git diff BENCH_scenarios.json
.PHONY: scenario-record
scenario-record:
	$(GO) run ./cmd/cadeval -out BENCH_scenarios.json
