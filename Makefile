# SOFT reproduction — build/verify entry points.
#
#   make build         compile everything
#   make vet           static analysis
#   make test          full test suite (tier-1 gate: build + test)
#   make race          race-detector pass over the concurrency-sensitive packages
#   make e2e-dist      multi-process distributed exploration e2e (one-cell
#                      soft matrix -addr coordinator + 2 workers + worker
#                      kill, byte-identity vs explore -workers 4)
#   make e2e-matrix    multi-process campaign e2e (2×2 matrix on a 2-worker
#                      fleet, worker kill mid-campaign, byte-identity vs a
#                      fleetless run, warm store re-run)
#   make e2e-serve     campaign-service e2e (submit to soft campaignd,
#                      SIGKILL the daemon mid-campaign, restart on the same
#                      store, byte-identity of the resumed report)
#   make e2e-scenario  scenario determinism e2e (sequential vs 4 workers vs a
#                      2-worker fleet, byte-identity) plus the pinned stateful
#                      ref-vs-ovs regression
#   make dist-demo     run a one-cell fleet campaign and two workers locally
#   make bench         the paper's evaluation benches + parallel scaling benches
#   make bench-solver  solver-stack scaling benches (parallel explore,
#                      per-worker-session crosscheck) — run on multicore
#                      hardware for meaningful numbers
#   make bench-smoke   every scaling bench once (CI bit-rot guard, no timing value)
#   make fmt-check     fail if any Go file needs gofmt
#   make fuzz          the results-file, groups-file and expression-codec
#                      fuzzers, 15 s each
#   make loc           non-test Go line count outside bench/ (the size the
#                      ROADMAP tracks)
#   make check         build + vet + fmt-check + test (what CI should run)
#
# Performance numbers come from the repository benchmark, not from these
# targets: `bash bench/run.sh` runs its workloads and prints end-to-end and
# per-layer metrics (see bench/README.md).

GO ?= go

.PHONY: build vet fmt-check fuzz loc test race e2e-dist e2e-matrix e2e-serve e2e-scenario dist-demo bench bench-solver bench-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l

FUZZTIME ?= 15s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadResults -fuzztime $(FUZZTIME) ./internal/harness/
	$(GO) test -run '^$$' -fuzz FuzzReadGroups -fuzztime $(FUZZTIME) ./internal/group/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/sym/

race:
	$(GO) test -race ./internal/sym/ ./internal/sat/ ./internal/bitblast/ ./internal/symexec/ ./internal/harness/ ./internal/solver/ ./internal/crosscheck/ ./internal/dist/ ./internal/sched/ ./internal/campaignd/ ./internal/scenario/ ./internal/obs/ .

e2e-dist:
	$(GO) test -run TestDistE2E -v ./cmd/soft/

e2e-matrix:
	$(GO) test -run TestMatrixE2E -v ./cmd/soft/

e2e-serve:
	$(GO) test -run TestCampaignServeE2E -v ./cmd/soft/

e2e-scenario:
	$(GO) test -run 'TestScenarioDeterminismAcrossLayouts|TestScenarioExposesStatefulInconsistency' -v .

# A 10-second look at distributed exploration on one machine: a one-cell
# campaign coordinating on an ephemeral-ish port, two workers, the cell's
# results file under /tmp. The matrix process exits once both workers have
# drained the shards.
DIST_DEMO_ADDR ?= 127.0.0.1:7473
dist-demo:
	$(GO) build -o /tmp/soft-dist-demo ./cmd/soft
	@echo "== coordinator on $(DIST_DEMO_ADDR), 2 workers, agent=ref test='Packet Out' =="
	@/tmp/soft-dist-demo matrix -addr $(DIST_DEMO_ADDR) -agents ref -tests "Packet Out" \
		-crosscheck=false -shard-depth 4 -progress -v -timeout 2m \
		-results-dir /tmp/soft-dist-demo-results & \
	sleep 0.3; \
	/tmp/soft-dist-demo work -addr $(DIST_DEMO_ADDR) -name demo-worker-1 -v & \
	/tmp/soft-dist-demo work -addr $(DIST_DEMO_ADDR) -name demo-worker-2 -v & \
	wait
	@echo "== merged results =="
	@head -n 6 /tmp/soft-dist-demo-results/ref--Packet_Out.results
	@echo "   ... (full file: /tmp/soft-dist-demo-results/ref--Packet_Out.results)"

bench:
	$(GO) test -bench=. -benchmem .

bench-solver:
	$(GO) test -run NONE -bench 'ExploreParallel|CrossCheck' -benchmem .

bench-smoke:
	$(GO) test -run NONE -bench 'ExploreParallel|CrossCheck' -benchtime=1x .
	$(GO) build -o /tmp/soft-bench-smoke-bin ./cmd/soft
	@/tmp/soft-bench-smoke-bin explore -scenario "Add Modify" -o /dev/null

check: build vet fmt-check test
