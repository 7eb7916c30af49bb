GO ?= go

.PHONY: all build test vet race race-short race-resume repolint staticcheck govulncheck preflight fuzz check bench profile bench-compare serve-smoke cluster-smoke pipeline-smoke figures clean

# Pinned staticcheck release — CI installs exactly this version so findings
# are reproducible; locally the target is skipped (with a note) when the
# binary is not on PATH, because the build must stay stdlib-only offline.
STATICCHECK_VERSION ?= 2025.1.1

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Repository hygiene rules go vet does not cover: seeded randomness only
# (rand-global-source), bit-plane mutation stays behind internal/vrf
# (bitvec-import), and no http.Server without read and write timeouts
# (http-server-timeouts).
repolint:
	$(GO) run ./cmd/repolint

# Pinned staticcheck, if installed (CI pins $(STATICCHECK_VERSION) via
# `go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)`).
# Offline checkouts without the binary skip the target instead of failing.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

# Known-vulnerability scan over the module graph (stdlib-only here, so it
# effectively audits the toolchain). CI installs the scanner; offline
# checkouts without the binary skip the target instead of failing.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI installs golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Machine-level static verification (commlint) of every shipped kernel and
# application — the same sweep `mastodon preflight` runs before figures.
preflight:
	$(GO) run ./cmd/mastodon preflight

# The race detector slows the simulator ~10x, so the full-suite run needs
# more than `go test`'s default 10m per-package timeout.
race:
	$(GO) test -race -timeout 45m ./...

# The concurrency-sensitive packages only (the sweep worker pool, the linter
# the machine calls from strict mode, and the metrics registry both daemons
# observe into — its hammer binds series, observes and renders at once) plus
# two rounds running one shared compiled kernel at once (its group scratch
# must stay on each caller's stack), the engine-vs-interpreter parity
# difftest, whose replay path shares compiled traces and memoized recipe
# expansions across sweep workers, the concurrent-decode test of the
# process-wide kernel memo, the
# parallel-scheduler parity difftest, which fans cores out across scheduler
# goroutines, the round fan-out parity difftest and helper-lifetime test,
# which split a lone core's thermal rounds across a Run's helpers (every
# round of two or more groups, the chunk floor lowered to 1, helpers that
# park between rounds), the batched vector I/O parity test, which splits
# every transfer of two or more VRFs across two goroutines, the
# register-file recycling oracles (no residue after Reset,
# bounded spare list, reuse after a wide kernel), the serve-layer parity,
# cross-request isolation, warm-pool hammer, preemption/parking (including a
# parked machine resuming on the other worker) and join-until-sealed tests,
# and the router's parity, drain, admission and node-load-contract tests —
# fast enough for every CI run. The
# machine and
# serve lists contain every test CHANGES.md's PR 21 mutation table names:
# they, not a lint rule, are what fails when something outside the run path
# writes a core's state, a JIT counter or the session table. Timed on a
# 2-vCPU, 8 GB KVM guest with go1.24: ≈ 15 min, 2.5 min for the lines
# outside the machine line and 11.9 min for the machine line's tests run one
# process each. As one process the machine line passed 5.8 GB RSS there, and
# TestTraceParity and TestParallelMachine alone passed 4.7 GB unless
# GOMEMLIMIT=1GiB held them to 4.2 and 3.6 GB.
race-short:
	$(GO) test -race -timeout 30m ./internal/sweep ./internal/lint ./internal/obs
	$(GO) test -race -timeout 30m -run 'TestRunCompiledGroupsConcurrent' ./internal/vrf
	$(GO) test -race -timeout 30m -run 'TestTraceParity|TestJITParityRandom|TestExpandConcurrent|TestParallelMachine|TestParallelDeadlock|TestRoundFanOutParity|TestFanOutHelperLifetime|TestSnapshotResumeParityRendezvous|TestSnapshotCompatFixtures|TestRunStatsNotAliased|TestNoResidueAfterReset|TestSpareListBounded|TestResetReuseMatchesFresh|TestVectorIOParity' ./internal/machine
	$(GO) test -race -timeout 30m -run 'TestServeParity|TestServeIsolation|TestServePool|TestServePreemptParity|TestServePreemptHandoff|TestServeNoPreempt|TestParkedGauges|TestServeJoin|TestServeLateArrival|TestBatchingCoalesces|TestPipelineSession|TestPipelineLimits' ./internal/serve
	$(GO) test -race -timeout 30m -run 'TestRouterParity|TestRollingDrain|TestFairAdmission|TestRouterPipeline|TestNodeLoadContract' ./internal/router
	$(GO) test -race -timeout 30m -run 'TestPipelineParity' ./internal/fbp

# The pause/resume difftests under the race detector, a CI job of their own:
# TestPreemptEveryInstruction and TestSnapshotResumeParity visit every
# instruction boundary of the kernels they run, which made them most of
# race-short's time; the preempt difftest pauses interpreted rounds between
# two instructions while their rounds fan out. Each gets a process of its
# own, one per back end for the latter, which bounds each process's memory
# and its share of the timeout. Timed on the same guest: ≈ 27 min
# (TestPreemptEveryInstruction 511 s, RACER 354 s, MIMDRAM 425 s,
# DualityCache 327 s; peak RSS 1.5 GB).
race-resume:
	$(GO) test -race -timeout 30m -run '^TestPreemptEveryInstruction$$' ./internal/machine
	$(GO) test -race -timeout 30m -run '^TestSnapshotResumeParity$$/^RACER$$' ./internal/machine
	$(GO) test -race -timeout 30m -run '^TestSnapshotResumeParity$$/^MIMDRAM$$' ./internal/machine
	$(GO) test -race -timeout 30m -run '^TestSnapshotResumeParity$$/^DualityCache$$' ./internal/machine

# Bounded runs of the differential oracles: random programs the linter
# passes must execute without ensemble or capacity faults, and random
# bodies — straight-line, and wrapped in a data-dependent countdown loop —
# must produce identical planes and stats whether rounds run on the engine's
# kernels or are fully interpreted, and leave register files that recycle to
# the bytes of a new one (as must every snapshot Restore accepts). The comm
# oracle cross-checks commlint against the real scheduler: verdict-clean
# program sets must run, flagged ones must deadlock. The FBP oracles check that the pipeline parser never
# panics and that every graph the compiler accepts is deadlock-free by
# construction (lint-clean and actually runs). The lane codec's oracle
# decodes every body into the server's request type and into a plain
# []uint64 mirror and requires the same values and the same errors.
fuzz:
	$(GO) test -fuzz=FuzzLintSoundness -fuzztime=30s ./internal/isa
	$(GO) test -fuzz=FuzzJITParity -fuzztime=30s ./internal/machine
	$(GO) test -fuzz=FuzzCommSoundness -fuzztime=30s ./internal/lint/comm
	$(GO) test -fuzz=FuzzSnapshotRoundTrip -fuzztime=30s -fuzzminimizetime=2s ./internal/machine
	$(GO) test -fuzz=FuzzFBPParse -fuzztime=30s ./internal/fbp
	$(GO) test -fuzz=FuzzPipelineSoundness -fuzztime=30s ./internal/fbp
	$(GO) test -fuzz=FuzzLanesDecode -fuzztime=30s ./internal/serve

# check is the pre-merge gate: build + vet + full test suite + repo lint +
# staticcheck + govulncheck (each when installed). Run `make race` (full
# suite under the race detector) before touching the sweep engine's
# concurrency.
check: build vet test repolint staticcheck govulncheck

# One iteration of every benchmark — a smoke run (also in CI) that keeps the
# reproduction harness executable; steady-state numbers need larger
# -benchtime.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x

# Function shares of one root benchmark: CPU-profile it and print the top of
# the profile (`make profile BENCH='MachineRun/racer/engine'`). The profile
# and the test binary stay under bench/out/ (git-ignored) for
# `go tool pprof -list`.
profile:
	@test -n "$(BENCH)" || { echo "usage: make profile BENCH=<regexp>"; exit 2; }
	@mkdir -p bench/out
	$(GO) test -run '^$$' -bench '$(BENCH)' -o bench/out/mpu.test -cpuprofile bench/out/cpu.prof .
	$(GO) tool pprof -top -nodecount 25 bench/out/mpu.test bench/out/cpu.prof

# The BENCHMARK.json harness against a saved baseline: run every workload
# into bench/out/new.json (git-ignored), then diff it against BASE — exits
# non-zero on a regression beyond a metric's bound, a rising failed share,
# or a simulated-stats mismatch. Make the baseline with
# `go run ./bench -out old.json` at the commit to compare against.
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<old.json>"; exit 2; }
	$(GO) run ./bench -out bench/out/new.json
	$(GO) run ./bench -compare $(BASE) bench/out/new.json

# End-to-end daemon check (also in CI): start mpud on a random port, hit
# /healthz, execute one kernel, read /metrics, drain on SIGTERM, exit.
serve-smoke:
	$(GO) run ./cmd/mpud -smoke -quiet

# End-to-end cluster check (also in CI): the mpurouter self-test (2-node
# in-process cluster, routed/direct stats parity), then ~5s of open-loop
# Poisson load through a routed 2-node cluster — any dropped request,
# transport error or shed arrival fails the run.
cluster-smoke:
	$(GO) run ./cmd/mpurouter -smoke
	$(GO) run ./cmd/mpuload -nodes 2 -rate 150 -tenants 2 -duration 5s -elements 64 -strict

# End-to-end pipeline check (also in CI): compile a .fbp graph in-process,
# open a persistent session against a self-hosted daemon, stream records
# across requests (the session's machine resident between them), and verify
# the accumulator.
pipeline-smoke:
	$(GO) run ./cmd/mpud -pipeline-smoke -quiet

figures:
	$(GO) run ./cmd/mastodon all

clean:
	$(GO) clean ./...
