GO ?= go

.PHONY: all build test vet race race-short race-machine repolint staticcheck govulncheck preflight fuzz check bench profile bench-compare serve-smoke cluster-smoke pipeline-smoke figures clean

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

# The concurrency-sensitive packages outside the machine: the sweep worker
# pool, the linter mpud runs at admission, and the metrics registry both
# daemons observe into (its hammer binds series, observes and renders at
# once), the serve-layer parity, cross-request isolation, warm-pool hammer,
# preemption (of a catalog kernel and of a submitted binary, and two workers
# that each serve latency bursts on a spare machine while their own jobs stay
# paused) and join-until-sealed tests, the router's parity, drain, admission
# and node-load-contract tests, and the FBP pipeline parity tests. The serve
# list contains every serve test the mutation table in CHANGES.md names.
# Timed on a 2-vCPU, 8 GB KVM guest with go1.24, one line after another as
# CI runs them: 2.4 min in all — sweep/lint/obs 42 s (a cold race build
# included; 0.2 GB peak RSS), serve 19 s (0.6 GB), router 15 s (0.2 GB),
# fbp 67 s (2.1 GB), and a 3 s vrf line that has since moved to
# race-machine.
race-short:
	$(GO) test -race -timeout 30m ./internal/sweep ./internal/lint ./internal/obs
	$(GO) test -race -timeout 30m -run 'TestServeParity|TestServeIsolation|TestServePool|TestServePreemptParity|TestServePreemptHandoff|TestServePreemptBinary|TestParkedGauges|TestServeJoin|TestServeLateArrival|TestBatchingCoalesces|TestPipelineSession|TestPipelineLimits' ./internal/serve
	$(GO) test -race -timeout 30m -run 'TestRouterParity|TestRollingDrain|TestFairAdmission|TestRouterPipeline|TestNodeLoadContract' ./internal/router
	$(GO) test -race -timeout 30m -run 'TestPipelineParity' ./internal/fbp

# The machine's race job, the only one. The first line holds the protocols
# where its goroutines meet: the round crew's claim-and-stop protocol
# (TestCrewProtocol), the decode table's concurrent inserts and flushes, two
# cores recording the same kernel pointers, the helper lifetime, the split
# shape, the batched vector I/O split, the deadlock diagnostic at 1 and 4
# workers, and the register-file recycling oracles; with the JIT oracles and
# TestRunStatsNotAliased it holds the tests outside TestMachineMatrix that
# fail on a forged write to a core's state or a JIT counter, or on a wrong
# round split (the mutation tables in CHANGES.md). The second line runs two
# rounds on one shared compiled kernel at once (its group scratch must stay
# on each caller's stack). The last four run every matrix row
# on one kernel per back end in both modes, each as its own process: gcd on
# RACER with both rendezvous pairs, relu on MIMDRAM, ibert-sqrt on
# DualityCache and vecmul on SIMDRAM — dynamic and replayed rounds, fanned
# out and paused, SPMD cores at four workers, and snapshots restored across
# worker counts. The full matrix runs without -race in tier-1. Timed on a
# 2-vCPU, 8 GB KVM guest with go1.24, one line after another as CI runs
# them: 2.8 min in all — the protocol line 66 s (a race build of the
# package included; 1.7 GB peak RSS), vrf 2 s (0.1 GB), gcd/RACER and the
# rendezvous pairs 59 s (0.1 GB), relu/MIMDRAM 4 s (0.2 GB),
# ibert-sqrt/DualityCache 28 s (0.1 GB), vecmul/SIMDRAM 7 s (0.1 GB). The
# apps stay out: their workers4 cells alone took 83 s and 3.4 GB here.
race-machine:
	$(GO) test -race -timeout 30m -run 'TestCrewProtocol|TestDecodeTableHammer|TestExpandConcurrent|TestTraceRunsInstructionKernels|TestFanOutHelperLifetime|TestRoundSplitShape|TestVectorIOParity|TestParallelDeadlock|TestNoResidueAfterReset|TestSpareListBounded|TestResetReuseMatchesFresh|TestRunStatsNotAliased|TestJITParityRandom|FuzzJITParity' ./internal/machine
	$(GO) test -race -timeout 30m -run 'TestRunCompiledGroupsConcurrent' ./internal/vrf
	$(GO) test -race -timeout 30m -run '(TestMachineMatrix|TestTraceParity|TestSnapshotResumeParity)//(gcd|rendezvous-.*)/RACER/' ./internal/machine
	$(GO) test -race -timeout 30m -run '(TestMachineMatrix|TestTraceParity|TestSnapshotResumeParity)//relu/MIMDRAM/' ./internal/machine
	$(GO) test -race -timeout 30m -run '(TestMachineMatrix|TestTraceParity|TestSnapshotResumeParity)//ibert-sqrt/DualityCache/' ./internal/machine
	$(GO) test -race -timeout 30m -run '(TestMachineMatrix|TestTraceParity|TestSnapshotResumeParity)//vecmul/SIMDRAM/' ./internal/machine

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
# Each line runs only its own target (-run '^Target$'): without it, -fuzz
# first runs the package's whole test suite under coverage instrumentation.
# Timed on a 2-vCPU, 8 GB KVM guest with go1.24: the two internal/machine
# lines took 7m53s and 7m57s that way, and take 32 s and 31 s now.
fuzz:
	$(GO) test -run '^FuzzLintSoundness$$' -fuzz=FuzzLintSoundness -fuzztime=30s ./internal/isa
	$(GO) test -run '^FuzzJITParity$$' -fuzz=FuzzJITParity -fuzztime=30s ./internal/machine
	$(GO) test -run '^FuzzCommSoundness$$' -fuzz=FuzzCommSoundness -fuzztime=30s ./internal/lint/comm
	$(GO) test -run '^FuzzSnapshotRoundTrip$$' -fuzz=FuzzSnapshotRoundTrip -fuzztime=30s -fuzzminimizetime=2s ./internal/machine
	$(GO) test -run '^FuzzFBPParse$$' -fuzz=FuzzFBPParse -fuzztime=30s ./internal/fbp
	$(GO) test -run '^FuzzPipelineSoundness$$' -fuzz=FuzzPipelineSoundness -fuzztime=30s ./internal/fbp
	$(GO) test -run '^FuzzLanesDecode$$' -fuzz=FuzzLanesDecode -fuzztime=30s ./internal/serve

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
