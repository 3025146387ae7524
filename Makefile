# Tier-1 verification and CI targets. `make check` is the pre-merge
# gate; `make short` skips the chaos soak for fast iteration.

GO ?= go

.PHONY: check vet build test race short bench bench-smoke bench-json nemesis soak-smoke

check: vet test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The resilience acceptance gate: transport, staging, and the
# fail-stop recovery stack under the race detector (includes the chaos
# soak, lifecycle, supervised-recovery, log-replication, multiplexing
# concurrency, and frame-corruption tests, plus the crash-consistency
# state machines: wlog, ckpt, pfs, the cold tier — the parallel EC
# kernel, and the admission-control/QoS layer).
race:
	$(GO) test -race ./internal/transport/... ./internal/staging/... ./internal/ec/... ./internal/health/... ./internal/recovery/... ./internal/corec/... ./internal/wlog/... ./internal/ckpt/... ./internal/pfs/... ./internal/tier/... ./internal/qos/... ./internal/trace/...

# Fast loop: -short skips the chaos soak and other slow tests.
short:
	$(GO) test -short ./...

# Short nemesis soak under the race detector: seeded supervisor/server
# kill schedules over the HA-recovery stack (leader killed at every
# promotion stage, deposed-leader fencing, spare exhaustion, chaos,
# the tenant-overload soak composing fail-stops with a shed flood, and
# the storage-fault tier soak tearing, rotting, and ENOSPC-failing the
# PFS cold tier underneath a spilling, fail-stopping group). Runs at
# GOMAXPROCS 1 and 2: the single-CPU schedule orders the harness's
# goroutines differently and has exposed losses the 2-CPU one hid.
nemesis:
	$(GO) test -race -run 'TestNemesis' -count=1 -cpu 1,2 -timeout 10m ./internal/workflow/

# Bounded churn-soak gate: replay the checked-in regression traces
# and the record-vs-replay determinism tests, then run two fresh
# wfbench soak seeds end to end (record, execute, replay, compare
# digests). Stays well under two minutes.
soak-smoke:
	$(GO) test -run 'TestSoakReplayDeterministic|TestSoakDivergenceDeterministic|TestReplayRegression' -count=1 -timeout 5m ./internal/workflow/
	$(GO) run ./cmd/wfbench -exp soak -seeds 2 -trace-dir .

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# One-iteration compile-and-run pass over the data-plane benchmarks
# (including the admission fast path, the wlog event/delta paths, and
# the PFS/cold-tier record paths); catches bit-rot without the cost of
# real measurement.
bench-smoke:
	$(GO) test -bench . -benchtime=1x -run=^$$ ./internal/transport ./internal/ec ./internal/qos ./internal/wlog ./internal/pfs ./internal/tier

# Full data-plane measurement: serialized seed transport vs the
# multiplexed fast path, the EC encode kernel and the tenant
# overload/QoS contrast, and the cold-tier spill/promote/replication
# readings, recorded as JSON.
bench-json:
	$(GO) run ./cmd/wfbench -exp transport -out BENCH_transport.json
	$(GO) run ./cmd/wfbench -exp overload -out-overload BENCH_overload.json
	$(GO) run ./cmd/wfbench -exp tier -out BENCH_tier.json
