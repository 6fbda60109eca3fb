# Build/verify entry points. `make test` is the tier-1 verify path:
# vet + build + full test suite, plus the concurrent packages under the
# race detector: obs (logger/registry/span state) and the worker-pool
# paths introduced by the parallel engine (pool, tensor's pooled MatMul,
# gnn's data-parallel trainer, dataset's parallel Build).
GO ?= go

.PHONY: all build lint test test-race bench benchcmp benchgate fuzz loadsmoke verify

# How long `make fuzz` mutates the MiniC parser (CI uses 10s).
FUZZTIME ?= 30s

# `make bench` output: machine-readable benchmark log (one JSON test
# event per line, the `go test -json` format) and how long each
# benchmark runs. BENCH_6.json is the checked-in snapshot for this
# change; override BENCHJSON to benchmark without clobbering it.
BENCHJSON ?= BENCH_6.json
BENCHTIME ?= 1x

# `make benchcmp` inputs: two bench logs to diff (ns/op and allocs/op).
BENCHOLD ?= BENCH_5.json
BENCHNEW ?= BENCH_6.json

# `make benchgate` settings: which benchmarks the regression gate covers
# (the allocation-sensitive hot paths), how many iterations to average
# over, and which snapshot is the baseline. The fresh run lands in
# BENCH_PR.json (gitignored) so the checked-in baseline never gets
# clobbered by a gate run. GATETIMEPCT is negative by default: the
# baseline was recorded on different hardware than the CI runner, so
# ns/op comparisons are advisory (warn past 25%, never fail) while
# allocs/op — deterministic across machines — stays the hard gate. Set
# GATETIMEPCT=25 for a hard time gate when old and new logs come from
# the same machine.
GATEBENCH ?= TrainStepAllocs|SpMM|ClassifyTracingDisabled|MatMulBlocked|ForwardF32|ForwardI8
GATETIME ?= 5x
GATETIMEPCT ?= -25
BENCHBASE ?= BENCH_6.json
BENCHPR ?= BENCH_PR.json

all: verify

build:
	$(GO) build ./...

lint:
	$(GO) vet ./...

test: build
	$(GO) test ./...
	$(GO) test -race ./internal/obs/... ./internal/pool/... ./internal/tensor/... ./internal/gnn/... ./internal/dataset/... ./internal/serve/...

test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -json -bench=. -benchmem -benchtime=$(BENCHTIME) -run='^$$' . | tee $(BENCHJSON) | \
		grep -o '"Output":"Benchmark[^"]*' | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true

benchcmp:
	$(GO) run ./cmd/benchcmp $(BENCHOLD) $(BENCHNEW)

# Fails (exit 1) when a gated benchmark regresses past the limits: any
# allocs/op growth at all, plus ns/op past GATETIMEPCT when it is
# positive (negative = advisory warnings only; see above). CI runs this
# as the bench-regression job.
benchgate:
	$(GO) test -json -bench='$(GATEBENCH)' -benchmem -benchtime=$(GATETIME) -run='^$$' . > $(BENCHPR)
	$(GO) run ./cmd/benchcmp -gate -gate-bench '$(GATEBENCH)' -max-time-pct $(GATETIMEPCT) -max-allocs-pct 0 $(BENCHBASE) $(BENCHPR)

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/minic/

# Boots the server on the quick seed model and drives it with
# `mvpar loadgen`; fails on any request error. CI's load-smoke job runs
# the same script. DURATION=3s make loadsmoke for a faster local pass.
loadsmoke:
	sh scripts/loadsmoke.sh

verify: lint test
