#!/usr/bin/env sh
# loadsmoke: boot the server on the quick seed model, drive it
# with `mvpar loadgen`, and fail on any request error. CI's load-smoke
# job and `make loadsmoke` both run this script, so local runs reproduce
# the CI check exactly.
#
# Environment knobs (all optional):
#   DURATION   measured window               (default 10s)
#   WARMUP     unrecorded warm-up traffic    (default 2s)
#   ADDR       listen address                (default 127.0.0.1:18080)
#   OUT        where the JSON report lands   (default loadgen_report.json)
#   BASELINE   loadgate baseline to compare  (default LOAD_BASELINE.json)
set -eu

DURATION="${DURATION:-10s}"
WARMUP="${WARMUP:-2s}"
ADDR="${ADDR:-127.0.0.1:18080}"
OUT="${OUT:-loadgen_report.json}"
BASELINE="${BASELINE:-LOAD_BASELINE.json}"
BIN="${BIN:-bin/mvpar}"

go build -o "$BIN" ./cmd/mvpar

# The benchmark's server configuration (mvbench/server.go): the quick
# seed model plus an int8 view of its weights as a second registry
# model, so the smoke run boots the multi-model registry too.
"$BIN" serve -addr "$ADDR" -quick -models fast=@int8 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT INT TERM

# Training the quick seed model dominates startup; poll readiness.
ready=0
i=0
while [ "$i" -lt 120 ]; do
  if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
    ready=1
    break
  fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "loadsmoke: server exited before becoming ready" >&2
    exit 1
  fi
  i=$((i + 1))
  sleep 1
done
if [ "$ready" -ne 1 ]; then
  echo "loadsmoke: server not ready after 120s" >&2
  exit 1
fi

# Closed-loop run against the built-in corpus; -max-errors 0 makes any
# non-200/429 response fail the smoke.
"$BIN" loadgen -url "http://$ADDR" \
  -duration "$DURATION" -warmup "$WARMUP" -max-errors 0 -out "$OUT"

# Advisory regression comparison against the checked-in baseline: load
# numbers vary across runners, so a miss is reported, not fatal (the
# hard gate is `mvpar loadgate` run deliberately on stable hardware).
if [ -f "$BASELINE" ]; then
  "$BIN" loadgate -baseline "$BASELINE" -report "$OUT" || \
    echo "loadsmoke: advisory loadgate comparison failed (non-fatal on CI hardware)" >&2
fi
