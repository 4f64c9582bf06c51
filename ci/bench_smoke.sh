#!/usr/bin/env bash
# Telemetry smoke gate.
#
# Runs the instrumented overhead bench: the identical sim-host workload
# with and without a recording pcpc::obs session (timed from the
# session's construction to its teardown), in back-to-back pairs on
# process CPU time.  Fails when recording costs more than 5% (median
# paired ratio), when the wakeup ledger's Σ w(τ) disagrees with
# the simulator's own paid-wakeup counter, or when the exported
# metrics.json does not hold a consistent metrics document (see
# metrics_ok in ci/reports.py).  Then runs the queue_floor backend
# throughput gate and the shard_scaling runtime gate (4 cores must drain
# a saturated handler-bound workload at >= 1.8x the 1-core rate without
# minting wakeups beyond the slot schedule), the varlen_floor zero-copy
# record gate (in-ring reserve/commit + in-place drain vs the
# staging-copy path), and the ipc_floor
# cross-process gate (forked producers over the shm channel: throughput
# floor, futex-wake frugality, exact no-fault conservation, and the push
# p50 into a consumer asleep past its heartbeat timeout), and the
# fleet_parking elastic-autoscaler gate (at ~10% utilization the
# controller must cut paid wakeups >= 30% and joules/item vs the static
# placement with zero Δ-SLO violations).  Also smoke-runs the chaos
# bench with exporters armed so the trace/metrics plumbing on the thread
# host stays exercised.
#
# Every gate prints its record — one JSON object, schema pcpc.bench/1 —
# as the last line of its stdout (varlen_floor's is printed from its
# --json-out file, see below), and ci/reports.py folds it into one
# line of BENCH_<gate>.json at the repo root: timestamp, git sha (with
# "-dirty" when a tracked file other than BENCH_*.json differs from
# HEAD), the host's CPU count and 1-minute load average, the record's
# keys and the computed `pass` — so the benches keep a trajectory across
# commits instead of only gating.  A missing or unparseable record fails
# its gate.  A failing gate is recorded too, and the script goes on to
# the next one; it exits nonzero at the end if any gate failed.
#
# Usage: ci/bench_smoke.sh [build-dir]     (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
out="${build}/bench_smoke"
mkdir -p "${out}"

stamp="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
# The lines are written before the change under test is committed: mark
# a tree that is not the stamped commit.
if [[ "${sha}" != unknown ]] && ! git diff --quiet HEAD -- . ':(exclude)BENCH_*.json'; then
  sha="${sha}-dirty"
fi
cpus="$(nproc 2>/dev/null || echo null)"

failed_gates=()
# fail <gate>: marks the current gate failed.
fail() {
  pass=false
  failed_gates+=("$1")
}

# gate <name> <attempts> <command...>: runs the command (output teed to
# ${out}/<name>.txt) until it exits 0, at most <attempts> times, and sets
# `pass` from its exit status and `attempts_run` to the attempts it took.
gate() {
  local name="$1" attempts="$2" attempt
  shift 2
  pass=true
  for ((attempt = 1; attempt <= attempts; ++attempt)); do
    attempts_run="${attempt}"
    if "$@" | tee "${out}/${name}.txt"; then return; fi
    echo "bench_smoke: ${name} attempt ${attempt} failed" >&2
  done
  fail "${name}"
}

# record <gate> [KEY=INT ...]: folds the gate's record (the last line of
# its tee'd stdout) and any extra fields into BENCH_<gate>.json with the
# computed `pass`.  A missing or unparseable record still leaves a line,
# with "pass":false, and fails the gate.
record() {
  local gate="$1"
  shift
  python3 ci/reports.py fold "${gate}" "${out}/${gate}.txt" "${pass}" \
    "${stamp}" "${sha}" "${cpus}" "$@" || fail "${gate}"
}

# require <binary>: a gate binary that was not built is a setup error.
require() {
  if [[ ! -x "${build}/bench/$1" ]]; then
    echo "bench_smoke: ${build}/bench/$1 not built" >&2
    echo "bench_smoke: run 'cmake --build ${build} --target $1'" >&2
    exit 2
  fi
}

require obs_overhead
echo "=== obs_overhead: 5% telemetry gate (spans armed too) ==="
# This is a cost *measurement* on a possibly-shared host: neighbour
# contention can only inflate the estimate, never push it below the true
# cost, so any clean attempt certifies the bound.  Retry a stomped run
# before declaring a regression.
gate obs_overhead 3 "${build}/bench/obs_overhead" \
  --metrics-out="${out}/metrics.json" \
  --max-overhead=1.05 \
  --repeats=9 --seconds=30 --pairs=8 --span-every=64
# metrics.json must be a pcpc.metrics/1 document whose wakeups.paid /
# wakeups.free counters equal the ledger section's paid / free.
python3 ci/reports.py metrics "${out}/metrics.json" || fail obs_overhead
# The record of the last attempt: each mode's median paired ratio, which
# alone decides pass, its ratio of minimums as a diagnostic, the min/max
# of the paired ratios and the repeat count.
record obs_overhead "attempts=${attempts_run}"

require queue_floor
echo "=== queue_floor: backend throughput gate ==="
gate queue_floor 1 "${build}/bench/queue_floor"
record queue_floor

require shard_scaling
echo "=== shard_scaling: per-core runtime scaling gate ==="
# The record carries the trial count, the median/min/max items/s and
# scheduled wakeups/s of every configuration, and each gated trial's
# wakeups against the slot-schedule bound.
gate shard_scaling 1 "${build}/bench/shard_scaling" --items=2000 --trials=3
record shard_scaling

require varlen_floor
echo "=== varlen_floor: zero-copy record plane gate ==="
# In-ring reserve/commit + in-place drain vs the staging-copy path:
# >= 1.5x at 4 KiB SPSC, >= 1.2x with 4 MPSC producers.  Bandwidth
# ratios on one box are stable, but a noisy neighbour can stomp either
# side of a pair; retry a stomped run before declaring a regression.
# The bench still writes its record to --json-out, not stdout: its 4 KiB
# ratio follows where the linker places the timed code, so the bench
# stays unedited until its timed loops are pinned and the floor restated
# (ROADMAP.md).  Print the file after each attempt so the record is the
# last line of the tee'd stdout.
run_varlen_floor() {
  rm -f "${out}/varlen_floor.json"
  local status=0
  "${build}/bench/varlen_floor" "$@" --json-out="${out}/varlen_floor.json" || status=$?
  cat "${out}/varlen_floor.json" 2>/dev/null || true
  return "${status}"
}
gate varlen_floor 3 run_varlen_floor --bytes=$((16 << 20)) --trials=3
record varlen_floor

require ipc_floor
echo "=== ipc_floor: cross-process host gate ==="
# The record carries the trial count, the min/max throughput and the
# sleeping-consumer push p50/p99 next to the gated median.
gate ipc_floor 1 "${build}/bench/ipc_floor"
record ipc_floor

require fleet_parking
echo "=== fleet_parking: elastic autoscaler gate ==="
# At the ~10% utilization point the elastic controller must cut paid
# wakeups >= 30% and joules/item vs the static placement with zero Δ-SLO
# violations.  Deterministic sim replay: no retry needed.
gate fleet_parking 1 "${build}/bench/fleet_parking"
record fleet_parking

echo "=== chaos_overload: exporter smoke (thread host) ==="
if "${build}/bench/chaos_overload" "${out}/chaos.csv" \
    --trace-out="${out}/chaos_trace.json" \
    --metrics-out="${out}/chaos_metrics.json" > /dev/null; then
  for f in chaos.csv chaos_trace.json; do
    [[ -s "${out}/${f}" ]] || { echo "bench_smoke: ${out}/${f} missing" >&2; fail chaos_overload; }
  done
  python3 ci/reports.py metrics "${out}/chaos_metrics.json" || fail chaos_overload
else
  fail chaos_overload
fi

echo "=== trajectory files: every BENCH_*.json line must parse ==="
python3 ci/reports.py trajectory BENCH_*.json || fail trajectory_files

if ((${#failed_gates[@]} > 0)); then
  echo "bench_smoke: failed gates: ${failed_gates[*]} (artifacts in ${out}/)" >&2
  exit 1
fi
echo "bench_smoke: all gates clean (artifacts in ${out}/)"
