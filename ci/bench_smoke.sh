#!/usr/bin/env bash
# Telemetry smoke gate.
#
# Runs the instrumented overhead bench: the identical sim-host workload
# with and without a recording pcpc::obs session, timed in back-to-back
# pairs on process CPU time.  Fails when recording costs more than 5%
# (median paired ratio), when the wakeup ledger's Σ w(τ) disagrees with
# the simulator's own paid-wakeup counter, or when the exported
# metrics.json does not hold a consistent metrics document (see
# metrics_ok below).  Then runs the queue_floor backend
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
# Every gate appends one JSON line to BENCH_<gate>.json at the repo
# root — timestamp, git sha, the host's CPU count and 1-minute load
# average, the gate's headline numbers and its computed `pass` — so the
# benches keep a trajectory across commits instead of only gating.  A failing gate is recorded too, and the script goes on to
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
cpus="$(nproc 2>/dev/null || echo null)"
# record <gate> <json-fields>: append one trajectory line for this run,
# stamped with the load average as the gate finished.
record() {
  local load
  load="$(cut -d' ' -f1 /proc/loadavg 2>/dev/null || true)"
  printf '{"utc":"%s","git":"%s","nproc":%s,"loadavg_1m":%s,%s}\n' \
    "${stamp}" "${sha}" "${cpus}" "${load:-null}" "$2" >> "BENCH_$1.json"
}

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

# record_json <gate> <json-file> [fields]: folds the bench's own JSON
# record (plus any extra fields) into the trajectory with the computed
# `pass`; a run that died before writing its record still leaves a line.
record_json() {
  local fields="\"bench\":\"$1\""
  if [[ "$(head -c1 "$2" 2>/dev/null)" == "{" ]]; then
    fields="$(sed 's/^{//;s/}$//;s/,"pass":[a-z]*//' "$2")"
  fi
  record "$1" "${fields}${3:+,$3},\"pass\":${pass}"
}

# metrics_ok <file>: the file parses as one JSON object with counters,
# histograms, wakeups and trace, and its wakeups.paid / wakeups.free
# counters equal the ledger section's paid / free.
metrics_ok() {
  python3 - "$1" <<'PY'
import json, sys

path = sys.argv[1]
try:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
except (OSError, ValueError) as err:
    sys.exit(f"bench_smoke: {path}: {err}")
if not isinstance(doc, dict):
    sys.exit(f"bench_smoke: {path}: not a JSON object")
missing = [k for k in ("counters", "histograms", "wakeups", "trace")
           if not isinstance(doc.get(k), dict)]
if missing:
    sys.exit(f"bench_smoke: {path}: missing or non-object {missing}")
for key in ("paid", "free"):
    counter = doc["counters"].get(f"wakeups.{key}")
    ledger = doc["wakeups"].get(key)
    if not isinstance(counter, int) or counter != ledger:
        sys.exit(f"bench_smoke: {path}: counters[\"wakeups.{key}\"] is {counter}, "
                 f"wakeups.{key} is {ledger}")
PY
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
metrics_ok "${out}/metrics.json" || fail obs_overhead
# The bench's last line is its JSON record of the last attempt: the
# gated estimates that decide pass, both estimators behind each, the
# min/max of the paired ratios and the repeat count.
tail -1 "${out}/obs_overhead.txt" > "${out}/obs_overhead.json"
record_json obs_overhead "${out}/obs_overhead.json" "\"attempts\":${attempts_run}"

require queue_floor
echo "=== queue_floor: backend throughput gate ==="
rm -f "${out}/queue_floor.json"
gate queue_floor 1 "${build}/bench/queue_floor" --json-out="${out}/queue_floor.json"
record_json queue_floor "${out}/queue_floor.json"

require shard_scaling
echo "=== shard_scaling: per-core runtime scaling gate ==="
# The record carries the trial count, the median/min/max items/s and
# scheduled wakeups/s of every configuration, and each gated trial's
# wakeups against the slot-schedule bound.
rm -f "${out}/shard_scaling.json"
gate shard_scaling 1 "${build}/bench/shard_scaling" --items=2000 --trials=3 \
  --json-out="${out}/shard_scaling.json"
record_json shard_scaling "${out}/shard_scaling.json"

require varlen_floor
echo "=== varlen_floor: zero-copy record plane gate ==="
# In-ring reserve/commit + in-place drain vs the staging-copy path:
# >= 1.5x at 4 KiB SPSC, >= 1.2x with 4 MPSC producers.  Bandwidth
# ratios on one box are stable, but a noisy neighbour can stomp either
# side of a pair; retry a stomped run before declaring a regression.
rm -f "${out}/varlen_floor.json"
gate varlen_floor 3 "${build}/bench/varlen_floor" --bytes=$((16 << 20)) --trials=3 \
  --json-out="${out}/varlen_floor.json"
record_json varlen_floor "${out}/varlen_floor.json"

require ipc_floor
echo "=== ipc_floor: cross-process host gate ==="
# The record carries the trial count, the min/max throughput and the
# sleeping-consumer push p50/p99 next to the gated median.
rm -f "${out}/ipc_floor.json"
gate ipc_floor 1 "${build}/bench/ipc_floor" --json-out="${out}/ipc_floor.json"
record_json ipc_floor "${out}/ipc_floor.json"

require fleet_parking
echo "=== fleet_parking: elastic autoscaler gate ==="
# At the ~10% utilization point the elastic controller must cut paid
# wakeups >= 30% and joules/item vs the static placement with zero Δ-SLO
# violations.  Deterministic sim replay: no retry needed.
gate fleet_parking 1 "${build}/bench/fleet_parking"
# The bench's last line is its JSON record.
tail -1 "${out}/fleet_parking.txt" > "${out}/fleet_parking.json"
record_json fleet_parking "${out}/fleet_parking.json"

echo "=== chaos_overload: exporter smoke (thread host) ==="
if "${build}/bench/chaos_overload" "${out}/chaos.csv" \
    --trace-out="${out}/chaos_trace.json" \
    --metrics-out="${out}/chaos_metrics.json" > /dev/null; then
  for f in chaos.csv chaos_trace.json; do
    [[ -s "${out}/${f}" ]] || { echo "bench_smoke: ${out}/${f} missing" >&2; fail chaos_overload; }
  done
  metrics_ok "${out}/chaos_metrics.json" || fail chaos_overload
else
  fail chaos_overload
fi

echo "=== trajectory files: every BENCH_*.json line must parse ==="
# Malformed lines (a gate interpolating an empty capture, a half-written
# record from a crashed run) silently poison the trajectory history, so
# validate every line of every trajectory file: it must parse as one
# JSON object carrying at least utc/git/pass keys.
python3 - BENCH_*.json <<'PY' || fail trajectory_files
import json, sys

bad = 0
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                print(f"bench_smoke: {path}:{lineno}: not JSON ({err})", file=sys.stderr)
                bad += 1
                continue
            if not isinstance(rec, dict):
                print(f"bench_smoke: {path}:{lineno}: not a JSON object", file=sys.stderr)
                bad += 1
                continue
            missing = [k for k in ("utc", "git", "pass") if k not in rec]
            if missing:
                print(f"bench_smoke: {path}:{lineno}: missing keys {missing}",
                      file=sys.stderr)
                bad += 1
sys.exit(1 if bad else 0)
PY

if ((${#failed_gates[@]} > 0)); then
  echo "bench_smoke: failed gates: ${failed_gates[*]} (artifacts in ${out}/)" >&2
  exit 1
fi
echo "bench_smoke: all gates clean (artifacts in ${out}/)"
