#!/usr/bin/env bash
# Sanitizer gate for the concurrency-heavy suites.
#
# Builds the tree twice — once under ThreadSanitizer, once under
# AddressSanitizer+UBSan, both with warnings as errors — and runs the
# chaos/runtime/fuzz suites under each.  These are the tests that
# exercise real threads, the overflow drain paths, the watchdog and the
# stop() races, i.e. exactly the code where a data race or lifetime bug
# would hide from the regular build.  A third pass builds the tree plain
# (warnings as errors) and runs the threaded suites pinned to one CPU, so
# every hand-off between a producer, its manager and a lane owner it
# waits on happens by preemption.
#
# Usage: ci/sanitize.sh [build-dir-prefix]     (default: build-san)
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-san}"

# The suites worth the sanitizer slowdown: every test that spawns real
# threads or drives the fault injector.  IpcCrash forks real producer
# processes — it self-skips under TSan (fork + shm atomics are outside
# TSan's model) and runs fully under ASan/UBSan.  IpcPush drives the
# same channel from threads of one process, so TSan checks it too.  The
# sim engine keeps raw cursors into caller-owned traces (replay streams),
# so its suites run under ASan/UBSan as well.  ObsTally merges the
# ledger shards of concurrent writers, and MetricsExport reads that
# merged snapshot.  The reservation table indexes per-id arrays and
# shifts its slot entries in place, so its suites and the manager step's
# run under ASan/UBSan; the latency recorder's bin table is built on
# first use, which the thread hosts' manager threads reach concurrently.
suite_regex='ReservationTable|StepFixture|ManagerStep|LatencyRecorder|EventQueue|Simulator|Replay|SimReplay|ChaosRuntime|ChaosBaseline|ChaosSim|FaultInjector|ApplyProducerFaults|ThreadPbpl|ThreadBaseline|TraceReplayer|RuntimeChaosFuzz|RuntimeSharding|BufferPool|ElasticBuffer|QueueDifferential|QueueFuzz|IpcCrash|IpcPush|ObsIpc|ObsAttribution|ObsTally|TraceRing|Session|WakeupLedger|MetricsExport|Fleet|example_chaos_demo|example_live_threads'

run_pass() {
  local name="$1" sanitize="$2"
  local dir="${prefix}-${name}"
  echo "=== ${name}: configure (${sanitize}) ==="
  cmake -B "${dir}" -S . -DPCPC_SANITIZE="${sanitize}" -DPCPC_WERROR=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "=== ${name}: build ==="
  cmake --build "${dir}" -j "$(nproc)" \
    --target test_sim test_reservation test_manager_step test_latency_recorder \
             test_chaos_runtime test_fault_injection test_runtime \
             test_runtime_sharding test_fleet \
             test_fuzz_pbpl test_pool_handoff test_obs test_obs_ledger test_obs_export \
             test_queue_differential test_queue_fuzz test_ipc_crash \
             test_ipc_push test_obs_ipc chaos_demo live_threads
  echo "=== ${name}: test ==="
  ctest --test-dir "${dir}" --output-on-failure -R "${suite_regex}"
}

# The preemption tier: every thread of these suites shares CPU 0.
pinned_regex='QueueFuzz|QueueDifferential|RuntimeSharding|ChaosRuntime|RuntimeChaosFuzz|ThreadPbpl|ThreadBaseline|Fleet|ObsIpc|IpcCrash'

run_pinned() {
  local dir="${prefix}-pinned"
  echo "=== pinned: configure (plain) ==="
  cmake -B "${dir}" -S . -DPCPC_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  echo "=== pinned: build ==="
  cmake --build "${dir}" -j "$(nproc)" \
    --target test_chaos_runtime test_runtime test_runtime_sharding test_fleet \
             test_fuzz_pbpl test_queue_differential test_queue_fuzz test_ipc_crash \
             test_obs_ipc
  echo "=== pinned: test (taskset -c 0) ==="
  taskset -c 0 ctest --test-dir "${dir}" --output-on-failure -R "${pinned_regex}"
}

# TSan and ASan cannot be combined in one binary; run two passes, then
# the pinned one.
run_pass tsan thread
run_pass asan address,undefined
run_pinned

echo "sanitize: all passes clean"
