#!/usr/bin/env bash
# Digests of the deterministic sim outputs.
#
# Prints one "name sha256" line per output: the stdout of each of the
# twelve deterministic sim benches, then the two power-trace CSVs that
# fig1_idle_overhead writes (into a temporary directory, which is the
# working directory of every bench here).  These outputs depend only on
# the code, so a change that must not move a printed sim result prints
# the same lines as its parent: diff the two builds' outputs.
#
# Usage: ci/sim_digest.sh [build-dir]     (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
bench="$(realpath "${1:-build}")/bench"
benches=(fig1_idle_overhead fig3_profile fig4_power fig9_five_consumers
         fig10_scalability fig11_buffer_size table_overflow_stats ablation_pbpl
         ablation_assignment ablation_race_to_idle related_timer_coalescing
         fleet_parking)

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT
for name in "${benches[@]}"; do
  (cd "${tmp}" && "${bench}/${name}") > "${tmp}/stdout" ||
    { echo "sim_digest: ${name} exited with status $?" >&2; exit 1; }
  digest="$(sha256sum < "${tmp}/stdout")"
  echo "${name} ${digest%% *}"
done
for csv in fig1_scattered.csv fig1_grouped.csv; do
  digest="$(sha256sum < "${tmp}/${csv}")"
  echo "${csv} ${digest%% *}"
done
