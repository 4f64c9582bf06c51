#!/usr/bin/env python3
"""End-to-end benchmark of the PBPL library on its three hosts.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: web_multi (thread host, paced web traces), flood_mpsc (thread
host, saturating MPSC producers), ipc_burst (shm host, forked producers)
and sim_fig9 (deterministic simulation of the Figure 9 setup).

The script builds the library from this checkout's sources into
.bench_build/ (CMake, incremental), runs the benchmark's self-tests, then
runs one workload.  It relays the workload's stamp line and prints, as the
last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 gives the end-to-end metrics, --trace 1
the per-layer metrics (spans land in .bench_out/).  Exit code 0 when
every correctness check held; nonzero otherwise, or when the sources are
missing or the build fails (then no result line is printed).
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("web_multi", "flood_mpsc", "ipc_burst", "sim_fig9")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{cmd[0]} failed: {err}")
        return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to e2ebench/")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300):
            return False
    return run_quiet(["cmake", "--build", BUILD, "-j", "3", "--target",
                      "pbpl_bench", "bench_selftest"], 840)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(args):
    """Runs pbpl_bench in its own process group; returns (rc, stdout)."""
    cmd = [os.path.join(BUILD, "pbpl_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    env = dict(os.environ, E2E_GIT_SHA=git_sha())
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return None, ""
    finally:
        # The ipc workload forks a generator; never leave one behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("build failed; no result")
        return 2
    selftest_ok = run_quiet([os.path.join(BUILD, "bench_selftest")], 60)
    if not selftest_ok:
        log("self-tests failed; the run is marked incorrect")

    rc, out = run_workload(args)
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{args.workload} printed no result (exit code {rc})")
        return 1
    for line in lines[:-1]:
        print(line)
    if not selftest_ok:
        result["correct"] = False
        result["failed"] = max(1, result.get("failed", 0))
    print(json.dumps(result), flush=True)
    return 0 if result.get("correct") and rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
