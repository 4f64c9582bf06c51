#!/usr/bin/env python3
"""Checks and folds for the JSON documents the hosts and the gates write.

Every document that leaves a process names its kind and version in a
"schema" key; each check here verifies that key before reading anything
else.

  reports.py metrics FILE...
      Each FILE is a consistent metrics document (metrics_ok).
  reports.py fold GATE STDOUT PASS UTC GIT NPROC [KEY=INT ...]
      Appends one trajectory line to BENCH_<GATE>.json: the stamp, the
      gate's record (the last line of its tee'd STDOUT) without its own
      "pass", the extra KEY=INT fields, and the computed "pass" (PASS,
      and false when the record is missing, unparseable or lacks a key
      RECORD_KEYS requires of the gate).  Exits 1 when it is.
  reports.py trajectory FILE...
      Every non-empty line of each trajectory FILE (BENCH_*.json) parses
      as one JSON object carrying at least the utc, git and pass keys.
  reports.py cli PCPC_CLI OUT_DIR
      Runs pcpc_cli twice with every report armed and checks the four
      documents (the example_pcpc_cli_reports ctest).
  reports.py ipc PCPC_CLI OUT_DIR
      Runs pcpc_cli --impl=ipc with two forked producers and checks its
      metrics and SLO documents: one pair row per producer registry slot
      (the example_pcpc_cli_ipc_reports ctest).
"""
import json
import os
import subprocess
import sys

METRICS_SCHEMA = "pcpc.metrics/1"
SLO_SCHEMA = "pcpc.slo_report/1"
FLEET_SCHEMA = "pcpc.fleet_report/1"
BENCH_SCHEMA = "pcpc.bench/1"
# Keys a gate's record must carry besides schema and bench.
RECORD_KEYS = {
    "ipc_floor": ("create_us", "attach_us", "create_minflt"),
}


class Invalid(Exception):
    pass


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise Invalid(f"{path}: {err}") from None


def require_schema(path, doc, schema):
    if not isinstance(doc, dict):
        raise Invalid(f"{path}: not a JSON object")
    if doc.get("schema") != schema:
        raise Invalid(f"{path}: schema is {doc.get('schema')!r}, expected {schema!r}")


def metrics_ok(path):
    """The document names its schema, holds counters, histograms, wakeups
    and trace, and its wakeups.paid / wakeups.free counters equal the
    ledger section's paid / free.  Returns the parsed document."""
    doc = load(path)
    require_schema(path, doc, METRICS_SCHEMA)
    missing = [k for k in ("counters", "histograms", "wakeups", "trace")
               if not isinstance(doc.get(k), dict)]
    if missing:
        raise Invalid(f"{path}: missing or non-object {missing}")
    for key in ("paid", "free"):
        counter = doc["counters"].get(f"wakeups.{key}")
        ledger = doc["wakeups"].get(key)
        if not isinstance(counter, int) or counter != ledger:
            raise Invalid(f"{path}: counters[\"wakeups.{key}\"] is {counter}, "
                          f"wakeups.{key} is {ledger}")
    return doc


def gate_record(gate, stdout_path):
    """The gate's record: the last line of its stdout, a pcpc.bench/1
    object naming the gate and carrying its RECORD_KEYS."""
    try:
        with open(stdout_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        raise Invalid(f"{stdout_path}: {err}") from None
    if not lines:
        raise Invalid(f"{stdout_path}: no output")
    try:
        record = json.loads(lines[-1])
    except ValueError as err:
        raise Invalid(f"{stdout_path}: last line is not JSON ({err})") from None
    require_schema(stdout_path, record, BENCH_SCHEMA)
    if record.get("bench") != gate:
        raise Invalid(f"{stdout_path}: bench is {record.get('bench')!r}, expected {gate!r}")
    missing = [key for key in RECORD_KEYS.get(gate, ()) if key not in record]
    if missing:
        raise Invalid(f"{stdout_path}: {gate} record lacks {missing}")
    return record


def fold(gate, stdout_path, passed, utc, git, nproc, *extras):
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            load_1m = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        load_1m = None
    line = {"utc": utc, "git": git, "nproc": int(nproc) if nproc.isdigit() else None,
            "loadavg_1m": load_1m}
    ok = True
    try:
        record = gate_record(gate, stdout_path)
        record.pop("pass", None)
    except Invalid as err:
        print(f"bench_smoke: {gate}: {err}", file=sys.stderr)
        record, ok = {"bench": gate}, False
    line.update(record)
    for extra in extras:
        key, _, value = extra.partition("=")
        line[key] = int(value)
    line["pass"] = passed == "true" and ok
    with open(f"BENCH_{gate}.json", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, separators=(",", ":")) + "\n")
    return 0 if ok else 1


def trajectory(paths):
    """Malformed lines (a gate interpolating an empty capture, a half-
    written record from a crashed run) silently poison the trajectory
    history, so every line of every file is checked.  Returns the number
    of bad lines, each reported on stderr."""
    bad = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError as err:
                    problem = f"not JSON ({err})"
                else:
                    if not isinstance(rec, dict):
                        problem = "not a JSON object"
                    else:
                        missing = [k for k in ("utc", "git", "pass") if k not in rec]
                        problem = f"missing keys {missing}" if missing else None
                if problem:
                    print(f"bench_smoke: {path}:{lineno}: {problem}", file=sys.stderr)
                    bad += 1
    return bad


def cli(pcpc_cli, out_dir):
    """Two identical pcpc_cli runs: every document parses, names its
    schema and holds its identities, and the runs write the same bytes."""
    names = ("trace.json", "metrics.json", "slo.json", "fleet.json")
    runs = []
    for run in ("run1", "run2"):
        out = os.path.join(out_dir, run)
        os.makedirs(out, exist_ok=True)
        paths = [os.path.join(out, name) for name in names]
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
        subprocess.run(
            [pcpc_cli, "--impl=pbpl", "--pairs=8", "--cores=4", "--rate=600",
             "--seconds=2", "--fleet=elastic", "--span-every=16",
             f"--trace-out={paths[0]}", f"--metrics-out={paths[1]}",
             f"--slo-report={paths[2]}", f"--fleet-report={paths[3]}"],
            check=True, stdout=subprocess.DEVNULL)
        runs.append(paths)

    trace_path, metrics_path, slo_path, fleet_path = runs[0]
    trace = load(trace_path)
    if not isinstance(trace, dict) or not isinstance(trace.get("traceEvents"), list):
        raise Invalid(f"{trace_path}: no traceEvents array")
    metrics = metrics_ok(metrics_path)
    slo = load(slo_path)
    require_schema(slo_path, slo, SLO_SCHEMA)
    fleet = load(fleet_path)
    require_schema(fleet_path, fleet, FLEET_SCHEMA)

    totals = slo["totals"]
    if totals["produced"] != totals["items"] + totals["drops"]:
        raise Invalid(f"{slo_path}: produced {totals['produced']} != items "
                      f"{totals['items']} + drops {totals['drops']}")
    items = metrics["counters"].get("consumer.items")
    if totals["items"] != items:
        raise Invalid(f"{slo_path}: items {totals['items']} != metrics consumer.items {items}")
    if totals["paid_wakes"] != metrics["wakeups"]["paid"]:
        raise Invalid(f"{slo_path}: paid_wakes {totals['paid_wakes']} != metrics "
                      f"wakeups.paid {metrics['wakeups']['paid']}")
    for key in ("placement", "predicted_rates_hz"):
        if len(fleet[key]) != fleet["pairs"]:
            raise Invalid(f"{fleet_path}: {key} has {len(fleet[key])} entries for "
                          f"{fleet['pairs']} pairs")

    for first, second in zip(*runs):
        with open(first, "rb") as a, open(second, "rb") as b:
            if a.read() != b.read():
                raise Invalid(f"{first} and {second} differ")
    print(f"reports: 4 documents, 2 identical runs; items {items}, "
          f"paid wakes {totals['paid_wakes']}")
    return 0


def ipc(pcpc_cli, out_dir):
    """Two producer processes of 20000 items each: the SLO report's
    totals hold their identities against the metrics document (its paid
    and free wakes are the ledger's), and each producer's registry slot
    is one pair row carrying all of its items."""
    pairs, per_pair = 2, 20000
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.json")
    slo_path = os.path.join(out_dir, "slo.json")
    for path in (metrics_path, slo_path):
        if os.path.exists(path):
            os.remove(path)
    subprocess.run(
        [pcpc_cli, "--impl=ipc", f"--pairs={pairs}", f"--rate={per_pair}",
         "--seconds=1", "--span-every=16", "--ipc-name=/pcpc_cli_reports_ci",
         f"--metrics-out={metrics_path}", f"--slo-report={slo_path}"],
        check=True, stdout=subprocess.DEVNULL)

    metrics = metrics_ok(metrics_path)
    slo = load(slo_path)
    require_schema(slo_path, slo, SLO_SCHEMA)
    totals = slo["totals"]
    if totals["produced"] != totals["items"] + totals["drops"]:
        raise Invalid(f"{slo_path}: produced {totals['produced']} != items "
                      f"{totals['items']} + drops {totals['drops']}")
    for key in ("paid", "free"):
        if totals[f"{key}_wakes"] != metrics["wakeups"][key]:
            raise Invalid(f"{slo_path}: {key}_wakes {totals[f'{key}_wakes']} != metrics "
                          f"wakeups.{key} {metrics['wakeups'][key]}")
    rows = [(row["pair"], row["items"]) for row in slo["pairs"]]
    expected = [(pair, per_pair) for pair in range(pairs)]
    if rows != expected:
        raise Invalid(f"{slo_path}: pair rows (pair, items) are {rows}, expected {expected}")
    print(f"reports: ipc rows {rows}, paid wakes {totals['paid_wakes']}, "
          f"free wakes {totals['free_wakes']}")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[0] == "metrics":
        for path in argv[1:]:
            metrics_ok(path)
        return 0
    if len(argv) >= 7 and argv[0] == "fold":
        return fold(*argv[1:])
    if len(argv) >= 2 and argv[0] == "trajectory":
        return 1 if trajectory(argv[1:]) else 0
    if len(argv) == 3 and argv[0] == "cli":
        return cli(argv[1], argv[2])
    if len(argv) == 3 and argv[0] == "ipc":
        return ipc(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Invalid as err:
        sys.exit(f"reports: {err}")
