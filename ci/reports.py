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
      and false when the record is missing or unparseable).  Exits 1
      when the record is missing or unparseable.
  reports.py cli PCPC_CLI OUT_DIR
      Runs pcpc_cli twice with every report armed and checks the four
      documents (the example_pcpc_cli_reports ctest).
"""
import json
import os
import subprocess
import sys

METRICS_SCHEMA = "pcpc.metrics/1"
SLO_SCHEMA = "pcpc.slo_report/1"
FLEET_SCHEMA = "pcpc.fleet_report/1"
BENCH_SCHEMA = "pcpc.bench/1"


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
    object naming the gate."""
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


def main(argv):
    if len(argv) >= 2 and argv[0] == "metrics":
        for path in argv[1:]:
            metrics_ok(path)
        return 0
    if len(argv) >= 7 and argv[0] == "fold":
        return fold(*argv[1:])
    if len(argv) == 3 and argv[0] == "cli":
        return cli(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Invalid as err:
        sys.exit(f"reports: {err}")
