#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about 15 s).

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it runs the benchmark once untraced and once traced,
validates the emitted documents with `gentrius_parallel::obs::json::validate`
(through `perfbench validate`), and checks that every metric named in
BENCHMARK.json is present with its unit. It then shows that a deliberately
corrupted output makes the error rate and the exit code non-zero, and that
the benchmark refuses to run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
WORK = ROOT / ".bench_work" / "smoke"
failures = []


def helper_path():
    """Where run.py builds the helper (same rule as its `build`)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "release" / "perfbench"


def bench(*args, cwd=ROOT):
    cmd = ["python3", "perfbench/run.py", "--seed", "3", "--seconds", "1", "--scale", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def validate(text, name):
    path = WORK / f"{name}.json"
    path.write_text(text)
    r = subprocess.run([str(helper_path()), "validate", str(path)], capture_output=True, text=True)
    expect(r.returncode == 0, f"{name} is valid JSON" + (f" ({r.stderr.strip()})" if r.returncode else ""))


def check_run(w, trace):
    name = f"{w} --trace {trace}"
    r = bench("--workload", w, "--trace", str(trace))
    lines = r.stdout.strip().splitlines()
    ok = r.returncode == 0 and bool(lines)
    expect(ok, f"{name}: exit 0" + ("" if ok else f" ({r.stderr.strip()[-300:]})"))
    if not lines:
        return
    validate(lines[-1], f"{w}-t{trace}-result")
    doc = json.loads(lines[-1])
    expect(sorted(doc) == ["attempted", "correct", "failed", "metrics"], f"{name}: result keys")
    expect(doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1,
           f"{name}: correct, {doc['attempted']} attempted, {doc['failed']} failed")
    for m in SPEC["per_layer"] if trace else SPEC["end_to_end"]:
        got = doc["metrics"].get(m["name"])
        present = got is not None and got["unit"] == m["unit"]
        expect(present, f"{name}: {m['name']} present in {m['unit']}")
        if present and not trace:
            expect(got["value"] > 0, f"{name}: {m['name']} = {got['value']:.6g} > 0")
    records = [l.split("record: ", 1)[1].split(";")[0] for l in lines if l.startswith("record: ")]
    expect(len(records) == 1, f"{name}: wrote its record")
    if records:
        validate((ROOT / records[0]).read_text(), f"{w}-t{trace}-record")


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    for w in WORKLOADS:
        for trace in (0, 1):
            check_run(w, trace)

    for w in WORKLOADS:
        r = bench("--workload", w, "--trace", "0", "--corrupt")
        lines = r.stdout.strip().splitlines()
        doc = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        expect(r.returncode != 0 and doc is not None and not doc["correct"]
               and doc["failed"] / doc["attempted"] > 0,
               f"{w} --corrupt: non-zero error rate and exit code")

    # Only BENCHMARK.json and the benchmark's own files: nothing to build.
    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("target"))
    r = bench("--workload", "deadend-count", "--trace", "0", cwd=bare)
    tail = r.stdout.strip().splitlines()[-1:] or [""]
    expect(r.returncode != 0 and not tail[0].startswith("{"),
           "without the repository's sources: non-zero exit and no result")

    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
