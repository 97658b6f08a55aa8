#!/usr/bin/env python3
"""End-to-end stand-pipeline benchmark for gentrius.

Run from the repository root:

    python3 perfbench/run.py --workload blowup-write --seed 1 --seconds 25 --trace 0

Builds the `gentrius` binary and the `perfbench` helper from source, writes
the workload's inputs from the seed, then runs the real pipeline (the CLI as
a child process, two worker threads) in a closed loop for `--seconds`,
checking every output outside the timed region. With `--trace 1` half of
the time goes to untraced runs and half to the helper's traced run, which
splits the traced wall time over the program's layers. The last line of
stdout is one JSON object: correct, attempted, failed and the metrics
named in BENCHMARK.json. The full record (host fingerprint, load, every
run with its timestamp) goes to .bench_results/. See README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADS = 2
WORKLOADS = ("blowup-write", "deadend-count", "deadend-ckpt", "stand-read")
# blowup_cap: stand-tree cap of blowup-write; read_cap: trees in the
# stand-read container; ckpt_every: deadend-ckpt's checkpoint cadence (s).
# stand-read writes its source container again after every
# CONTAINER_SAMPLE_EVERY-th run, as a set-up sample spread over the loop.
SIZES = {
    "full": {"blowup_cap": 10_000, "read_cap": 20_000, "ckpt_every": 0.25},
    "tiny": {"blowup_cap": 300, "read_cap": 300, "ckpt_every": 0.005},
}
CONTAINER_SAMPLE_EVERY = 4
CHILD_TIMEOUT_S = 150


def log(msg):
    print(msg, flush=True)


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def build():
    """Builds both binaries into CARGO_TARGET_DIR (default .bench_build)."""
    for need in ("Cargo.toml", "crates/cli/Cargo.toml", "perfbench/Cargo.toml"):
        if not (ROOT / need).is_file():
            die(f"{need} not found: run from a full checkout of the repository")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "gentrius-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            die(f"build failed: {' '.join(cmd)}", 1)
    return target / "release" / "gentrius", target / "release" / "perfbench"


def spawn(cmd, stdout_path):
    """Runs `cmd` with stdout to a file; returns (wall s, peak RSS MB, exit code)."""
    with open(stdout_path, "wb") as out, open(f"{stdout_path}.err", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        watchdog.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, p.returncode


def helper(pb, *args):
    r = subprocess.run([str(pb), *map(str, args)], cwd=ROOT, capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"perfbench {args[0]}: {r.stderr.strip()}")
    return json.loads(r.stdout)


def parse_summary(text):
    """The counts `gentrius stand` prints."""
    s = {}
    for key, pat in (
        ("trees", r"^stand trees: (\d+)"),
        ("states", r"^intermediate states: (\d+)"),
        ("dead_ends", r"^dead ends: (\d+)"),
        ("epochs", r"^checkpoint epochs: (\d+)"),
        ("written", r"^wrote (\d+) trees to "),
    ):
        m = re.search(pat, text, re.M)
        if m:
            s[key] = int(m.group(1))
    m = re.search(r"^status: (.*)$", text, re.M)
    s["status"] = m.group(1) if m else None
    return s


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def cpu_steal_s():
    """Seconds of CPU time the hypervisor has taken from this VM so far."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def host_fingerprint():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu_model": model}


class Bench:
    def __init__(self, args, gentrius, pb, work):
        self.w = args.workload
        self.seed = args.seed
        self.size = SIZES[args.scale]
        self.scale = args.scale
        self.corrupt = args.corrupt
        self.g = gentrius
        self.pb = pb
        self.work = work
        self.dataset = work / "input.dataset"
        self.out = work / ("out.stand" if self.w in ("blowup-write", "deadend-ckpt") else "out.txt")
        self.expect = {}
        self.input_s = []
        self.container_s = []
        self.gen_s = []
        self.runs = []
        self.traced = []

    # -- set-up ----------------------------------------------------------

    def sample_setup(self, reps):
        """Generates and writes the dataset `reps` times over.

        That takes well under a millisecond, less than starting a process,
        so the helper times each repetition in-process. Samples are taken at
        the start and again after every run, so that they span the same
        stretch of time as the runs do.
        """
        gen = helper(self.pb, "gen", "--workload", self.w, "--seed", self.seed,
                     "--out", self.dataset, "--scale", self.scale, "--repeat", reps)
        self.gen_s += gen["gen_s"]
        self.input_s += gen["setup_s"]
        return gen

    def setup(self):
        """Writes the inputs and records what the checks compare against."""
        gen = self.sample_setup(51)
        self.dataset_name = gen["dataset"]
        self.expect["totals"] = gen.get("totals")
        if self.w == "stand-read":
            # Set-up also writes the source container, about a second per
            # sample. The first write is the container the runs read; the
            # loop takes more samples (`sample_container`).
            src = self.work / "src.stand"
            self.sample_container(src)
            self.expect["container_sha256"] = sha256(src)
            for _ in range(2):
                self.sample_container(self.work / "sample.stand")
            # Reference output, recorded outside the timed set-up.
            ref = self.work / "ref.txt"
            _, _, rc = spawn([self.g, "stand", "cat", src], ref)
            if rc != 0:
                raise RuntimeError(f"reference stand cat exited {rc}")
            self.expect["lines"] = ref.read_bytes().count(b"\n")
            self.expect["sha256"] = sha256(ref)
            self.expect["bytes"] = src.stat().st_size
        if self.w == "deadend-ckpt":
            # A clean run of the same command without the cadence: its stand
            # set is the reference, its wall time the unpaced half of the
            # checkpoint-overhead pair.
            clean = self.work / "clean.stand"
            wall, _, rc = spawn([self.g, "stand", "--dataset", self.dataset, "--threads", THREADS,
                                 "--output", clean], self.work / "clean.txt")
            if rc != 0:
                raise RuntimeError(f"clean reference run exited {rc}")
            self.expect["digest"] = helper(self.pb, "digest", clean)
            self.expect["clean_s"] = wall
            clean.unlink()

    def sample_container(self, dest):
        """Writes the stand-read source container to `dest` as a new file
        and records the wall time. The serial path writes trees in a fixed
        order, so every sample must be byte-identical to the first."""
        dest.unlink(missing_ok=True)
        wall, _, rc = spawn([self.g, "stand", "--dataset", self.dataset,
                             "--max-trees", self.size["read_cap"], "--output", dest],
                            self.work / "setup.txt")
        if rc != 0:
            raise RuntimeError(f"set-up container write exited {rc}")
        if "container_sha256" in self.expect and sha256(dest) != self.expect["container_sha256"]:
            raise RuntimeError("set-up container write is not byte-identical to the first")
        self.container_s.append(wall)

    # -- one closed-loop iteration ----------------------------------------

    def command(self):
        base = [self.g, "stand", "--dataset", self.dataset, "--threads", THREADS]
        if self.w == "blowup-write":
            return base + ["--max-trees", self.size["blowup_cap"], "--output", self.out]
        if self.w == "deadend-count":
            return base
        if self.w == "deadend-ckpt":
            return base + ["--output", self.out, "--checkpoint-every", self.size["ckpt_every"]]
        return [self.g, "stand", "cat", self.work / "src.stand"]

    def iteration(self):
        summary_path = self.work / "summary.txt"
        # Each run writes new files, as a first run does: overwriting the
        # previous outputs would time the file system's block release.
        self.out.unlink(missing_ok=True)
        summary_path.unlink(missing_ok=True)
        started = time.time()
        stdout = self.out if self.w == "stand-read" else summary_path
        wall, rss, rc = spawn(self.command(), stdout)
        if self.corrupt:
            self.damage(summary_path)
        problems = [f"exit code {rc}"] if rc != 0 else []
        summary = parse_summary(summary_path.read_text()) if stdout == summary_path else {}
        if not problems:
            problems = self.check(summary, self.out)
        if self.w == "stand-read":
            trees = self.expect["lines"]
            events = trees
        else:
            trees = summary.get("trees", 0)
            events = trees + summary.get("states", 0)
        rec = {"t": started, "wall_s": wall, "rss_mb": rss, "trees": trees, "events": events,
               "ok": not problems, "problems": problems}
        if "epochs" in summary:
            rec["epochs"] = summary["epochs"]
        if self.out.suffix == ".stand" and self.out.exists():
            rec["bytes"] = self.out.stat().st_size
        self.runs.append(rec)
        if self.w != "stand-read":
            self.sample_setup(25)
        elif len(self.runs) % CONTAINER_SAMPLE_EVERY == 0:
            self.sample_container(self.work / "sample.stand")
        return rec

    def setup_time(self):
        """Set-up time: the fastest input write, plus the fastest write of
        the source container for stand-read. The samples are short and
        many, so their median follows the host's slow phases (README); the
        fastest sample gives the cost of the work itself."""
        return min(self.input_s) + min(self.container_s, default=0.0)

    def damage(self, summary_path):
        """Corrupts the iteration's output (smoke test of the checks)."""
        target = summary_path if self.w == "deadend-count" else self.out
        data = bytearray(target.read_bytes())
        if self.w == "deadend-count":
            data = data.replace(b"dead ends: ", b"dead ends: 1")
        elif target.suffix == ".stand":
            del data[-1:]
        elif data:
            data[len(data) // 2] ^= 0x5A
        target.write_bytes(bytes(data))

    def check_totals(self, s):
        problems = []
        got = [s.get("trees"), s.get("states"), s.get("dead_ends")]
        if got != self.expect["totals"]:
            problems.append(f"totals {got} != expected {self.expect['totals']}")
        if s.get("status") != "complete enumeration":
            problems.append(f"status: {s.get('status')}")
        return problems

    def check(self, s, out):
        """Correctness of one output; returns the problems found."""
        try:
            if self.w == "blowup-write":
                d = helper(self.pb, "digest", out)
                problems = []
                if not (s.get("trees") == s.get("written") == d["trees"]):
                    problems.append(f"container holds {d['trees']} trees, summary says "
                                    f"{s.get('trees')} / wrote {s.get('written')}")
                if d["distinct"] != d["trees"]:
                    problems.append(f"{d['trees'] - d['distinct']} duplicate codes")
                return problems
            if self.w == "deadend-count":
                return self.check_totals(s)
            if self.w == "deadend-ckpt":
                problems = self.check_totals(s)
                d = helper(self.pb, "digest", out)
                if d != self.expect["digest"]:
                    problems.append(f"stand set {d} differs from the clean run's "
                                    f"{self.expect['digest']}")
                if s.get("epochs", 1) < 2:
                    problems.append("no checkpoint epoch fired")
                leftovers = [p.name for p in self.work.iterdir()
                             if p.name.startswith(out.name) and p.name != out.name]
                if leftovers:
                    problems.append(f"left behind: {sorted(leftovers)}")
                return problems
            lines = out.read_bytes().count(b"\n")
            if (lines, sha256(out)) != (self.expect["lines"], self.expect["sha256"]):
                return [f"stand cat output differs from set-up ({lines} lines)"]
            return []
        except (RuntimeError, KeyError, ValueError, OSError) as e:
            return [f"check failed: {e}"]

    # -- traced run ---------------------------------------------------------

    def traced_run(self, first):
        args = ["trace", "--workload", self.w, "--dir", self.work, "--run-id", len(self.traced)]
        if self.w == "stand-read":
            args += ["--container", self.work / "src.stand"]
        else:
            args += ["--dataset", self.dataset]
        if self.w == "blowup-write":
            args += ["--max-trees", self.size["blowup_cap"]]
        if self.w == "deadend-ckpt":
            args += ["--checkpoint-every", self.size["ckpt_every"]]
        if self.w == "deadend-count" and first:
            args += ["--serial", "1"]
        for stale in ("cat.out", "traced.stand"):
            (self.work / stale).unlink(missing_ok=True)
        started = time.time()
        try:
            doc = helper(self.pb, *args)
        except (RuntimeError, ValueError) as e:
            doc = {"problems": [str(e)]}
        doc["t"] = started
        if "problems" not in doc:
            doc["problems"] = self.check_traced(doc)
        self.traced.append(doc)
        return doc

    def check_traced(self, doc):
        problems = []
        if self.w == "stand-read":
            problems += self.check({}, self.work / "cat.out")
        else:
            s = {"trees": doc["stand_trees"], "states": doc["intermediate_states"],
                 "dead_ends": doc["dead_ends"], "written": doc["output_trees"],
                 "status": "complete enumeration"}
            if self.w == "blowup-write":
                problems += self.check(s, self.work / "traced.stand")
            elif self.w == "deadend-count":
                problems += self.check_totals(s)
            else:
                problems += self.check_totals(s)
                d = helper(self.pb, "digest", self.work / "traced.stand")
                if d != self.expect["digest"]:
                    problems.append("traced stand set differs from the clean run's")
        # Bookkeeping: the helper books every second of the traced wall to
        # one layer, so the sum holds unless the helper's ledger is broken.
        total = sum(doc["self_s"].values())
        if abs(total - doc["wall_s"]) > 1e-6 * max(1.0, doc["wall_s"]):
            problems.append(f"layer self times sum to {total}, wall is {doc['wall_s']}")
        # A layer's measured time exceeding its span's share shows as a
        # negative remainder.
        negative = {k: v for k, v in doc["self_s"].items() if v < -1e-4 * doc["wall_s"]}
        if negative:
            problems.append(f"negative self times {negative}")
        if self.w != "stand-read":
            # The engine hands the sink each stand tree once; the writing
            # sinks encode each of them, the count-only run none.
            m = doc["metrics"]
            calls, encodes = m["sink.calls"], m["phylo2vec.encodes"]
            if calls != doc["stand_trees"]:
                problems.append(f"engine handed the sink {calls:.0f} trees, "
                                f"counted {doc['stand_trees']}")
            expect = 0 if self.w == "deadend-count" else calls
            if encodes != expect:
                problems.append(f"{encodes:.0f} trees encoded, expected {expect:.0f}")
            if self.w == "deadend-count" and doc["self_s"].get("phylo2vec.encode", 0.0) != 0.0:
                problems.append("count-only run attributed time to phylo2vec.encode")
        return problems


def layer_metrics(bench, doc, good):
    """Per-layer figures of one traced run, by the names in the README;
    the tracing overhead is the median over all good traced runs."""
    wall = doc["wall_s"]
    m = dict(doc["metrics"])
    for layer, s in doc["self_s"].items():
        m[f"{layer}.self_pct"] = 100.0 * s / wall if wall > 0 else 0.0
    m["commands.other_s"] = doc["self_s"].get("commands.other", 0.0)
    m["datagen.gen_s"] = median(bench.gen_s)
    m["trace.wall_s"] = wall
    for k in ("trace.overhead_s", "trace.overhead_pct"):
        m[k] = median([d["metrics"][k] for d in good])
    trees = doc.get("output_trees", 0)
    m["container.bytes_per_tree"] = m.get("container.bytes", 0.0) / trees if trees else 0.0
    ok_runs = [r for r in bench.runs if r["ok"]]
    if bench.w == "deadend-ckpt":
        m["ckpt.epochs"] = median([r["epochs"] for r in ok_runs if "epochs" in r])
        m["ckpt.overhead_s"] = statistics.mean(r["wall_s"] for r in ok_runs) - bench.expect["clean_s"]
    for t in bench.traced:
        for k in ("driver.serial_s", f"engine.speedup_{THREADS}t"):
            if k in t.get("metrics", {}):
                m[k] = t["metrics"][k]
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SIZES), default="full",
                    help="input size; 'tiny' is the smoke test's")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage every output before its check (smoke test of the checks)")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gentrius, pb = build()

    host = host_fingerprint()
    load_before = os.getloadavg()
    steal_before = cpu_steal_s()
    log(f"host: {host['cores']} cores, {host['cpu_model']}; load {load_before[0]:.2f}")
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args, gentrius, pb, work)
    try:
        bench.setup()
        log(f"workload {args.workload}: dataset {bench.dataset_name} (seed {args.seed})")

        untraced_budget = args.seconds / 2 if args.trace else args.seconds
        t0 = time.perf_counter()
        while True:
            rec = bench.iteration()
            log(f"  run {len(bench.runs):3d} @{rec['t']:.3f}: {rec['wall_s']:.4f}s "
                f"rss {rec['rss_mb']:.1f}MB{'' if rec['ok'] else ' FAILED: ' + '; '.join(rec['problems'])}")
            if time.perf_counter() - t0 + rec["wall_s"] > untraced_budget:
                break
        ok = [r for r in bench.runs if r["ok"]] or bench.runs
        # Means over the whole loop, not medians: see README, "Host noise".
        walls = sorted(r["wall_s"] for r in ok)
        busy = sum(walls)
        run_s = busy / len(walls)
        e2e = {
            "setup_s": bench.setup_time(),
            "run_s": run_s,
            "events_per_s": sum(r["events"] for r in ok) / busy,
            "trees_per_s": sum(r["trees"] for r in ok) / busy,
            "peak_rss_mb": median([r["rss_mb"] for r in ok]),
        }
        extra = {"error_rate": sum(not r["ok"] for r in bench.runs) / len(bench.runs),
                 "run_s_median": median(walls)}
        if args.workload == "stand-read":
            extra["read_trees_per_s"] = e2e["trees_per_s"]
            extra["bytes_per_tree"] = bench.expect["bytes"] / bench.expect["lines"]
        elif "bytes" in ok[-1] and ok[-1]["trees"]:
            extra["bytes_per_tree"] = median([r["bytes"] / r["trees"] for r in ok if "bytes" in r])
        log(f"untraced: {len(bench.runs)} runs, run_s min {walls[0]:.4f} median {median(walls):.4f} "
            f"mean {run_s:.4f} max {walls[-1]:.4f}")

        layers = {}
        if args.trace:
            t1 = time.perf_counter()
            while True:
                doc = bench.traced_run(first=not bench.traced)
                log(f"  traced {len(bench.traced)} @{doc['t']:.3f}: "
                    + (f"{doc['wall_s']:.4f}s" if "wall_s" in doc else "")
                    + ("" if not doc["problems"] else " FAILED: " + "; ".join(doc["problems"])))
                if "wall_s" not in doc or time.perf_counter() - t1 + doc["wall_s"] > args.seconds / 2:
                    break
            good = sorted((d for d in bench.traced if not d["problems"]), key=lambda d: d["wall_s"])
            if good:
                doc = good[len(good) // 2]
                layers = layer_metrics(bench, doc, good)
                shutil.copy(doc["trace_file"], work / "spans.json")
                log("traced wall split by layer (self time):")
                for layer, s in sorted(doc["self_s"].items(), key=lambda kv: -kv[1]):
                    log(f"  {layer:<18} {s:10.4f}s {100 * s / doc['wall_s']:6.2f}%")
                log(f"tracing overhead: {layers['trace.overhead_s']:+.4f}s "
                    f"({layers['trace.overhead_pct']:+.2f}% of the paired untraced in-process run)")
                share = layers.get("phylo2vec.encode.self_pct", 0.0)
                log(f"phylo2vec.encode share of traced wall: {share:.1f}%")
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        # Set-up itself failed: there is nothing to report a result on.
        shutil.rmtree(work, ignore_errors=True)
        die(f"{args.workload}: {e}", 1)
    load_after = os.getloadavg()
    steal_s = cpu_steal_s() - steal_before

    failed = sum(not r["ok"] for r in bench.runs) + sum(bool(d["problems"]) for d in bench.traced)
    attempted = len(bench.runs) + len(bench.traced)
    correct = failed == 0 and (not args.trace or bool(layers))
    for name, v in {**e2e, **extra}.items():
        log(f"{name:>16}: {v:.6g}")
    for name, v in sorted(layers.items()):
        log(f"  {name:<34} {v:.6g}")

    result_dir = ROOT / ".bench_results"
    result_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{int(time.time())}-{os.getpid()}"
    record = {
        "workload": args.workload, "seed": args.seed, "dataset": bench.dataset_name,
        "scale": args.scale, "threads": THREADS, "host": host,
        "loadavg_before": load_before, "loadavg_after": load_after, "cpu_steal_s": steal_s,
        "setup_input_s": bench.input_s, "setup_container_s": bench.container_s,
        "runs": bench.runs,
        "traced": [{k: v for k, v in d.items() if k != "trace_file"} for d in bench.traced],
        "end_to_end": e2e, "extra": extra, "per_layer": layers,
        "correct": correct, "attempted": attempted, "failed": failed,
    }
    (result_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if (work / "spans.json").exists():
        shutil.copy(work / "spans.json", result_dir / f"{stem}.spans.json")
    log(f"record: {(result_dir / f'{stem}.json').relative_to(ROOT)}; "
        f"load {load_before[0]:.2f} -> {load_after[0]:.2f}, cpu steal {steal_s:.2f}s")
    shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
