#!/usr/bin/env python3
"""Benchmark of the adapted-pairs certificate engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` of the checkout
that holds this file.  Workloads:

    sweep-r10    every in-scope case through rank 10 in one process, as
                 `sweep --out` does it per case
    verify-cold  a ladder of large cases, each a fresh `verify --out` process
    report-r12   `report --in CERT`, one fresh process per certificate of
                 the rank-12 sweep and of the diagram-flip cases

A round runs every op of the workload once, in an order shuffled by the
seed (sweep-r10 shuffles whole root systems); rounds repeat until S
seconds have passed.  Times are in reference
units (see refkernel.py).  The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The line
before it, starting `raw `, holds raw seconds and the kernel's own times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
from bracket import bracketed
from refkernel import NOMINAL_SECONDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
PY = sys.executable
CLI = [PY, "-m", "adapted_pairs.cli"]

# verify-cold: distinct large cases around ranks 11-12, plus the two
# diagram flips, which no sweep runs.  Each op pays the whole cold cost.
# Seven of the ten are rank-12 cases of similar cost, so the median op falls
# among them rather than in the gap between rank-11 and rank-12 costs.
LADDER = [
    ("B", 11, 4), ("D", 11, 4), ("B", 12, 8), ("B", 12, 10), ("B", 12, 12),
    ("D", 12, 8), ("D", 12, 10), ("D", 12, 12), ("D", 12, 11), ("E6", 6, 1),
]
LADDER_REPEATS = 2
SETUP_PROBES = 21
CHILD_TIMEOUT_S = 150
# The rank-12 sweep that makes the report-r12 corpus took 64 s at the seed.
CORPUS_TIMEOUT_S = 600


class BenchError(Exception):
    pass


class Child:
    """A finished child process: exit status, output and peak memory."""

    def __init__(self, argv, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        env["PERFBENCH_SPAWN_T"] = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
        with tempfile.TemporaryFile() as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read() if proc.stdout else b""
            finally:
                if proc.stdout:
                    proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                timer.cancel()
            proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            self.stderr = err.read().decode(errors="replace")
        self.stdout = out.decode(errors="replace")
        self.maxrss_kb = usage.ru_maxrss

    def failure(self) -> str:
        return f"exit {self.returncode}: {self.stderr.strip()[-300:]}"


# -- workloads --------------------------------------------------------------


def sweep_round(ops, tmp: Path, trace: bool):
    """One sweep-r10 round in a fresh worker, so every round starts cold."""
    argv = [PY, str(HERE / "worker.py"), "sweep", "--out", str(tmp)]
    argv += ["--trace"] if trace else []
    child = Child(argv + [f"{f}:{n}:{s}" for f, n, s in ops])
    if child.returncode != 0:
        raise BenchError(f"sweep worker: {child.failure()}")
    result = json.loads(child.stdout.splitlines()[-1])
    records = result["records"]
    records[0]["startup_s"] = result["startup_s"]
    return records, child.maxrss_kb


def child_round(ops, tmp: Path, trace: bool, argv_of, check):
    """One round of ops that are each a fresh `adapted-pairs` process.

    `argv_of(i, op)` and `check(i, op, child)` get the op's place in the
    round, so an op that comes twice in a round writes two files."""
    rss = []

    def run(indexed):
        i, op = indexed
        if trace:
            argv = [PY, str(HERE / "worker.py"), "cli",
                    "--trace-out", str(tmp / f"trace-{i}.json"), "--"] + argv_of(i, op)
        else:
            argv = CLI + argv_of(i, op)
        child = Child(argv)
        rss.append(child.maxrss_kb)
        return child

    records = bracketed(list(enumerate(ops)), run, lambda indexed, child: check(*indexed, child))
    for rec in records:
        i, op = rec["op"]
        rec["op"] = checks.cert_name(op)
        trace_file = tmp / f"trace-{i}.json"
        if trace and trace_file.is_file():
            traced = json.loads(trace_file.read_text())
            rec["trace"], rec["startup_s"] = traced["trace"], traced["startup_s"]
    return records, max(rss)


def verify_cold_round(ops, tmp: Path, trace: bool):
    def out_of(i, case):
        return tmp / f"{i}-{checks.cert_name(case)}"

    def argv_of(i, case):
        family, n, s = case
        return ["verify", "--family", family, "--rank", str(n), "--s", str(s),
                "--out", str(out_of(i, case))]

    def check(i, case, child):
        out = out_of(i, case)
        if child.returncode not in (0, 1) or not out.is_file():
            return True, [child.failure()]
        problems = checks.check_certificate_file(case, out)
        out.unlink()
        if f"{case[0]} n={case[1]} s={case[2]}: PASS" not in child.stdout:
            problems.append("no PASS line on standard output")
        return False, problems

    return child_round(ops, tmp, trace, argv_of, check)


def report_round(ops, tmp: Path, trace: bool):
    corpus = WORK / "report-corpus"

    def argv_of(i, case):
        return ["report", "--in", str(corpus / checks.cert_name(case))]

    def check(i, case, child):
        try:
            cert = json.loads((corpus / checks.cert_name(case)).read_text())
        except (OSError, ValueError) as exc:
            return True, [f"unreadable input: {exc}"]
        if child.returncode != 0:
            return True, [child.failure()]
        try:
            return False, checks.check_report(case, cert, child.stdout)
        except (KeyError, TypeError, ValueError) as exc:
            return False, [f"malformed input: {exc!r}"]

    return child_round(ops, tmp, trace, argv_of, check)


def ensure_corpus() -> None:
    """Make the report-r12 inputs with the checked-out program, once per
    version of its source: `sweep --max-rank 12 --out` plus `verify --out`
    for each diagram flip.  Every workload calls this before it sets up, so
    the first run in a checkout makes them, whatever its workload.  The
    corpus is stamped only when every child exited 0 and wrote its files;
    otherwise the run fails and the next run starts again."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    key = digest.hexdigest()
    corpus = WORK / "report-corpus"
    stamp = corpus / "SOURCE_SHA256"
    if stamp.is_file() and stamp.read_text() == key:
        return
    fresh = Path(tempfile.mkdtemp(dir=WORK, prefix="corpus-"))
    try:
        argvs = [CLI + ["sweep", "--max-rank", "12", "--out", str(fresh)]]
        for family, n, s in checks.flip_cases(12):
            out = fresh / checks.cert_name((family, n, s))
            argvs.append(CLI + ["verify", "--family", family, "--rank", str(n), "--s", str(s),
                                "--out", str(out)])
        for argv in argvs:
            child = Child(argv, stdout=subprocess.DEVNULL, timeout=CORPUS_TIMEOUT_S)
            if child.returncode != 0:
                raise BenchError(f"making the report-r12 corpus: {' '.join(argv[3:])}: "
                                 f"{child.failure()}")
        missing = [checks.cert_name(case) for case in report_cases()
                   if not (fresh / checks.cert_name(case)).is_file()]
        if missing:
            raise BenchError(f"the report-r12 corpus lacks {', '.join(missing)}")
        (fresh / stamp.name).write_text(key)
        shutil.rmtree(corpus, ignore_errors=True)
        fresh.rename(corpus)
    finally:
        shutil.rmtree(fresh, ignore_errors=True)


def report_cases():
    return checks.sweep_cases(12) + checks.flip_cases(12)


def by_system(cases):
    """The sweep's cases grouped per root system, each group in sweep order.

    The first case of a system pays for its root system and structure
    table; keeping the order inside a group makes that the same case for
    every seed, so the seed moves no op's cost."""
    groups = {}
    for case in cases:
        groups.setdefault(case[:2], []).append(case)
    return list(groups.values())


# Each workload: the units the seed shuffles (lists of ops run in order),
# and the function that runs one round.
WORKLOADS = {
    "sweep-r10": (lambda: by_system(checks.sweep_cases(10)), sweep_round),
    "verify-cold": (lambda: [[case] for case in LADDER * LADDER_REPEATS], verify_cold_round),
    "report-r12": (
        lambda: [[case] for case in report_cases()],
        report_round,
    ),
}


# -- measurement --------------------------------------------------------------


def setup_probes():
    """Start the interpreter and import the whole program, several times."""
    records = bracketed(
        range(SETUP_PROBES),
        lambda _: Child([PY, "-c", "import adapted_pairs, adapted_pairs.cli"]),
        lambda _, child: (child.returncode != 0, []),
    )
    if any(r["failed"] for r in records):
        raise BenchError(f"importing the program failed: {records[0]['outcome'].failure()}")
    return records


def end_to_end(records, rounds, setup, rss_kb):
    norm = sorted(r["raw_s"] / r["ref_s"] for r in records)
    # The tail is the mean of the slowest quarter of the ops, not their
    # p75: a single order statistic keeps the whole drift of one op.
    slowest = norm[-(-len(norm) // 4):]
    return {
        "wall_ref": (sum(norm) / rounds, "ref"),
        "op_p50_ref": (statistics.median(norm), "ref"),
        "op_tail_ref": (statistics.fmean(slowest), "ref"),
        "setup_s": (statistics.median(r["raw_s"] / r["ref_s"] for r in setup) * NOMINAL_SECONDS, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(records, rounds, wall_ref):
    """The per-layer metrics BENCHMARK.json declares, per round.

    The tracer reports '<module>.calls' and '<module>.self_s' for every
    program module it wraps, plus 'linalg.rows' and 'linalg.nnz'.  A module
    with no declared metric fails the run, so time moved into a new module
    cannot drop silently out of the per-layer figures."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    totals = dict.fromkeys(units, 0.0)
    for rec in records:
        ref = rec["ref_s"]
        for key, value in rec.get("trace", {}).items():
            if key.endswith(".self_s"):
                key, value = key[:-len("self_s")] + "self_ref", value / ref
            if key not in totals:
                raise BenchError(f"traced {key} has no per-layer metric in BENCHMARK.json")
            totals[key] += value
        totals["startup.self_ref"] += rec.get("startup_s", 0.0) / ref
    totals["traced.wall_ref"] = wall_ref * rounds
    return {k: (v / rounds, units[k]) for k, v in totals.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adapted_pairs" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'adapted_pairs'} is missing", file=sys.stderr)
        return 2
    # Kernel readings and ops share one CPU, so both see the same slowdowns.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(parents=True, exist_ok=True)
    make_units, run_round = WORKLOADS[args.workload]

    rng = random.Random(args.seed)
    tmp = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    try:
        ensure_corpus()
        setup = setup_probes()
        records, rss, rounds = [], [], 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            units = make_units()
            rng.shuffle(units)
            ops = [op for unit in units for op in unit]
            round_records, round_rss = run_round(ops, tmp, bool(args.trace))
            records += round_records
            rss.append(round_rss)
            rounds += 1
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    done = [r for r in records if not r["failed"]]
    for rec in records:
        if rec["problems"]:
            print(f"{rec['op']}: {'; '.join(rec['problems'])}", file=sys.stderr)
    if not done:
        print("every op failed", file=sys.stderr)
        return 1
    metrics = end_to_end(done, rounds, setup, max(rss))
    if args.trace:
        try:
            metrics = per_layer(records, rounds, metrics["wall_ref"][0])
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1

    refs = [r["ref_s"] for r in records]
    raw = {
        "rounds": rounds,
        "wall_s": sum(r["raw_s"] for r in done) / rounds,
        "op_p50_s": statistics.median(r["raw_s"] for r in done),
        "setup_raw_s": statistics.median(r["raw_s"] for r in setup),
        "ref_ms_p50": 1000 * statistics.median(refs),
        "ref_ms_min": 1000 * min(refs),
        "ref_ms_max": 1000 * max(refs),
    }
    print("raw " + json.dumps(raw))
    print(json.dumps({
        "correct": all(not r["problems"] for r in done),
        "attempted": len(records),
        "failed": len(records) - len(done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
