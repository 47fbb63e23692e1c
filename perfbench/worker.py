"""Child processes of the benchmark.

    worker.py sweep --out DIR [--trace] FAMILY:N:S ...
        One sweep-r10 round in this one process: for each case, what
        `adapted-pairs sweep --out` does per case (run_case,
        certificate_dict, to_json, write), bracketed by the reference kernel
        and checked.  Prints one JSON object as its last line.

    worker.py cli --trace-out FILE -- ARGS ...
        `adapted-pairs ARGS` with every program module traced; writes the
        start-up time and the span totals to FILE.  Untraced runs call the
        program's own command line instead.

The parent passes its spawn time (CLOCK_MONOTONIC, which every process on
the machine shares) in PERFBENCH_SPAWN_T, so start-up covers process
creation, interpreter start and the program's import.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _since_spawn() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC) - float(os.environ["PERFBENCH_SPAWN_T"])


def sweep_round(argv) -> int:
    parser = argparse.ArgumentParser(prog="worker.py sweep")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cases", nargs="+")
    args = parser.parse_args(argv)

    import adapted_pairs
    import adapted_pairs.certificate as certificate

    startup_s = _since_spawn()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    import checks
    from bracket import bracketed

    out_dir = Path(args.out)
    cases = [(f, int(n), int(s)) for f, n, s in (c.split(":") for c in args.cases)]
    snapshots = []

    def run(case):
        try:
            result = adapted_pairs.run_case(*case)
            cert = certificate.certificate_dict(result)
            (out_dir / checks.cert_name(case)).write_text(certificate.to_json(cert))
        except Exception as exc:  # a crash in one case must not hide the others
            return f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                snapshots.append(tracer.snapshot())
        return None

    def check(case, error):
        if error is not None:
            return True, [error]
        return False, checks.check_certificate_file(case, out_dir / checks.cert_name(case))

    records = bracketed(cases, run, check)
    for rec, case in zip(records, cases):
        rec["op"] = ":".join(map(str, case))
    if tracer is not None:
        previous = {}
        for rec, snap in zip(records, snapshots):
            rec["trace"] = {k: v - previous.get(k, 0) for k, v in snap.items()}
            previous = snap
    print(json.dumps({"records": records, "startup_s": startup_s}))
    return 0


def traced_cli(argv) -> int:
    parser = argparse.ArgumentParser(prog="worker.py cli")
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.args[1:] if args.args[:1] == ["--"] else args.args

    import adapted_pairs.cli

    startup_s = _since_spawn()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return adapted_pairs.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        Path(args.trace_out).write_text(
            json.dumps({"startup_s": startup_s, "trace": tracer.snapshot()})
        )


if __name__ == "__main__":
    modes = {"sweep": sweep_round, "cli": traced_cli}
    if len(sys.argv) < 2 or sys.argv[1] not in modes:
        sys.exit(f"usage: worker.py {{{','.join(modes)}}} ...")
    sys.exit(modes[sys.argv[1]](sys.argv[2:]))
