"""Command line front end.

Subcommands: verify one case, sweep all cases up to a rank bound, list a
Kostant cascade, or render a stored certificate.  Exit status: 0 when every
check passes, 1 on a certificate failure or a sweep case that raised, 2 for
out-of-scope or usage errors.  A `verify` case that raises anything but
`OutOfScopeError` propagates, so Python exits 1 with its traceback.

At module level `cli` imports `roots` and, of the standard library, only
`atexit`, `contextlib`, `gc`, `math`, `os`, `sys`, `time`, `pathlib`,
`types` and `typing`.  `report` imports `json` inside the command and
reads the certificate with the schema reader below, needing nothing else;
`verify`, `sweep` and `cascade` import the engine inside the command.
`verify` and `sweep` build a certificate only to write it to `--out`; the
degrees and verdict they print come from the case result.  The writer
needs no `json`, so a `verify` process loads neither `json` nor
`argparse`.

The parser is the table `_COMMANDS`: each command's function and, for
each of its options, the attribute it sets, its kind (int, str or a tuple
of choices) and its default, or `_REQUIRED`.  `main` walks the arguments
against it: `--opt value` and `--opt=value` both work, a repeated option
keeps its last value, and `-h` or `--help` anywhere prints `USAGE`.  Every
other bad command line is one `error: ` line on stderr and exit 2.

Every command registers `gc.freeze` to run at exit (see `main`): the
interpreter's shutdown collection then skips the objects the command left,
whose memory the OS reclaims anyway.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import math
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Tuple

from .roots import RootSystem, build_root_system

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def eps_str(system: RootSystem, root: int) -> str:
    """Human-readable epsilon form of the root of this code, e.g. 'e1+e2'
    or '(1/2)(e1-e2+...)'."""
    den, row = system.eps_scaled(root)
    g = math.gcd(den, *row)
    terms = []
    for i, x in enumerate(row, start=1):
        if x == 0:
            continue
        sign = "+" if x > 0 else "-"
        mag = abs(x) // g
        coef = "" if mag == 1 else str(mag)
        terms.append(f"{sign}{coef}e{i}")
    body = "".join(terms).lstrip("+")
    return body if den == g else f"(1/{den // g})({body})"


def _rat(obj) -> Tuple[int, int]:
    """A rational stored as {"num", "den"} in a certificate, as (num, den)
    in lowest terms with den > 0.  A field that is not an int (a bool is
    not one) raises TypeError and a zero den ZeroDivisionError."""
    num, den = obj["num"], obj["den"]
    if not (type(num) is int and type(den) is int):
        raise TypeError(f"rational {obj!r} has a non-integer field")
    if den == 0:
        raise ZeroDivisionError(f"rational {obj!r} has den 0")
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def _frac_str(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def _rat_str(obj) -> str:
    return _frac_str(*_rat(obj))


def _write_text(path: Path, text: str) -> None:
    """path.write_text(text), whole or not at all: the text goes to a
    temporary file beside path, which then replaces it, and is removed on
    any failure, so a full disk leaves no truncated file under path.  It is
    written in slices of 1 MiB: a whole write encodes the text at once
    into bytes as large as itself, which at rank 128 was the peak of a
    verify process's memory."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w") as fh:
            for i in range(0, len(text), 1 << 20):
                fh.write(text[i : i + (1 << 20)])
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def render_certificate(cert: dict, fmt: str) -> str:
    case = cert["case"]
    title = f"{case['family']} n={case['rank']} s={case['s']}"
    lines = []
    md = fmt == "md"
    h1 = "# " if md else ""
    h2 = "## " if md else "-- "
    lines.append(f"{h1}Certificate {title} [schema {cert['schema']}]")
    lines.append(f"verdict: {cert['verdict'].upper()}")
    if cert["first_failing_check"]:
        lines.append(f"first failing check: {cert['first_failing_check']}")
    lines.append("")

    family, rank = case["family"], case["rank"]
    system: Optional[RootSystem] = None

    def rc(c) -> str:
        """The epsilon form of the root with coefficients c.  The root
        system is built only once c has rank int entries, so a tampered
        rank costs no more work than the file has entries."""
        nonlocal system
        if len(c) != rank:
            raise ValueError(f"{c} does not have rank {rank!r} coefficients")
        # `true` and 1.0 compare equal to 1, but no coefficient is either
        if any(type(x) is not int for x in c):
            raise TypeError(f"{c} has a coefficient that is not an int")
        if system is None:
            system = build_root_system(family, rank)
        root = system.try_root(c)
        if root is None:
            raise ValueError(f"{list(c)} is not a root of {family}{rank}")
        return eps_str(system, root)

    def root_row(vals):
        return ", ".join(rc(c) for c in vals)

    lines.append(f"{h2}S")
    for part in ("plus", "minus", "mixed"):
        if cert["S"][part]:
            lines.append(f"  S{'+' if part=='plus' else '-' if part=='minus' else 'm'}: "
                         + root_row(cert["S"][part]))
    lines.append("")
    lines.append(f"{h2}Heisenberg sets")
    for entry in cert["gamma_sets"]:
        lines.append(
            f"  Gamma[{rc(entry['centre'])}] "
            f"({len(entry['members'])}): {root_row(entry['members'])}"
        )
    lines.append("")
    lines.append(f"{h2}T")
    lines.append("  " + root_row(cert["T"]))
    if cert["T_star"]:
        lines.append(f"{h2}T*")
        lines.append("  " + root_row(cert["T_star"]))
    lines.append("")
    lines.append(f"{h2}Adapted pair")
    h_terms = []
    for item in cert["h"]["coroot_coeffs"]:
        alpha = item["alpha"]
        if type(alpha) is not int or not 1 <= alpha <= rank:
            raise ValueError(f"h term index {alpha!r} is not in 1..{rank}")
        num, den = _rat(item["value"])
        if num == 0:
            continue
        sign = "+" if num > 0 else "-"
        mag = _frac_str(abs(num), den)
        coef = "" if mag == "1" else f"{mag}*"
        h_terms.append(f"{sign} {coef}a{alpha}v")
    lines.append("  h = " + " ".join(h_terms).lstrip("+ ").strip())
    lines.append(
        "  eigenvalues on g_T: "
        + ", ".join(
            f"{rc(e['gamma'])}: {_rat_str(e['value'])}"
            for e in cert["eigenvalues"]
        )
    )
    if system is None:
        # T is never empty, and only a root vector checks family and rank
        raise ValueError("the certificate lists no root")
    lines.append("  degrees: " + ", ".join(_rat_str(d) for d in cert["degrees"]))
    lines.append("")
    lines.append(f"{h2}Character bounds (multiples of varpi_s)")
    lines.append(
        "  lower:    "
        + ", ".join(_rat_str(m) for m in cert["bounds"]["lower_multiples_of_varpi_s"])
    )
    lines.append(
        "  improved: "
        + ", ".join(_rat_str(m) for m in cert["bounds"]["improved_multiples_of_varpi_s"])
    )
    lines.append("")
    lines.append(f"{h2}Checks")
    for key, val in cert["checks"].items():
        if isinstance(val, dict) and "num" in val:
            val = _rat_str(val)
        lines.append(f"  {key}: {val}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    from .certificate import certificate_dict, to_json
    from .construction import OutOfScopeError
    from .verify import run_case

    out: Optional[Path] = Path(args.out) if args.out else None
    if out:
        # a certificate of an earlier run must not outlive a case that
        # raises, and a path that cannot be written is refused before the
        # case runs
        try:
            out.unlink(missing_ok=True)
        except OSError as exc:
            return _usage_error(f"cannot write --out: {exc}")
        if not out.parent.is_dir():
            return _usage_error(f"cannot write --out: no directory {out.parent}")
    try:
        result = run_case(args.family, args.rank, args.s)
    except OutOfScopeError as exc:
        # case_plan refuses every bad family, rank or s; any other error is
        # a fault of the engine and propagates
        print(f"{args.family} n={args.rank} s={args.s}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if out:
        try:
            _write_text(out, to_json(certificate_dict(result)))
        except OSError as exc:
            return _usage_error(f"cannot write --out: {exc}")
    degrees = ", ".join([_frac_str(*d) for d in result.pair.degrees])
    status = "PASS" if result.verdict else "FAIL"
    print(f"{args.family} n={args.rank} s={args.s}: {status}  degrees: {degrees}")
    if result.first_failing:
        print(f"first failing check: {result.first_failing}")
        # the problems the set checks found, sorted so that the output is
        # deterministic; the certificate keeps only the outcomes
        for name, report in (
            ("heisenberg", result.heisenberg),
            ("classification", result.classification),
        ):
            for problem in sorted(report.problems):
                print(f"{name}: {problem}")
        for line in result.closed_form_witnesses():
            print(line)
    return EXIT_PASS if result.verdict else EXIT_FAIL


def cmd_sweep(args) -> int:
    if args.max_rank < 4:
        return _usage_error("sweep needs --max-rank >= 4")
    from .certificate import certificate_dict, to_json
    from .construction import in_scope_cases
    from .verify import run_case

    out_dir: Optional[Path] = Path(args.out) if args.out else None
    if out_dir:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _usage_error(f"cannot write --out: {exc}")
    rows = []
    all_ok = True
    held = None
    plan = in_scope_cases(args.max_rank)
    name = "{}_n{}_s{}.json".format
    for i, (family, n, s) in enumerate(plan):
        if (family, n) != held:
            # one root system at a time, and its `derived` tables with it
            build_root_system.cache_clear()
            held = family, n
        t0 = time.perf_counter()
        out_file = out_dir / name(family, n, s) if out_dir else None
        try:
            try:
                result = run_case(family, n, s)
                text = to_json(certificate_dict(result)) if out_file else ""
            except Exception as exc:
                # one case that crashes, or whose certificate cannot be built,
                # must not hide the others: report it, go on, and leave no
                # certificate of an earlier run in its place
                import traceback

                traceback.print_exc(file=sys.stderr)
                if out_file:
                    out_file.unlink(missing_ok=True)
                dt = time.perf_counter() - t0
                error = f"{type(exc).__name__}: {exc}"
                rows.append((family, n, s, "error", error, dt, ""))
                all_ok = False
                continue
            dt = time.perf_counter() - t0
            if out_file:
                _write_text(out_file, text)
        except OSError as exc:
            # a certificate cannot be written or removed: stop, and leave no
            # certificate of an earlier run under a name still to be written
            for case in plan[i:]:
                with contextlib.suppress(OSError):
                    out_file.with_name(name(*case)).unlink(missing_ok=True)
            return _usage_error(f"cannot write --out: {exc}")
        degrees = ",".join([_frac_str(*d) for d in result.pair.degrees])
        failing = result.first_failing
        note = f"  first failing check: {failing}" if failing else ""
        verdict = "pass" if result.verdict else "fail"
        rows.append((family, n, s, verdict, degrees, dt, note))
        all_ok &= result.verdict
    width = max(len(r[4]) for r in rows)
    print(f"{'case':<12} {'verdict':<8} {'degrees':<{width}}  time")
    for family, n, s, verdict, degrees, dt, note in rows:
        case = f"{family} n={n} s={s}"
        print(f"{case:<12} {verdict:<8} {degrees:<{width}}  {dt:6.2f}s{note}")
    print(f"{len(rows)} cases, {'all pass' if all_ok else 'FAILURES PRESENT'}")
    return EXIT_PASS if all_ok else EXIT_FAIL


def cmd_cascade(args) -> int:
    from .cascade import kostant_cascade

    try:
        system = build_root_system(args.family, args.rank)
    except ValueError as exc:
        return _usage_error(exc)
    for item in kostant_cascade(system):
        print(
            f"beta[{item.label}] = {eps_str(system, item.beta)}   "
            f"|H| = {len(item.heisenberg)}"
        )
    return EXIT_PASS


def cmd_report(args) -> int:
    import json

    try:
        cert = json.loads(Path(args.infile).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the parser's stack
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # `true` and 1.0 compare equal to 1 but are not schema 1
    schema = cert.get("schema") if isinstance(cert, dict) else None
    if type(schema) is not int or schema != 1:
        print("unsupported certificate schema", file=sys.stderr)
        return EXIT_USAGE
    try:
        text = render_certificate(cert, args.format)
    except KeyError as exc:
        print(f"malformed certificate: missing field {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text)
    return EXIT_PASS


_FAMILIES = ("B", "D", "E6", "E7")

USAGE = """\
adapted-pairs verify --family {B,D,E6,E7} --rank N --s S [--out FILE]
adapted-pairs sweep --max-rank N [--out DIR]
adapted-pairs cascade --family {B,D,E6,E7} --rank N
adapted-pairs report --in FILE [--format {txt,md}]
"""

_REQUIRED = object()

# command -> (its function, {option: (attribute, kind, default)})
_COMMANDS = {
    "verify": (cmd_verify, {
        "--family": ("family", _FAMILIES, _REQUIRED),
        "--rank": ("rank", int, _REQUIRED),
        "--s": ("s", int, _REQUIRED),
        "--out": ("out", str, None),
    }),
    "sweep": (cmd_sweep, {
        "--max-rank": ("max_rank", int, _REQUIRED),
        "--out": ("out", str, None),
    }),
    "cascade": (cmd_cascade, {
        "--family": ("family", _FAMILIES, _REQUIRED),
        "--rank": ("rank", int, _REQUIRED),
    }),
    "report": (cmd_report, {
        "--in": ("infile", str, _REQUIRED),
        "--format": ("format", ("md", "txt"), "txt"),
    }),
}


class _UsageError(Exception):
    pass


def _parse(argv):
    """The function and the arguments of the command line argv, walked
    against `_COMMANDS`; raises _UsageError on a bad command line."""
    if not argv or argv[0] not in _COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "no command"
        raise _UsageError(f"{given}: choose one of {', '.join(_COMMANDS)}")
    name = argv[0]
    func, options = _COMMANDS[name]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in options:
            raise _UsageError(f"{name}: unknown argument {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise _UsageError(f"{name}: {flag} needs a value")
        attr, kind, _ = options[flag]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                message = f"{name}: {flag} needs an int, not {value!r}"
                raise _UsageError(message) from None
        elif kind is not str and value not in kind:
            raise _UsageError(
                f"{name}: {flag} must be one of {', '.join(kind)}, not {value!r}"
            )
        values[attr] = value
    for flag, (attr, _, default) in options.items():
        if attr not in values:
            if default is _REQUIRED:
                raise _UsageError(f"{name}: {flag} is required")
            values[attr] = default
    return func, SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        return EXIT_PASS
    try:
        func, args = _parse(argv)
    except _UsageError as exc:
        return _usage_error(exc)
    # The last collection at interpreter exit walks every module, class and
    # table the command loaded.  atexit callbacks run before it, after the
    # command, and unlike os._exit keep the flush of stdout and stderr;
    # frozen objects are not collected.  Registering here, not at import,
    # leaves the GC of a process that only imports the package alone, and
    # the unregister keeps one entry when main runs more than once.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    return func(args)


if __name__ == "__main__":
    sys.exit(main())
