"""Output checks computed apart from the program.

Nothing here imports the program.  The closed forms, the Levi types and the
Bourbaki simple roots are transcribed independently, so a check can fail
even when the program agrees with itself.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, List, Tuple

Case = Tuple[str, int, int]


def sweep_cases(max_rank: int) -> List[Case]:
    """Every primary in-scope case of rank at most max_rank (the sweep plan)."""
    cases: List[Case] = []
    cases += [("B", n, s) for n in range(2, max_rank + 1) for s in range(2, n + 1, 2)]
    cases += [("D", n, s) for n in range(4, max_rank + 1) for s in range(2, n - 1, 2)]
    cases += [("D", n, n) for n in range(6, max_rank + 1, 2)]
    if max_rank >= 6:
        cases.append(("E6", 6, 6))
    if max_rank >= 7:
        cases.append(("E7", 7, 3))
    return cases


def flip_cases(max_rank: int) -> List[Case]:
    """The diagram-flip cases D s=n-1 (n even) and E6 s=1, which no sweep runs."""
    return [("D", n, n - 1) for n in range(6, max_rank + 1, 2)] + [("E6", 6, 1)]


def cert_name(case: Case) -> str:
    family, n, s = case
    return f"{family}_n{n}_s{s}.json"


def _positive_count(family: str, rank: int) -> int:
    """|Delta+| of a simple (or empty) root system."""
    if rank == 0:
        return 0
    return {
        "A": rank * (rank + 1) // 2,
        "B": rank * rank,
        "D": rank * (rank - 1),
        "E6": 36,
        "E7": 63,
    }[family]


def levi_type(case: Case) -> List[Tuple[str, int]]:
    """Simple components of the Levi factor left when alpha_s is removed."""
    family, n, s = case
    if family == "B":
        return [("A", s - 1), ("B", n - s)]
    if family == "D":
        if s <= n - 2:
            return [("A", s - 1), ("D", n - s)]
        return [("A", n - 1)]
    if family == "E6":
        return [("D", 5)]
    if family == "E7" and s == 3:
        return [("A", 1), ("A", 5)]
    raise ValueError(f"no Levi type for {case}")


def expected_index(case: Case) -> int:
    """The index (number of generator degrees) in closed form."""
    family, n, s = case
    if family == "E6":
        return 3
    if family == "E7":
        return 5
    if family == "B" and s < n or family == "D" and s <= n - 2:
        return n + 1 - s // 2
    return n // 2 + 1


def expected_dim_p(case: Case) -> int:
    """dim p_Lambda = |Delta+| + |Delta+_pi'| + (n - 1)."""
    family, n, _ = case
    levi = sum(_positive_count(f, r) for f, r in levi_type(case))
    return _positive_count(family, n) + levi + n - 1


def _rat(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def check_certificate(case: Case, cert: dict) -> List[str]:
    """Verdict, index, degree sum and bound coincidence of one certificate."""
    problems = []
    got_case = cert.get("case", {})
    if (got_case.get("family"), got_case.get("rank"), got_case.get("s")) != case:
        problems.append(f"certificate is for {got_case}")
    if cert.get("verdict") != "pass":
        problems.append(f"verdict {cert.get('verdict')!r}")
    degrees = [_rat(d) for d in cert["degrees"]]
    index = expected_index(case)
    if len(degrees) != index:
        problems.append(f"{len(degrees)} degrees, index is {index}")
    dim_p = expected_dim_p(case)
    if 2 * sum(degrees) != dim_p + index:
        problems.append(f"2*sum(degrees) = {2 * sum(degrees)} != dim p + index = {dim_p + index}")
    bounds = cert["bounds"]
    lower = [_rat(m) for m in bounds["lower_multiples_of_varpi_s"]]
    improved = [_rat(m) for m in bounds["improved_multiples_of_varpi_s"]]
    if lower != improved:
        problems.append("lower and improved bounds differ")
    return problems


def check_certificate_file(case: Case, path) -> List[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            cert = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read {path}: {exc}"]
    try:
        return check_certificate(case, cert)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"malformed certificate: {exc!r}"]


# -- epsilon forms ---------------------------------------------------------

Eps = Dict[int, Fraction]  # 1-based epsilon index -> nonzero coordinate


def simple_roots_eps(family: str, n: int) -> List[Eps]:
    """Bourbaki's simple roots in epsilon coordinates (Plates II, IV, V, VI)."""
    if family in ("B", "D"):
        roots = [{i: Fraction(1), i + 1: Fraction(-1)} for i in range(1, n)]
        roots.append({n: Fraction(1)} if family == "B" else {n - 1: Fraction(1), n: Fraction(1)})
        return roots
    half = Fraction(1, 2)
    a1 = {1: half, 8: half, **{i: -half for i in range(2, 8)}}
    roots = [a1, {1: Fraction(1), 2: Fraction(1)}]
    roots += [{i - 2: Fraction(-1), i - 1: Fraction(1)} for i in range(3, n + 1)]
    return roots


def eps_of_coeffs(simples: List[Eps], coeffs) -> Eps:
    out: Eps = {}
    for c, root in zip(coeffs, simples):
        for i, x in root.items():
            out[i] = out.get(i, Fraction(0)) + c * x
    return {i: x for i, x in out.items() if x}


_TERM = re.compile(r"([+-]?)(\d*)e(\d+)")


def parse_eps(text: str) -> Eps:
    """Read back a printed epsilon form such as 'e1-2e3' or '(1/2)(e1-e2)'."""
    text = text.strip()
    scale = Fraction(1)
    m = re.fullmatch(r"\(1/(\d+)\)\((.*)\)", text)
    if m:
        scale = Fraction(1, int(m.group(1)))
        text = m.group(2)
    out: Eps = {}
    pos = 0
    for term in _TERM.finditer(text):
        if term.start() != pos:
            raise ValueError(f"cannot parse {text!r}")
        sign = -1 if term.group(1) == "-" else 1
        mag = int(term.group(2)) if term.group(2) else 1
        out[int(term.group(3))] = sign * mag * scale
        pos = term.end()
    if pos != len(text) or not out:
        raise ValueError(f"cannot parse {text!r}")
    return out


def check_report(case: Case, cert: dict, stdout: str) -> List[str]:
    """The text report of a certificate: verdict, degrees and T.  (A report
    that exits with a status other than 0 counts as a failed op.)"""
    problems = []
    lines = stdout.splitlines()
    if "verdict: PASS" not in lines:
        problems.append("no PASS verdict line")
    degrees = ", ".join(str(_rat(d)) for d in cert["degrees"])
    if f"  degrees: {degrees}" not in lines:
        problems.append(f"degrees line is not {degrees!r}")
    try:
        t_row = lines[lines.index("-- T") + 1]
    except (ValueError, IndexError):
        return problems + ["no T section"]
    printed = [p for p in t_row.split(", ") if p.strip()]
    if len(printed) != len(cert["T"]):
        problems.append(f"{len(printed)} T roots printed, certificate has {len(cert['T'])}")
    simples = simple_roots_eps(case[0], case[1])
    for text, coeffs in zip(printed, cert["T"]):
        try:
            got = parse_eps(text)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        want = eps_of_coeffs(simples, coeffs)
        if got != want:
            problems.append(f"T root {coeffs} printed as {text!r}")
    return problems
