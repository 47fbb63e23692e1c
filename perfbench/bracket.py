"""Time operations in reference units, each bracketed by two kernel readings."""

from __future__ import annotations

import time
from typing import Callable, List, Sequence, Tuple

from refkernel import time_reference


def bracketed(
    ops: Sequence,
    run: Callable,
    check: Callable[[object, object], Tuple[bool, List[str]]],
) -> List[dict]:
    """Time `run(op)` for each op, then judge every op with `check(op, outcome)`.

    Kernel readings and ops alternate with nothing between them, so the
    reading after one op is also the reading before the next; an op's
    reference time is the mean of its two readings.  The checks run after
    the last op, outside every timed interval, and return (failed, problems):
    `failed` when the program did not produce an output, `problems` when the
    output it produced is wrong.  Each record keeps the op's outcome.
    """
    timed = []
    before = time_reference()
    for op in ops:
        t0 = time.perf_counter()
        outcome = run(op)
        raw = time.perf_counter() - t0
        after = time_reference()
        timed.append((op, outcome, raw, (before + after) / 2))
        before = after
    records = []
    for op, outcome, raw, ref in timed:
        failed, problems = check(op, outcome)
        records.append({
            "op": op,
            "outcome": outcome,
            "raw_s": raw,
            "ref_s": ref,
            "failed": failed,
            "problems": problems,
        })
    return records
