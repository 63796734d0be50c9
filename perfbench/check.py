"""Output comparison under the benchmark's contract.

- ``visible``, ``censored``, ``sprt_steps``, ``pattern_hash`` and
  ``status`` match exactly; ``sec_per_step`` is excluded;
- ``spds_pct`` and every number of the analysis report agree within 1e-9;
- every trace CSV value is within one unit of its last printed digit;
- the ``recommend`` output is equal.

Each function returns a list of mismatch descriptions, empty when the
output matches.  A reference is built either from the oracle or from
outputs stored with the benchmark, in the same shape.
"""

import csv
import io

import numpy as np

TOLERANCE = 1e-9
TRACE_DIGITS = 6
RESULTS_HEADER = ["run_id", "tg", "rt", "ds", "spds_pct", "sprt_steps", "visible",
                  "censored", "sec_per_step", "pattern_hash", "status"]
TRACE_HEADER = "t,mop_water,mop_power,mop_business"
EXACT = ("run_id", "tg", "rt", "ds", "sprt_steps", "visible", "censored",
         "pattern_hash", "status")


def result_row(run_id, tg, rt, ds, spds, sprt, visible, pattern_hash):
    """A reference row in the results-CSV text form (spds as a float)."""
    return {"run_id": str(run_id), "tg": str(tg), "rt": str(rt), "ds": str(ds),
            "spds_pct": round(spds, TRACE_DIGITS),
            "sprt_steps": "" if sprt is None else str(sprt),
            "visible": "true" if visible else "false",
            "censored": "true" if sprt is None else "false",
            "pattern_hash": pattern_hash, "status": "ok"}


def parse_results(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]


def results(text, want_rows, prefix):
    """Mismatches per row: {row index: [descriptions]}, plus header/count under -1."""
    header, rows = parse_results(text)
    bad = {}
    if header != RESULTS_HEADER:
        bad[-1] = [f"{prefix}.header: got {header}"]
    if len(rows) != len(want_rows):
        bad.setdefault(-1, []).append(
            f"{prefix}.rows: got {len(rows)}, want {len(want_rows)}")
    for i, (got, want) in enumerate(zip(rows, want_rows)):
        msgs = [f"{prefix}.row{i}.{k}: got {got.get(k)!r}, want {want[k]!r}"
                for k in EXACT if got.get(k) != want[k]]
        try:
            spds_ok = abs(float(got["spds_pct"]) - float(want["spds_pct"])) <= TOLERANCE
        except (KeyError, ValueError):
            spds_ok = False
        if not spds_ok:
            msgs.append(f"{prefix}.row{i}.spds_pct: got {got.get('spds_pct')!r}, "
                        f"want {want['spds_pct']!r}")
        if msgs:
            bad[i] = msgs
    return bad


def numbers(got, want, prefix):
    """Nested dicts of numbers (an analysis report) within TOLERANCE."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{prefix}: keys differ"]
        return [m for k in sorted(want) for m in numbers(got[k], want[k], f"{prefix}.{k}")]
    if want is None or got is None:
        return [] if got is want else [f"{prefix}: got {got!r}, want {want!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)) or not (
            abs(got - want) <= TOLERANCE):
        return [f"{prefix}: got {got!r}, want {want!r}"]
    return []


def trace(text, want, prefix):
    """A trace CSV against a reference array of shape (horizon + 1, 3)."""
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        return [f"{prefix}.header: got {lines[:1]}"]
    try:
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError:
        return [f"{prefix}: unparsable value"]
    if got.shape != (want.shape[0], 4):
        return [f"{prefix}.shape: got {got.shape}, want {(want.shape[0], 4)}"]
    if not np.array_equal(got[:, 0], np.arange(want.shape[0])):
        return [f"{prefix}.t: not 0..{want.shape[0] - 1}"]
    # One unit of the last printed digit, plus the float parse error.
    worst = np.abs(got[:, 1:] - want).max()
    if not worst <= 10.0 ** -TRACE_DIGITS + TOLERANCE:
        row, col = np.unravel_index(np.abs(got[:, 1:] - want).argmax(), want.shape)
        return [f"{prefix}.t{row}.{TRACE_HEADER.split(',')[col + 1]}: "
                f"off by {worst:.3g}"]
    return []


def equal(got, want, prefix):
    return [] if got == want else [f"{prefix}: got {got!r}, want {want!r}"]

