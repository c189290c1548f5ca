"""Correctness gate for the benchmark pipeline, and its self-test.

Every ``mixrrm`` command the benchmark runs is one attempted operation.  It
fails when it exits non-zero (exit code 2, non-convergence, included) or
when its output breaks one of the checks below.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import shutil
from collections import defaultdict
from pathlib import Path

RTOL = 1e-8        # fit theta and loglik against the stored reference
SUM_TOL = 1e-10    # predicted probabilities of one situation sum to 1


class Gate:
    """Counts attempted and failed operations and keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, operation: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{operation}: {p}" for p in problems)
        return not problems


def check_exit(code) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= RTOL * abs(expected)


def check_fit(path, reference: dict | None, previous: bytes | None) -> list[str]:
    """Fit JSON matches the reference (if any) and earlier identical runs."""
    try:
        raw = Path(path).read_bytes()
        payload = json.loads(raw)
        theta = [float(v) for v in payload["theta"]]
        loglik = float(payload["loglik"])
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"unreadable fit JSON: {err}"]
    problems = []
    if not all(math.isfinite(v) for v in [*theta, loglik]):
        problems.append("non-finite theta or loglik")
    if reference is not None:
        ref_theta = reference["theta"]
        if len(theta) != len(ref_theta) or not all(
            _close(a, b) for a, b in zip(theta, ref_theta)
        ):
            problems.append(f"theta {theta} differs from reference {ref_theta}")
        if not _close(loglik, reference["loglik"]):
            problems.append(
                f"loglik {loglik!r} differs from reference {reference['loglik']!r}"
            )
    if previous is not None and raw != previous:
        problems.append("fit JSON not byte-identical to an earlier fit of the same input")
    return problems


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, list(reader)


def check_predictions(path, data) -> list[str]:
    """Every input row of ``data`` is present, once, with pred_p; situations sum to 1.

    Both files are read in one streaming pass, so the check holds only one
    sum per situation, not the rows.
    """
    sums: dict[tuple[str, str], float] = defaultdict(float)
    try:
        with open(data, newline="", encoding="utf-8") as src, \
                open(path, newline="", encoding="utf-8") as out:
            rows, preds = csv.reader(src), csv.reader(out)
            header = next(rows)
            out_header = next(preds, None)
            if out_header != header + ["pred_p"]:
                return [f"prediction header {out_header} is not input header + pred_p"]
            id_col, cs_col = header.index("id"), header.index("cs")
            for row, pred in itertools.zip_longest(rows, preds):
                if row is None or pred is None:
                    return ["prediction file and input differ in row count"]
                if pred[:-1] != row:
                    return [f"prediction row {pred[:-1]} does not match input row {row}"]
                try:
                    prob = float(pred[-1])
                except ValueError:
                    return [f"pred_p {pred[-1]!r} is not a number"]
                if not 0.0 <= prob <= 1.0:
                    return [f"pred_p {prob!r} outside [0, 1]"]
                sums[(row[id_col], row[cs_col])] += prob
    except OSError as err:
        return [f"unreadable prediction file: {err}"]
    bad = [key for key, total in sums.items() if abs(total - 1.0) > SUM_TOL]
    if bad:
        return [f"{len(bad)} situations whose pred_p do not sum to 1, "
                f"first {bad[0]} sums to {sums[bad[0]]!r}"]
    return []


def check_betas(path, ids: list[str], attrs: list[str]) -> list[str]:
    """One finite row per individual, ascending by id, one column per attr."""
    try:
        out_header, out_rows = read_csv(path)
    except (OSError, StopIteration) as err:
        return [f"unreadable betas file: {err}"]
    if out_header != ["id", *attrs]:
        return [f"betas header {out_header}, expected {['id', *attrs]}"]
    if [r[0] for r in out_rows] != ids:
        return [f"betas file has {len(out_rows)} rows, not one per individual"]
    try:
        values = [float(v) for r in out_rows for v in r[1:]]
    except ValueError as err:
        return [f"non-numeric beta: {err}"]
    if len(values) != len(ids) * len(attrs) or not all(map(math.isfinite, values)):
        return ["betas file has missing or non-finite values"]
    missing = [a for a in attrs if not (Path(path).parent / f"{a}_hist.svg").is_file()]
    if missing:
        return [f"no histogram written for {missing}"]
    return []


def self_test(fit_path, pred_path, data, failing_command) -> Gate:
    """Inject one fault of each kind and count them with a fresh gate.

    The faults are a perturbed theta in a fit JSON, a prediction file whose
    rows do not sum to 1, and a command that exits non-zero.  A sound gate
    returns with ``failed == attempted == 3``.
    """
    gate = Gate()
    scratch = Path(fit_path).parent / "selftest"
    scratch.mkdir(exist_ok=True)

    payload = json.loads(Path(fit_path).read_text(encoding="utf-8"))
    reference = {"theta": list(payload["theta"]), "loglik": payload["loglik"]}
    payload["theta"][0] *= 1.0 + 1e-6
    bad_fit = scratch / "fit.json"
    bad_fit.write_text(json.dumps(payload), encoding="utf-8")
    gate.record("self-test perturbed theta", check_fit(bad_fit, reference, None))

    bad_pred = scratch / "pred.csv"
    with open(pred_path, newline="", encoding="utf-8") as src, \
            open(bad_pred, "w", newline="", encoding="utf-8") as out:
        reader, writer = csv.reader(src), csv.writer(out)
        writer.writerow(next(reader))
        first = next(reader)
        first[-1] = repr(float(first[-1]) + 1e-6)
        writer.writerow(first)
        writer.writerows(reader)
    gate.record("self-test unnormalized predictions", check_predictions(bad_pred, data))

    gate.record("self-test failing command", check_exit(failing_command()))
    shutil.rmtree(scratch)
    return gate
