"""Output check applied to every timed `qsct run` invocation.

`check_run` returns the list of problems found; an empty list means the run
passed. A run that fails the check counts as failed: it is never skipped and
never retried.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from workloads import Point, Workload

UNIT_TOL = 1e-9          # noiseless final step: transfer and fidelity within this of 1
TIME_TOL = 1e-6          # endpoints_pst: final time within this of pi
PROB_LOW = -1e-12        # probabilities lie in [PROB_LOW, PROB_HIGH]
PROB_HIGH = 1.0 + 1e-9
PROBABILITY_COLUMNS = ("transfer_probability", "fidelity_to_input")


def _rows(data: bytes, name: str, problems: list[str]) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    if not rows:
        problems.append(f"{name}: no rows")
    for row in rows:
        for column, value in row.items():
            if value in ("true", "false"):
                continue
            try:
                number = float(value)
            except (TypeError, ValueError):
                problems.append(f"{name}: step {row.get('step')}: {column}={value!r} is not a number")
                continue
            if not math.isfinite(number):
                problems.append(f"{name}: step {row.get('step')}: {column} is not finite")
    return rows


def _check_series(rows: list[dict], name: str, point: Point, noiseless: bool,
                  problems: list[str]) -> None:
    """Range checks on one CSV; `noiseless` also demands perfect transfer at the end.

    Where the noise creates excitations (`point.transfer_bounded` false),
    transfer_probability is a population ratio that may exceed 1 and is only
    checked to be non-negative.
    """
    bounded = noiseless or point.transfer_bounded
    for row in rows:
        for column in PROBABILITY_COLUMNS:
            value = float(row[column])
            high = PROB_HIGH if bounded or column == "fidelity_to_input" else math.inf
            if not PROB_LOW <= value <= high:
                problems.append(f"{name}: step {row['step']}: {column}={value!r} outside [0, {high}]")
    last = rows[-1]
    if noiseless:
        for column in PROBABILITY_COLUMNS:
            value = float(last[column])
            if abs(value - 1.0) > UNIT_TOL:
                problems.append(f"{name}: final {column}={value!r} is not within {UNIT_TOL} of 1")
    if point.final_time is not None and abs(float(last["time"]) - point.final_time) > TIME_TOL:
        problems.append(f"{name}: final time {last['time']} is not within {TIME_TOL} "
                        f"of {point.final_time!r}")


def check_run(workload: Workload, out_dir: Path, returncode: int) -> list[str]:
    problems: list[str] = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
        return problems
    manifest_path = out_dir / "manifest.json"
    try:
        listed = set(json.loads(manifest_path.read_text(encoding="utf-8"))["output_paths"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest.json unreadable: {exc}"]

    expected = set()
    for point in workload.points:
        prefix = f"{point.subdir}/" if point.subdir else ""
        expected.add(prefix + "results.csv")
        if point.noisy:
            expected.add(prefix + "reference.csv")
    for rel in sorted(expected - listed):
        problems.append(f"{rel}: not listed in manifest.json")

    contents: dict[str, bytes] = {}
    for rel in sorted(expected | listed):
        try:
            contents[rel] = (out_dir / rel).read_bytes()
        except OSError:
            problems.append(f"{rel}: missing")
    if problems:
        return problems

    noiseless_results: dict[tuple, bytes] = {}
    for point in workload.points:
        prefix = f"{point.subdir}/" if point.subdir else ""
        results = prefix + "results.csv"
        rows = _rows(contents[results], results, problems)
        if rows:
            _check_series(rows, results, point, not point.noisy, problems)
        if not point.noisy:
            noiseless_results.setdefault(point.key, contents[results])
            continue
        reference = prefix + "reference.csv"
        rows = _rows(contents[reference], reference, problems)
        if rows:
            _check_series(rows, reference, point, True, problems)

    # In a sweep, a noisy point's reference is the noiseless run of its twin.
    for point in workload.points:
        if not (point.noisy and point.subdir):
            continue
        twin = noiseless_results.get(point.key)
        if twin is None:
            problems.append(f"{point.subdir}: no noiseless point with chain/cut {point.key}")
        elif contents[f"{point.subdir}/reference.csv"] != twin:
            problems.append(f"{point.subdir}/reference.csv differs from the noiseless "
                            f"results.csv of chain/cut {point.key}")
    return problems
