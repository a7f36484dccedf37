"""Correctness checks on the program's outputs, run outside timed regions.

Expected totals come from tests/oracle.py, the independent brute-force
re-implementation that reads the CSVs itself. The other checks are
identities every correct report satisfies; none compares against a
stored copy of earlier output.
"""

from __future__ import annotations

import csv
import filecmp
import hashlib
import json
import os
import sys
from pathlib import Path

ORACLE_REL = 1e-6       # the acceptance suite's oracle tolerance
IDENTITY_REL = 1e-9
REPORT_FILES = ("gap_cells.csv", "gap_summary.json", "histogram.csv", "evolution.json",
                "coverage_point.csv", "cost_table.csv")


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def oracle_totals(root: Path, data: Path, presets, cache_dir: Path) -> dict[str, dict[str, float]]:
    """Composed totals per preset at sharing 0, from tests/oracle.py.

    They depend only on the dataset and the oracle, so they are kept in
    cache_dir under a digest of both and computed once per seed.
    """
    oracle_file = root / "tests" / "oracle.py"
    digest = hashlib.sha256(oracle_file.read_bytes())
    for csv_file in sorted(data.glob("*.csv")):
        digest.update(csv_file.name.encode() + b"\0" + csv_file.read_bytes())
    cache = cache_dir / f"oracle-{digest.hexdigest()[:24]}.json"
    known = json.loads(cache.read_text(encoding="utf-8")) if cache.is_file() else {}
    missing = [name for name in presets if name not in known]
    if missing:
        if str(oracle_file.parent) not in sys.path:
            sys.path.insert(0, str(oracle_file.parent))
        import oracle

        for name in missing:
            known[name] = oracle.compute_totals(str(data), name)
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = cache.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known), encoding="utf-8")
        os.replace(tmp, cache)
    return {name: known[name] for name in presets}


def identical_outputs(a: Path, b: Path) -> list[str]:
    """Names of report files that are missing or differ between two runs."""
    return [name for name in REPORT_FILES
            if not ((a / name).is_file() and (b / name).is_file()
                    and filecmp.cmp(a / name, b / name, shallow=False))]


def _operator_problems(where: str, total: float, fixed_cells: float, wireless_cells: float,
                       op: dict) -> list[str]:
    problems = []
    for pool in ("fixed", "wireless"):
        cells = fixed_cells if pool == "fixed" else wireless_cells
        want = min(op[f"{pool}_pool_eur"], cells)
        got = op[f"{pool}_used_eur"]
        if not close(got, want, IDENTITY_REL):
            problems.append(f"{where}: {pool} operator use {got!r} != "
                            f"min(pool, cell total) {want!r}")
    residual = op["residual_gap_eur"]
    want = total - op["fixed_used_eur"] - op["wireless_used_eur"]
    if abs(residual - want) > IDENTITY_REL * total or residual < 0:
        problems.append(f"{where}: residual gap {residual!r} != total minus uses {want!r}")
    return problems


def _totals_problems(where: str, got: dict, want: dict) -> list[str]:
    return [f"{where}: {key} = {got.get(key)!r}, oracle {value!r}"
            for key, value in want.items()
            if key not in got or not close(got[key], value, ORACLE_REL)]


def check_run_output(out: Path, want: dict[str, float]) -> list[str]:
    """Checks on one `gigagap run` output directory (baseline, EGS)."""
    summary_path = out / "gap_summary.json"
    if not summary_path.is_file():
        return [f"{out.name}: no gap_summary.json"]
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    totals = summary["totals_eur"]
    problems = _totals_problems("run", totals, want)

    cells_total = fixed = wireless = 0.0
    with open(out / "gap_cells.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            value = float(row["investment_eur"])
            cells_total += value
            if row["action"].startswith("FIVE_G"):
                wireless += value
            else:
                fixed += value
    headline = totals["egs_premises_companies"]
    if not close(cells_total, headline, IDENTITY_REL):
        problems.append(f"run: gap_cells.csv investment sums to {cells_total!r}, "
                        f"egs_premises_companies is {headline!r}")
    problems += _operator_problems("run", cells_total, fixed, wireless, summary["operator"])
    return problems


def check_sweep(points: list[dict], oracle: dict[str, dict[str, float]],
                presets, sharing_values, operators) -> list[str]:
    """Checks across the sweep grid; points carry totals and operator use."""
    problems = []
    at = {(p["preset"], p["sharing"], p["operator"]): p for p in points}
    expected = {(pr, s, op) for pr in presets for s in sharing_values for op in operators}
    if set(at) != expected:
        return [f"sweep: grid points {sorted(set(at) ^ expected)} missing or unexpected"]

    base_sharing = sharing_values[0]
    for (preset, sharing, op), p in sorted(at.items()):
        where = f"sweep {preset} sharing={sharing} operator={op}"
        if sharing == 0.0:
            problems += _totals_problems(where, p["totals"], oracle[preset])
        ref = at[(preset, base_sharing, op)]["totals"]
        scale = (1.0 - sharing) / (1.0 - base_sharing)
        for key, value in p["totals"].items():
            if not close(value, scale * ref[key], IDENTITY_REL):
                problems.append(f"{where}: {key} = {value!r}, expected "
                                f"{scale!r} x {ref[key]!r}")
        problems += _operator_problems(where, p["fixed_cells_eur"] + p["wireless_cells_eur"],
                                       p["fixed_cells_eur"], p["wireless_cells_eur"], p)

    for sharing in sharing_values:
        for op in operators:
            head = {pr: at[(pr, sharing, op)]["totals"]["egs_premises_companies"]
                    for pr in presets}
            if not head["min"] <= head["baseline"] <= head["max"]:
                problems.append(f"sweep sharing={sharing} operator={op}: "
                                f"min <= baseline <= max fails: {head}")
    return problems
