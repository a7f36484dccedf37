"""Child processes of the benchmark; run with the package on PYTHONPATH.

    python perfbench/child.py cli RESULT.json -- <gigagap arguments>
        Imports gigagap.cli (timed), installs the tracer, runs the CLI
        and writes the import time and per-layer figures to RESULT.json.
        Exits with the CLI's exit code.

    python perfbench/child.py sweep CONFIG.json RESULT.json
        Loads the dataset and prepares inputs (the set-up, repeated),
        then runs whole rounds of the scenario grid. Writes per-step
        times and a summary of every grid point to RESULT.json. With
        "trace" in the config one more round runs under the tracer,
        and the per-layer figures cover that round alone.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import HostClock  # noqa: E402
from tracing import Tracer  # noqa: E402


def _import_cli() -> float:
    start = time.perf_counter()
    import gigagap.cli  # noqa: F401
    return time.perf_counter() - start


def run_cli(result_path: str, argv: list[str]) -> int:
    import_s = _import_cli()
    from gigagap import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "layers": tracer.layer_metrics()}, fh)
    return code


def _point_summary(report) -> dict:
    """What the checks need from one report; taken outside the timed calls."""
    fixed = wireless = 0.0
    for c in report.cells:
        if c.action.value.startswith("FIVE_G"):
            wireless += c.quantity * c.unit_cost_eur
        else:
            fixed += c.quantity * c.unit_cost_eur
    op = report.operator
    return {
        "totals": report.totals,
        "fixed_cells_eur": fixed,
        "wireless_cells_eur": wireless,
        "fixed_pool_eur": op.fixed_pool_eur,
        "wireless_pool_eur": op.wireless_pool_eur,
        "fixed_used_eur": op.fixed_used_eur,
        "wireless_used_eur": op.wireless_used_eur,
        "residual_gap_eur": op.residual_gap_eur,
    }


def _rounds(cfg, dataset, first_prepared, clock=None, seconds=None, rounds=None):
    """Whole rounds of the grid: a given number, or until `seconds` of
    measured wall time. A clock samples the host after each
    prepare_inputs call and each preset's points."""
    from gigagap import gap, targets

    operators = {name: gap.OperatorInvestment(**kw) for name, kw in cfg["operators"]}
    prepare_times, point_times, points = [], [], []
    done = 0
    while True:
        for s_idx, sharing in enumerate(cfg["sharing"]):
            options = gap.RunOptions(sharing_fraction=sharing)
            if s_idx == 0:
                prepared = first_prepared
            else:
                start = time.perf_counter()
                prepared = gap.prepare_inputs(dataset, options)
                prepare_times.append(time.perf_counter() - start)
                if clock:
                    clock.sample()
            for preset in cfg["presets"]:
                for op_name, operator in operators.items():
                    start = time.perf_counter()
                    report = gap.run_scenario(
                        dataset, targets.SCENARIO_PRESETS[preset], options,
                        scenario_name=preset, operator=operator, prepared=prepared)
                    point_times.append(time.perf_counter() - start)
                    summary = _point_summary(report)
                    summary.update(preset=preset, sharing=sharing, operator=op_name)
                    points.append(summary)
                if clock:
                    clock.sample()
            prepared = None
        done += 1
        if (done == rounds if rounds is not None
                else sum(prepare_times) + sum(point_times) >= seconds):
            return prepare_times, point_times, points, done


def run_sweep(config_path: str, result_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    import_s = _import_cli()
    from gigagap import dataio, gap

    clock = None if cfg["trace"] else HostClock()
    setup_times = []
    for _ in range(cfg["setup_reps"]):
        dataset = prepared = None
        start = time.perf_counter()
        dataset = dataio.load_dataset(cfg["dataset"])
        prepared = gap.prepare_inputs(
            dataset, gap.RunOptions(sharing_fraction=cfg["sharing"][0]))
        setup_times.append(time.perf_counter() - start)
        if clock:
            clock.sample()

    prepare_times, point_times, points, rounds = _rounds(
        cfg, dataset, prepared, clock, seconds=cfg["seconds"])
    result = {"import_s": import_s, "setup_times": setup_times,
              "prepare_times": prepare_times, "point_times": point_times, "points": points,
              "rounds": rounds, "factor": clock.factor() if clock else 1.0}
    if cfg["trace"]:
        tracer = Tracer()
        tracer.install()
        traced = _rounds(cfg, dataset, prepared, rounds=1)
        tracer.uninstall()
        result["traced_prepare_times"], result["traced_point_times"] = traced[:2]
        result["layers"] = tracer.layer_metrics()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"] and len(argv) >= 3 and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    if argv[:1] == ["sweep"] and len(argv) == 3:
        return run_sweep(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
