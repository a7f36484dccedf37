"""Command-line interface.

Three subcommands: ``validate`` checks a dataset directory, ``run``
computes the investment gap for a scenario and writes report files,
``compare`` reads two summary JSONs from prior runs and prints the
trend between their vintages.

Exit codes: 0 success, 1 domain or validation failure, 2 environment
or usage failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import dataio, gap
from .errors import DataError, DatasetValidationError, GigagapError
from .targets import SCENARIO_PRESETS, Scenario, Target, scenario_from_config

log = logging.getLogger(__name__)

_TARGET_ALIASES = {
    "t1": Target.T1,
    "t2a": Target.T2_URBAN,
    "t2b": Target.T2_TRANSPORT,
    "t3": Target.T3,
    "t4": Target.T4,
}

_SUMMARY_ROWS = (
    ("t1", "T1 capitals 5G"),
    ("t2_urban", "T2A urban 5G"),
    ("t2_transport", "T2B transport corridors"),
    ("t2_after_t1", "T2 once T1 is built"),
    ("t3", "T3 enterprise gigabit"),
    ("t3_composed", "T3 net of T4 overlap"),
    ("t4", "T4 gigabit for all premises"),
    ("egs_premises", "EGS premises (T1+T2+T4)"),
    ("egs_premises_companies", "EGS premises and companies"),
    ("egs_households", "EGS households view"),
)


def _billions(value_eur: float) -> str:
    return f"{value_eur / 1e9:.1f}"


def _resolve_dataset(arg: str | None) -> Path:
    path = Path(arg or os.environ.get("GIGAGAP_DATA") or dataio.fixture_path())
    if not path.exists():
        raise FileNotFoundError(f"dataset path does not exist: {path}")
    return path


def _resolve_scenario(arg: str) -> tuple[Scenario, str]:
    key = arg.strip().lower()
    if key in SCENARIO_PRESETS:
        return SCENARIO_PRESETS[key], key
    path = Path(arg)
    if path.is_file():
        try:
            return scenario_from_config(path.read_text(encoding="utf-8-sig")), path.stem
        except UnicodeDecodeError as err:
            raise DataError(f"scenario config {path} is not UTF-8 text: {err}") from None
    raise DataError(
        f"scenario {arg!r} is neither a preset ({', '.join(sorted(SCENARIO_PRESETS))}) "
        "nor a readable config file")


def _resolve_targets(arg: str | None) -> list[Target] | None:
    """None means the full composed (EGS) run."""
    if arg is None or arg.strip().lower() == "egs":
        return None
    out = []
    for token in arg.split(","):
        key = token.strip().lower()
        if not key:
            continue
        if key not in _TARGET_ALIASES:
            raise DataError(
                f"unknown target {token.strip()!r}; expected egs or a comma list of "
                + ", ".join(sorted(_TARGET_ALIASES)))
        target = _TARGET_ALIASES[key]
        if target not in out:
            out.append(target)
    if not out:
        raise DataError("empty target list")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gigagap",
        description="Bottom-up investment gap model for the EU gigabit and 5G targets.")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a dataset directory")
    p_run = sub.add_parser("run", help="compute the investment gap")
    for p in (p_val, p_run):
        p.add_argument("--dataset", help="dataset directory (default: $GIGAGAP_DATA "
                                         "or the bundled demo dataset)")
    p_run.add_argument("--scenario", default="baseline",
                       help="preset name (baseline, max, min) or a key=value config file")
    p_run.add_argument("--targets", default="egs",
                       help="'egs' for the composed run, or a comma list like T1,T2A,T4")
    p_run.add_argument("--sharing", type=float, default=0.0,
                       help="infrastructure sharing saving fraction, 0 to 0.12")
    p_run.add_argument("--operator-fixed-per-year", type=float, default=None,
                       help="commercial fixed-network investment per year, EUR")
    p_run.add_argument("--operator-wireless-per-year", type=float, default=None,
                       help="commercial wireless investment per year, EUR")
    p_run.add_argument("--horizon-years", type=int, default=None,
                       help="years of commercial investment to subtract")
    p_run.add_argument("--no-operator", action="store_true",
                       help="skip the commercial investment subtraction")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and ignored; pricing runs in "
                            "one thread, as a thread pool measured 3-4x slower")
    p_run.add_argument("--relax-intervals", type=float, default=0.0, metavar="EPS",
                       help="widen coverage bands by EPS when reconciliation is infeasible")

    p_cmp = sub.add_parser("compare", help="trend between two run summaries")
    p_cmp.add_argument("summary_a", help="gap_summary.json from the earlier run")
    p_cmp.add_argument("summary_b", help="gap_summary.json from the later run")
    p_cmp.add_argument("--out", default=None,
                       help="optional directory for evolution.json")
    return parser


def cmd_validate(dataset_path: Path) -> int:
    dataset, report = dataio.validate_dataset(dataset_path)
    for entry in report.entries:
        print(str(entry))
    if dataset is None:
        print(f"FAILED: {len(report.errors)} error(s) in {dataset_path}")
        return 1
    localities = sum(sums.count for sums in dataset.localities.values())
    print(f"OK: {len(dataset.regions)} regions, {len(dataset.countries)} countries, "
          f"{localities} localities, vintage {dataset.vintage}")
    return 0


def _print_summary(report: gap.GapReport) -> None:
    print(f"scenario: {report.scenario_name}   vintage: {report.vintage}")
    print(f"{'component':<34}{'gap (bEUR)':>12}")
    for key, label in _SUMMARY_ROWS:
        if key in report.totals:
            print(f"{label:<34}{_billions(report.totals[key]):>12}")
    if report.operator is not None:
        op = report.operator
        print(f"{'commercial investment (fixed)':<34}{_billions(op.fixed_used_eur):>12}")
        print(f"{'commercial investment (wireless)':<34}{_billions(op.wireless_used_eur):>12}")
        print(f"{'residual public gap':<34}{_billions(op.residual_gap_eur):>12}")


def cmd_run(args) -> int:
    dataset_path = _resolve_dataset(args.dataset)
    scenario, scenario_name = _resolve_scenario(args.scenario)
    only_targets = _resolve_targets(args.targets)

    options = gap.RunOptions(
        sharing_fraction=args.sharing,
        relax_intervals=args.relax_intervals,
    )
    operator = None
    if not args.no_operator:
        overrides = {"fixed_per_year_eur": args.operator_fixed_per_year,
                     "wireless_per_year_eur": args.operator_wireless_per_year,
                     "horizon_years": args.horizon_years}
        operator = gap.OperatorInvestment(
            **{name: value for name, value in overrides.items() if value is not None})

    dataset = dataio.load_dataset(dataset_path)
    prepared = gap.prepare_inputs(dataset, options)
    report = gap.run_scenario(dataset, scenario, options, scenario_name=scenario_name,
                              operator=operator, only_targets=only_targets,
                              prepared=prepared)

    out_dir = Path(args.out)
    written = dataio.write_reports(report, out_dir)
    written.append(dataio.write_coverage_points(prepared.state, out_dir))
    written.append(dataio.write_cost_table(prepared.table, out_dir))
    _print_summary(report)
    print("wrote: " + ", ".join(str(p) for p in written))
    return 0


def cmd_compare(args) -> int:
    report_a = dataio.report_from_summary(args.summary_a)
    report_b = dataio.report_from_summary(args.summary_b)
    if report_a.vintage == report_b.vintage:
        # Same vintage: show the (zero) per-component deltas, then fail,
        # since no trend can be fitted through a single point in time.
        for key in sorted(set(report_a.totals) & set(report_b.totals)):
            delta = report_b.totals[key] - report_a.totals[key]
            print(f"  {key}: {_billions(delta)} bEUR")
        print(f"error: both summaries have vintage {report_a.vintage}; "
              "nothing to compare", file=sys.stderr)
        return 1
    evolution = gap.compare_vintages(report_a, report_b)
    first, last = evolution.points[0], evolution.points[-1]
    print(f"scenario: {evolution.scenario_name}")
    print(f"vintage {first[0]}: {_billions(first[1])} bEUR")
    print(f"vintage {last[0]}: {_billions(last[1])} bEUR")
    print(f"total change: {_billions(evolution.total_delta_eur)} bEUR")
    for key in sorted(evolution.target_deltas_eur):
        print(f"  {key}: {_billions(evolution.target_deltas_eur[key])} bEUR")
    print(f"slope: {_billions(evolution.slope_eur_per_year)} bEUR/year")
    print(f"extrapolated 2025 gap: {_billions(evolution.extrapolated_2025_eur)} bEUR")
    if evolution.zero_crossing_year is not None:
        print(f"gap closes around: {evolution.zero_crossing_year}")
    else:
        print("gap closes around: never (non-decreasing trend)")
    if evolution.countries_grown:
        grown = ", ".join(f"{c} (+{_billions(v)} bEUR)"
                          for c, v in sorted(evolution.countries_grown.items()))
        print(f"countries where the gap grew: {grown}")
    else:
        print("countries where the gap grew: none")
    if args.out:
        path = dataio._write_json(Path(args.out) / "evolution.json",
                                  dataio.evolution_dict(evolution))
        print(f"wrote: {path}")
    return 0


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _bind_negative_values(argv: list[str]) -> list[str]:
    """Join "--flag -1e9" into "--flag=-1e9". argparse takes a negative
    number in e-notation for an option, so the value would never reach
    the option checks."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if (flag.startswith("--") and flag != "--" and "=" not in flag
                and arg.startswith("-") and _is_number(arg)):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_bind_negative_values(sys.argv[1:] if argv is None else argv))
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "validate":
            return cmd_validate(_resolve_dataset(args.dataset))
        if args.command == "run":
            return cmd_run(args)
        return cmd_compare(args)  # argparse admits only the three commands
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DatasetValidationError as err:
        for entry in err.report.errors:
            print(str(entry), file=sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 1
    except GigagapError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
