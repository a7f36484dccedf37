"""Acceptance gate: twelve numbered criteria, one test each.

Each test prints a single "criterion NN (<name>): PASS" line on
success (run with -s to see them during a passing run); a failing
criterion prints FAIL and surfaces the assertion. Tolerances are
pinned in the assertions themselves.
"""

import functools
import random
import subprocess
import sys
import time

import pytest

import oracle
from datagen import random_dataset
from test_costs import published_preparedness
from test_coverage import grid_search_k, random_instance

from gigagap.costs import (
    CostAction,
    PreparednessFactor,
    adjust_labour,
    build_cost_table,
)
from gigagap.coverage import RECONCILE_TOLERANCE, CoverageState, disaggregate_regions
from gigagap.gap import (
    GapReport,
    OperatorInvestment,
    PreparedInputs,
    compare_vintages,
    prepare_inputs,
    run_scenario,
    subtract_operator_investment,
)
from gigagap.geo import _GEOTYPE_ORDER, Country, Geotype
from gigagap.targets import (
    ENTERPRISE_EQUIVALENTS,
    SCENARIO_PRESETS,
    demand_t2,
    household_equivalents,
)

GEOTYPE_ORDER = (Geotype.URBAN, Geotype.SUBURBAN, Geotype.SEMI_RURAL,
                 Geotype.RURAL, Geotype.EXTREMELY_RURAL)

# Published per-premise (and per-km) unit costs, EUR 2019.
PUBLISHED_COSTS = {
    CostAction.FTTH_NEW: (561.0, 1376.0, 2032.0, 2633.0, 6783.0),
    CostAction.FTTB_NEW: (416.0, 838.0, 1375.0, 2134.0, 2467.0),
    CostAction.FTTC_NEW: (283.0, 476.0, 816.0, 1380.0, 1549.0),
    CostAction.UPGRADE_FTTB_TO_FTTH: (188.0, 643.0, 813.0, 870.0, 4836.0),
    CostAction.UPGRADE_FTTC_TO_FTTH: (321.0, 1005.0, 1372.0, 1455.0, 5754.0),
    CostAction.UPGRADE_FTTH_TO_1G: (112.0, 275.0, 406.0, 527.0, 1357.0),
    CostAction.UPGRADE_DOCSIS30_TO_31: (80.0, 196.0, 290.0, 375.0, 967.0),
    CostAction.FIVE_G_GUARANTEED: (712.0, 930.0, 1131.0, 1692.0, 7088.0),
    CostAction.FIVE_G_NOMINAL: (444.0, 565.0, 687.0, 871.0, 1330.0),
    CostAction.FIVE_G_RAIL_NOMINAL_KM: 35_000.0,
    CostAction.FIVE_G_RAIL_GUARANTEED_KM: 55_000.0,
    CostAction.FIVE_G_ROAD_NOMINAL_KM: 95_000.0,
    CostAction.FIVE_G_ROAD_GUARANTEED_KM: 115_000.0,
}


def criterion(num: int, name: str, budget_s: float):
    """Print the one-line verdict and enforce the runtime budget."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} ({name}): FAIL", flush=True)
                raise
            elapsed = time.monotonic() - start
            assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s"
            print(f"criterion {num:02d} ({name}): PASS", flush=True)
        return wrapper
    return deco


def neutral_country(code="XX"):
    return Country(code=code, labour_index=1.0,
                   preparedness=PreparednessFactor(code, 0.0, 0.0, 0.0),
                   road_km=0.0, rail_km=0.0, capital_region="R1")


@criterion(1, "published cost table reproduced", 1.0)
def test_criterion_01_cost_table_reproduction(dataset):
    # The fixture's cost references are the bundled defaults, all priced in 2019.
    table = build_cost_table(dataset.cost_references, {"XX": neutral_country()}, {2019: 1.0})
    checked = 0
    for action, expected in PUBLISHED_COSTS.items():
        if action.per_km:
            assert table.unit_cost(action, None, "XX") == expected
            checked += 1
        else:
            for g, value in zip(GEOTYPE_ORDER, expected):
                assert table.unit_cost(action, g, "XX") == value, (action, g)
                checked += 1
    assert checked == 49


@criterion(2, "labour adjustment formula", 1.0)
def test_criterion_02_labour_formula():
    assert adjust_labour(1000.0, 1.5) == 1350.0
    rng = random.Random(2)
    for _ in range(1000):
        c = rng.uniform(0.0, 1e7)
        assert adjust_labour(c, 1.0) == c


@criterion(3, "national preparedness sums", 1.0)
def test_criterion_03_preparedness_sums():
    rows = published_preparedness()
    assert len(rows) == 28
    for code, (factor, combined) in rows.items():
        assert factor.combined == combined, code
    published = {code: combined for code, (_, combined) in rows.items()}
    assert published["DE"] == -0.30
    assert published["BG"] == 0.20
    assert published["FR"] == 0.0


@criterion(4, "enterprise household equivalents", 1.0)
def test_criterion_04_enterprise_equivalents():
    assert ENTERPRISE_EQUIVALENTS == {"0-9": 2.0, "10-19": 5.0, "20-49": 11.0,
                                      "50-249": 50.0, "250+": 100.0}
    rng = random.Random(4)
    classes = list(ENTERPRISE_EQUIVALENTS)
    for _ in range(500):
        picked = rng.sample(classes, rng.randint(1, len(classes)))
        counts = {sc: rng.uniform(0.0, 1e6) for sc in picked}
        direct = 0.0
        for sc, n in counts.items():
            direct += ENTERPRISE_EQUIVALENTS[sc] * n
        assert household_equivalents(counts) == direct


@criterion(5, "coverage disaggregation vs grid search", 30.0)
def test_criterion_05_coverage_disaggregation():
    rng = random.Random(5)
    for _ in range(500):
        intervals, densities, weights, national = random_instance(rng)
        got = disaggregate_regions(intervals, national, densities, weights)

        total_w = sum(weights.values())
        mean = sum(weights[r] * got[r] for r in got) / total_w
        assert abs(mean - national) <= 1e-4
        assert RECONCILE_TOLERANCE == 1e-4

        by_band = {}
        for r, v in got.items():
            band = intervals[r]
            assert band.low - 1e-12 <= v <= band.high + 1e-12
            by_band.setdefault((band.low, band.high), []).append(r)
        for members in by_band.values():
            members.sort(key=lambda r: densities[r])
            for a, b in zip(members, members[1:]):
                assert got[b] >= got[a] - 1e-9

        k = grid_search_k(intervals, densities, weights, national)
        for r, v in got.items():
            band = intervals[r]
            assert v == pytest.approx(
                min(band.high, max(band.low, k * densities[r])), abs=1e-3)


@criterion(6, "pipeline equals brute-force oracle", 10.0)
def test_criterion_06_pipeline_oracle(dataset, prepared, fixture_dir):
    assert len(dataset.regions) <= 20
    for name in ("baseline", "max", "min"):
        want = oracle.compute_totals(str(fixture_dir), name)
        got = run_scenario(dataset, SCENARIO_PRESETS[name], scenario_name=name,
                           prepared=prepared).totals
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-6), (name, key)


@criterion(7, "scenario ordering on random datasets", 60.0)
def test_criterion_07_scenario_monotonicity():
    for seed in range(100):
        ds = random_dataset(seed)
        prepared = prepare_inputs(ds)
        totals = {name: run_scenario(ds, SCENARIO_PRESETS[name], scenario_name=name,
                                     prepared=prepared).totals
                  for name in ("min", "baseline", "max")}
        head = {n: t["egs_premises_companies"] for n, t in totals.items()}
        assert head["min"] <= head["baseline"] * (1 + 1e-12) + 1e-6, seed
        assert head["baseline"] <= head["max"] * (1 + 1e-12) + 1e-6, seed
        standalone = sum(totals["baseline"][k]
                         for k in ("t1", "t2_urban", "t2_transport", "t3", "t4"))
        assert head["baseline"] <= standalone * (1 + 1e-12) + 1e-6, seed


@criterion(8, "more coverage never raises the gap", 30.0)
def test_criterion_08_coverage_monotonicity(dataset, prepared):
    base = run_scenario(dataset, SCENARIO_PRESETS["baseline"], prepared=prepared).totals
    keys = sorted(prepared.state.entries,
                  key=lambda k: (k[0], _GEOTYPE_ORDER[k[1]], k[2].value))
    rng = random.Random(8)
    done = 0
    while done < 100:
        region, g, tech = rng.choice(keys)
        value = prepared.state.entries[(region, g, tech)]
        if value >= 1.0:
            continue
        entries = dict(prepared.state.entries)
        entries[(region, g, tech)] = value + rng.uniform(0.0, 1.0 - value)
        raised = PreparedInputs(
            frame=prepared.frame,
            state=CoverageState(vintage=prepared.state.vintage, entries=entries),
            table=prepared.table)
        totals = run_scenario(dataset, SCENARIO_PRESETS["baseline"],
                              prepared=raised).totals
        for key in totals:
            assert totals[key] <= base[key] * (1 + 1e-12) + 1e-6, (region, g, tech, key)
        done += 1


@criterion(9, "transport corridor conservation", 1.0)
def test_criterion_09_transport_conservation(dataset, prepared):
    items = demand_t2(prepared.frame, SCENARIO_PRESETS["baseline"])
    for code, country in prepared.frame.countries.items():
        member = set(prepared.frame.country_regions[code])
        road = sum(i.quantity for i in items
                   if i.region in member and i.unit.value == "km_road")
        rail = sum(i.quantity for i in items
                   if i.region in member and i.unit.value == "km_rail")
        assert road == pytest.approx(country.road_km, rel=1e-9)
        assert rail == pytest.approx(country.rail_km, rel=1e-9)
    fr_road = sum(i.quantity for i in items
                  if i.region.startswith("FR") and i.unit.value == "km_road")
    cy_rail = sum(i.quantity for i in items
                  if i.region.startswith("CY") and i.unit.value == "km_rail")
    assert fr_road == pytest.approx(12_797.0, rel=1e-9)
    assert cy_rail == 0.0


@criterion(10, "operator pools and greedy consumption", 1.0)
def test_criterion_10_operator_subtraction(dataset, prepared):
    op = OperatorInvestment()
    assert op.fixed_pool_eur == 41.6e9
    assert op.wireless_pool_eur == 132e9

    from test_gap import sweep_oracle

    report = run_scenario(dataset, SCENARIO_PRESETS["baseline"], prepared=prepared,
                          operator=None)
    for pools in (op, OperatorInvestment(fixed_per_year_eur=0.4e9,
                                         wireless_per_year_eur=0.25e9)):
        got = subtract_operator_investment(report, pools).operator
        fixed_used, wl_used, residual = sweep_oracle(report, pools)
        assert got.fixed_used_eur == fixed_used
        assert got.wireless_used_eur == wl_used
        assert got.residual_by_country_eur == residual


@criterion(11, "evolution fit between vintages", 1.0)
def test_criterion_11_evolution_fit():
    def point(vintage, total):
        return GapReport(scenario=None, scenario_name="baseline", vintage=vintage,
                         cells=[], totals={"egs_premises_companies": total},
                         country_totals={}, geotype_totals={}, regions={})

    ev = compare_vintages(point(2017, 341.8e9), point(2019, 294.9e9))
    assert ev.slope_eur_per_year == pytest.approx(-23.45e9, abs=0.01e9)
    assert ev.zero_crossing_year == 2032


@criterion(12, "byte-identical deterministic runs", 10.0)
def test_criterion_12_determinism(tmp_path):
    def run(out, threads):
        proc = subprocess.run(
            [sys.executable, "-m", "gigagap", "run", "--threads", str(threads),
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    run(tmp_path / "a", 1)
    run(tmp_path / "b", 1)
    run(tmp_path / "c", 8)
    names = ("gap_cells.csv", "gap_summary.json", "histogram.csv", "evolution.json",
             "coverage_point.csv", "cost_table.csv")
    for name in names:
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes(), name
        assert first == (tmp_path / "c" / name).read_bytes(), name
