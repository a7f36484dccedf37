import dataclasses
import itertools
import math
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gigagap import gap
from gigagap.costs import (
    CostAction,
    CostReference,
    CostTable,
    Granularity,
    adjust_labour,
    apply_preparedness,
    apply_sharing,
)
from gigagap.coverage import CoverageState, TechClass
from gigagap.dataio import validate_dataset
from gigagap.errors import DataError
from gigagap.gap import (
    GapCell,
    GapReport,
    OperatorInvestment,
    PreparedInputs,
    RunOptions,
    breakdown,
    compare_vintages,
    compose_egs,
    cost_ranking,
    dedup_t3_over_t4,
    footprint_partition,
    gap_for_item,
    histogram_gap_shares,
    prepare_inputs,
    run_scenario,
    subtract_operator_investment,
)
from gigagap.gap import RegionSummary, _item_paths
from gigagap.geo import Geotype, build_frame
from gigagap.targets import (
    SCENARIO_PRESETS,
    DemandItem,
    Quality,
    Scenario,
    T3Tier,
    T4WirelessScope,
    Target,
    Unit,
    build_demands,
)

import oracle
from datagen import random_dataset, write_dataset

BASELINE = SCENARIO_PRESETS["baseline"]
URBAN = Geotype.URBAN

ROUTES_ALL = {
    TechClass.FTTH_100M: CostAction.UPGRADE_FTTH_TO_1G,
    TechClass.FTTB: CostAction.UPGRADE_FTTB_TO_FTTH,
    TechClass.FTTC_ADV_DSL: CostAction.UPGRADE_FTTC_TO_FTTH,
    TechClass.DOCSIS_30: CostAction.UPGRADE_DOCSIS30_TO_31,
}


def table_for(costs: dict[CostAction, float], geotype=URBAN, country="XX") -> CostTable:
    adjusted = {(a, None if a.per_km else geotype, country): v for a, v in costs.items()}
    base = {(a, None if a.per_km else geotype): v for a, v in costs.items()}
    return CostTable(base=base, adjusted=adjusted)


def state_for(coverages: dict[TechClass, float], region="R", geotype=URBAN) -> CoverageState:
    return CoverageState(vintage=2019,
                         entries={(region, geotype, t): v for t, v in coverages.items()})


class TestPartition:
    GBPS1 = frozenset({TechClass.FTTH_1G, TechClass.DOCSIS_31})

    def test_nested_footprints_take_cheapest_available_route(self):
        state = state_for({TechClass.FTTH_1G: 0.2, TechClass.FTTH_100M: 0.5,
                           TechClass.DOCSIS_30: 0.9})
        table = table_for({CostAction.FTTH_NEW: 561.0,
                           CostAction.UPGRADE_FTTH_TO_1G: 112.0,
                           CostAction.UPGRADE_FTTB_TO_FTTH: 188.0,
                           CostAction.UPGRADE_FTTC_TO_FTTH: 321.0,
                           CostAction.UPGRADE_DOCSIS30_TO_31: 80.0})
        satisfied, slices = footprint_partition(
            state, "R", URBAN, self.GBPS1, ROUTES_ALL, CostAction.FTTH_NEW, table, "XX")
        assert satisfied == 0.2
        assert [s[1] for s in slices] == [CostAction.UPGRADE_DOCSIS30_TO_31,
                                          CostAction.UPGRADE_DOCSIS30_TO_31,
                                          CostAction.FTTH_NEW]
        assert [s[0] for s in slices] == pytest.approx([0.3, 0.4, 0.1])
        assert [s[2] for s in slices] == [80.0, 80.0, 561.0]

    def test_route_must_reach_slice_upper_edge(self):
        # the 100M footprint ends at 0.5, so the (0.5, 1.0] slice cannot
        # ride the cheap 1G upgrade
        state = state_for({TechClass.FTTH_100M: 0.5})
        table = table_for({CostAction.FTTH_NEW: 561.0,
                           CostAction.UPGRADE_FTTH_TO_1G: 112.0})
        routes = {TechClass.FTTH_100M: CostAction.UPGRADE_FTTH_TO_1G}
        _, slices = footprint_partition(
            state, "R", URBAN, self.GBPS1, routes, CostAction.FTTH_NEW, table, "XX")
        assert slices == [
            (pytest.approx(0.5), CostAction.UPGRADE_FTTH_TO_1G, 112.0),
            (pytest.approx(0.5), CostAction.FTTH_NEW, 561.0),
        ]

    def test_no_routes_single_newbuild_slice(self):
        state = state_for({TechClass.FIVE_G: 0.3})
        table = table_for({CostAction.FIVE_G_NOMINAL: 444.0})
        satisfied, slices = footprint_partition(
            state, "R", URBAN, frozenset({TechClass.FIVE_G}), {},
            CostAction.FIVE_G_NOMINAL, table, "XX")
        assert satisfied == 0.3
        assert slices == [(pytest.approx(0.7), CostAction.FIVE_G_NOMINAL, 444.0)]

    def test_fully_satisfied_cell_yields_no_slices(self):
        state = state_for({TechClass.FTTH_1G: 1.0})
        table = table_for({CostAction.FTTH_NEW: 561.0})
        satisfied, slices = footprint_partition(
            state, "R", URBAN, self.GBPS1, {}, CostAction.FTTH_NEW, table, "XX")
        assert satisfied == 1.0
        assert slices == []

    def test_equal_cost_routes_break_ties_by_action_order(self):
        state = state_for({TechClass.FTTB: 0.8, TechClass.FTTC_ADV_DSL: 0.8})
        table = table_for({CostAction.FTTH_NEW: 561.0,
                           CostAction.UPGRADE_FTTB_TO_FTTH: 100.0,
                           CostAction.UPGRADE_FTTC_TO_FTTH: 100.0})
        routes = {TechClass.FTTB: CostAction.UPGRADE_FTTB_TO_FTTH,
                  TechClass.FTTC_ADV_DSL: CostAction.UPGRADE_FTTC_TO_FTTH}
        _, slices = footprint_partition(
            state, "R", URBAN, self.GBPS1, routes, CostAction.FTTH_NEW, table, "XX")
        assert slices[0][1] is CostAction.UPGRADE_FTTB_TO_FTTH

    def test_slice_widths_cover_unsatisfied_premises_exactly(self):
        state = state_for({TechClass.DOCSIS_31: 0.37, TechClass.FTTB: 0.62,
                           TechClass.DOCSIS_30: 0.88})
        table = table_for({CostAction.FTTH_NEW: 561.0,
                           CostAction.UPGRADE_FTTB_TO_FTTH: 188.0,
                           CostAction.UPGRADE_DOCSIS30_TO_31: 80.0})
        routes = {TechClass.FTTB: CostAction.UPGRADE_FTTB_TO_FTTH,
                  TechClass.DOCSIS_30: CostAction.UPGRADE_DOCSIS30_TO_31}
        satisfied, slices = footprint_partition(
            state, "R", URBAN, self.GBPS1, routes, CostAction.FTTH_NEW, table, "XX")
        assert satisfied == 0.37
        assert sum(s[0] for s in slices) == pytest.approx(1.0 - 0.37)


class TestGapForItem:
    def test_premise_item_merges_slices_per_action(self, prepared):
        item = DemandItem(Target.T4, "FR102", Geotype.SEMI_RURAL, Unit.PREMISES,
                          1000.0, CostAction.FTTH_NEW)
        cells = gap_for_item(item, prepared.state, prepared.table, prepared.frame,
                             BASELINE)
        actions = [c.action for c in cells]
        assert len(actions) == len(set(actions))
        assert all(c.quantity > 0 for c in cells)
        assert all(c.target is Target.T4 for c in cells)

    def test_km_item_priced_flat(self, dataset):
        # A per-km item has no split: a run prices it as one cell at its own
        # action's per-km cost, and gap_for_item takes premise items only.
        data = dataclasses.replace(dataset)
        prepared = prepare_inputs(data)
        report = run_scenario(data, BASELINE, prepared=prepared, operator=None,
                              only_targets={Target.T2_TRANSPORT})
        items = build_demands(prepared.frame, BASELINE, {Target.T2_TRANSPORT})
        km = [(c.region, c.geotype, c.unit, c.action, c.quantity) for c in report.cells]
        assert sorted(km, key=str) == sorted(
            [(i.region, i.geotype, i.unit, i.required_action, i.quantity)
             for i in items[Target.T2_TRANSPORT]], key=str)
        for cell in report.cells:
            country = prepared.frame.regions[cell.region].country
            assert cell.unit_cost_eur == prepared.table.unit_cost(cell.action, None, country)
        assert any(c.region == "FR102" and c.unit is Unit.KM_ROAD for c in report.cells)
        item = DemandItem(Target.T2_TRANSPORT, "FR102", Geotype.RURAL, Unit.KM_ROAD,
                          100.0, CostAction.FIVE_G_ROAD_NOMINAL_KM)
        with pytest.raises(DataError, match="no path rules"):
            gap_for_item(item, prepared.state, prepared.table, prepared.frame, BASELINE)


class TestDedup:
    def item(self, geotype, qty=100.0, locations=30.0):
        return DemandItem(Target.T3, "R1", geotype, Unit.PREMISES, qty,
                          CostAction.FTTH_NEW, enterprise_locations=locations)

    def test_fixed_geotype_subtracts_locations(self):
        out = dedup_t3_over_t4([self.item(Geotype.URBAN)], BASELINE)
        assert out[0].quantity == pytest.approx(70.0)

    def test_wireless_geotype_passes_through(self):
        out = dedup_t3_over_t4([self.item(Geotype.EXTREMELY_RURAL)], BASELINE)
        assert out[0].quantity == 100.0

    def test_fully_absorbed_item_dropped(self):
        out = dedup_t3_over_t4([self.item(Geotype.URBAN, qty=20.0, locations=30.0)],
                               BASELINE)
        assert out == []

    def test_wireless_scope_follows_scenario(self):
        out = dedup_t3_over_t4([self.item(Geotype.RURAL)], SCENARIO_PRESETS["min"])
        assert out[0].quantity == 100.0

    def test_non_t3_rejected(self):
        bad = DemandItem(Target.T4, "R1", Geotype.URBAN, Unit.PREMISES, 10.0,
                         CostAction.FTTH_NEW)
        with pytest.raises(DataError):
            dedup_t3_over_t4([bad], BASELINE)


@pytest.fixture
def partition_calls(monkeypatch):
    """The arguments of every gap.footprint_partition call from here on.
    gap_for_item looks the function up as a module global, so the
    wrapper sees every split a run computes."""
    calls = []
    real = gap.footprint_partition

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gap, "footprint_partition", counted)
    return calls


@pytest.fixture
def netting_sorts(monkeypatch):
    """The cells of every gap._netting_order call from here on: each call
    sorts one run's composed cells into netting order."""
    calls = []
    real = gap._netting_order

    def counted(cells):
        calls.append(cells)
        return real(cells)

    monkeypatch.setattr(gap, "_netting_order", counted)
    return calls


@pytest.fixture(scope="module")
def baseline_report(dataset, prepared):
    return run_scenario(dataset, BASELINE, scenario_name="baseline", prepared=prepared)


class TestRunScenario:
    def test_totals_match_independent_oracle(self, dataset, prepared, fixture_dir):
        want = oracle.compute_totals(str(fixture_dir), "baseline")
        got = run_scenario(dataset, BASELINE, prepared=prepared).totals
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-6), key

    def test_composition_identities(self, baseline_report):
        t = baseline_report.totals
        assert t["egs_premises"] == t["t1"] + t["t2_after_t1"] + t["t4"]
        assert t["egs_premises_companies"] == t["egs_premises"] + t["t3_composed"]
        assert baseline_report.headline_total_eur == t["egs_premises_companies"]
        assert t["t2_after_t1"] <= t["t2_urban"] + t["t2_transport"] + 1e-9
        assert t["t3_composed"] <= t["t3"] + 1e-9
        assert 0.0 < t["egs_households"] <= t["egs_premises"] + 1e-9

    def test_no_t2_urban_cells_in_capitals(self, baseline_report, prepared):
        capitals = {c.capital_region for c in prepared.frame.countries.values()}
        assert not any(c.target is Target.T2_URBAN and c.region in capitals
                       for c in baseline_report.cells)

    def test_country_and_geotype_totals_resum(self, baseline_report):
        total = sum(c.investment_eur for c in baseline_report.cells)
        assert sum(baseline_report.country_totals.values()) == pytest.approx(total, rel=1e-12)
        assert sum(baseline_report.geotype_totals.values()) == pytest.approx(total, rel=1e-12)

    def test_only_targets_filters_cells_and_totals(self, dataset, prepared):
        rep = run_scenario(dataset, BASELINE, prepared=prepared,
                           only_targets={Target.T1})
        assert set(rep.totals) == {"t1"}
        assert all(c.target is Target.T1 for c in rep.cells)
        full = run_scenario(dataset, BASELINE, prepared=prepared)
        assert rep.totals["t1"] == pytest.approx(full.totals["t1"], rel=1e-12)

    def test_prepared_inputs_take_the_options_they_were_built_with(self, dataset):
        data = dataclasses.replace(dataset)
        sharing = RunOptions(sharing_fraction=0.12)
        prepared = prepare_inputs(data, sharing)
        fresh = run_scenario(dataclasses.replace(data), BASELINE, sharing)
        assert run_scenario(data, BASELINE, prepared=prepared).totals == fresh.totals
        plain = prepare_inputs(data)
        for options, given, built in ((sharing, 0.12, 0.0),
                                      (RunOptions(relax_intervals=0.01), 0.01, 0.0)):
            with pytest.raises(DataError, match=f"is {given}, but .* built with {built}$"):
                run_scenario(data, BASELINE, options, prepared=plain)
        # Inputs built or replaced by hand record no options, so none are checked.
        for copy in (dataclasses.replace(plain),
                     PreparedInputs(frame=plain.frame, state=plain.state, table=plain.table)):
            assert copy.options is None
            run_scenario(data, BASELINE, sharing, prepared=copy)

    def test_sharing_reduces_every_total(self, dataset):
        base = run_scenario(dataset, BASELINE)
        shared = run_scenario(dataset, BASELINE, RunOptions(sharing_fraction=0.12))
        for key in base.totals:
            if base.totals[key] > 0:
                assert shared.totals[key] < base.totals[key]

    def test_region_summaries_track_gigabit_footprint(self, dataset, prepared,
                                                      baseline_report):
        frame, state = prepared.frame, prepared.state
        for rid, summary in baseline_report.regions.items():
            expected = sum(
                frame.premises[(rid, g)]
                * (1.0 - max(state.get(rid, g, TechClass.FTTH_1G),
                             state.get(rid, g, TechClass.DOCSIS_31)))
                for g in Geotype)
            assert summary.premises_to_cover == pytest.approx(expected, rel=1e-12)
            assert summary.premises_total == pytest.approx(frame.region_premises(rid),
                                                           rel=1e-12)

    def test_cells_sorted_once_and_totals_summed_in_order(self, dataset, prepared,
                                                          baseline_report):
        standalone = run_scenario(dataset, BASELINE, prepared=prepared,
                                  only_targets=set(Target))
        for report in (baseline_report, standalone):
            assert report.cells == sorted_cells(report.cells)

        def in_order(report, target):
            return sum(c.investment_eur for c in report.cells if c.target is target)

        composed = baseline_report.totals
        assert composed["t1"] == in_order(baseline_report, Target.T1)
        assert composed["t2_transport"] == in_order(baseline_report, Target.T2_TRANSPORT)
        assert composed["t2_after_t1"] == (in_order(baseline_report, Target.T2_URBAN)
                                           + composed["t2_transport"])
        assert composed["t3_composed"] == in_order(baseline_report, Target.T3)
        assert composed["t4"] == in_order(baseline_report, Target.T4)
        for target in Target:
            key = target.value.lower()
            assert standalone.totals[key] == in_order(standalone, target)
            assert composed[key] == standalone.totals[key]

    def test_prepared_region_summaries_equal_fresh_ones(self, dataset, prepared,
                                                        baseline_report):
        fresh = run_scenario(dataclasses.replace(dataset), BASELINE)
        assert baseline_report.regions == fresh.regions
        bare = PreparedInputs(frame=prepared.frame, state=prepared.state,
                              table=prepared.table)
        assert run_scenario(dataset, BASELINE, prepared=bare).regions == fresh.regions


class TestRandomDatasetsOnDisk:
    """A random dataset written as its CSV files validates cleanly, and
    every preset's totals on it match the oracle's, read from those files."""

    @pytest.mark.parametrize("seed", range(30))
    def test_totals_match_independent_oracle(self, tmp_path, seed):
        write_dataset(random_dataset(seed), tmp_path)
        data, report = validate_dataset(tmp_path)
        assert report.errors == [], seed
        for name in ("baseline", "max", "min"):
            got = run_scenario(data, SCENARIO_PRESETS[name]).totals
            for key, value in oracle.compute_totals(str(tmp_path), name).items():
                assert got[key] == pytest.approx(value, rel=1e-6), (seed, name, key)


def sorted_cells(cells):
    """Cells in report order: target, region, geotype, action, unit value."""
    return sorted(cells, key=lambda c: (gap._TARGET_ORDER[c.target], c.region, c.geotype.order,
                                        gap._ACTION_ORDER[c.action], c.unit.value))


def netting_key(cell):
    return (cell.unit_cost_eur, cell.region, cell.geotype.order,
            gap._TARGET_ORDER[cell.target], gap._ACTION_ORDER[cell.action])


def stage_cells(prepared, key):
    """A stage key's cells at prepared's table: its rows in prepared.shared,
    each taken as prepared's cell for that row."""
    return tuple(prepared.cells[row] for row in prepared.shared.stages[key])


def run_cells(prepared, key):
    """A run key's report.cells, composed as run_scenario composes them from
    the rows of the key's stages."""
    table = prepared.shared
    standalone = {stage[0]: table.stages[stage] for stage in key[1]}
    t3_composed = standalone.pop(gap.T3_COMPOSED, None)
    if t3_composed is None:
        rows = [row for stage_rows in standalone.values() for row in stage_rows]
    else:
        capitals = frozenset(table.region_codes[c.capital_region]
                             for c in prepared.frame.countries.values())
        rows = compose_egs(standalone, t3_composed, capitals, table.region)
    return [prepared.cells[row] for row in rows]


def store_keys(prepared):
    """prepared.shared's stage keys and prepared.store's run keys. Every
    stage key is one of PRICED_KEYS's stages, every stage a run key names
    is priced, and every run key is in prepared.shared.runs: its composed
    rows, then one index array of the run's fixed and one of its wireless
    cells, which together index each of the run's cells once, each array in
    netting order. The run's stored total is its cells' total."""
    runs = set(prepared.store)
    stages = set(prepared.shared.stages)
    assert all(key[0] == "run" for key in runs)
    assert all(key[0] in gap.PRICED_KEYS for key in stages)
    assert all(set(key[1]) <= stages for key in runs)
    for key in runs:
        cells, (composed, *order) = run_cells(prepared, key), prepared.shared.runs[key]
        assert cells == [prepared.cells[row] for row in composed]
        fixed, wireless = order
        assert [type(indices) for indices in order] == [array, array]
        assert sorted(itertools.chain(*order)) == list(range(len(cells)))
        assert not any(cells[i].action.wireless for i in fixed)
        assert all(cells[i].action.wireless for i in wireless)
        for indices in order:
            keys = [netting_key(cells[i]) for i in indices]
            assert all(a <= b for a, b in zip(keys, keys[1:]))
        assert prepared.store[key][3] == sum(c.investment_eur for c in cells)
    return stages, runs


def dataset_entries(data, kind):
    """data.store's entries of one kind ("base" or "cells": a CellTable), by key."""
    return {key: value for key, value in data.store.items() if key[0] == kind}


def only_country(table, code):
    """The table with only one country's costs."""
    return CostTable(base=table.base,
                     adjusted={key: v for key, v in table.adjusted.items() if key[2] == code})


class TestPricingMemo:
    """PreparedInputs.store, shared across runs, changes no result."""

    OPERATORS = (OperatorInvestment(),
                 OperatorInvestment(fixed_per_year_eur=1e12, wireless_per_year_eur=2e9))
    # Every scenario: 2 x 2 x 3 x 2 x 2 = 48. The fixture has too few
    # enterprises for the five-million tier, so those runs must raise alike.
    SCENARIOS = [Scenario(*fields) for fields in itertools.product(
        Quality, Quality, T3Tier, T4WirelessScope, (False, True))]
    POINTS = [(scenario, op, only) for scenario in SCENARIOS for op in range(2)
              for only in (None, frozenset({Target.T1, Target.T3, Target.T4}))]

    def run(self, dataset, point, prepared=None, options=None):
        scenario, op, only = point
        try:
            report = run_scenario(dataset, scenario, options, operator=self.OPERATORS[op],
                                  only_targets=only, prepared=prepared)
        except DataError as err:
            return str(err)
        return (report.cells, report.totals, report.country_totals,
                report.geotype_totals, report.operator)

    def test_shared_inputs_match_fresh_ones_in_any_order(self, dataset, partition_calls):
        assert len(self.SCENARIOS) == 48
        fresh = {point: self.run(dataclasses.replace(dataset), point)
                 for point in self.POINTS}
        shuffled = list(self.POINTS)
        random.Random(20180924).shuffle(shuffled)
        for order in (self.POINTS, self.POINTS[::-1], shuffled):
            shared = prepare_inputs(dataclasses.replace(dataset))
            partition_calls.clear()
            for point in order:
                assert self.run(dataset, point, shared) == fresh[point], point
            assert len(partition_calls) > 0
            stages, runs = store_keys(shared)
            assert stages and runs

    @pytest.mark.parametrize("seed", [None, 3])
    def test_a_run_splits_each_cell_once(self, dataset, seed, partition_calls):
        # The stages of one run share cells: T3 net of T4 reuses every
        # split of T3, and T3 and T4 share route rules where both go fixed.
        data = dataclasses.replace(dataset) if seed is None else random_dataset(seed)
        prepared = prepare_inputs(data)
        frame = prepared.frame
        demands = build_demands(frame, BASELINE)
        demands["composed"] = dedup_t3_over_t4(demands[Target.T3], BASELINE)
        cells = set()
        for item in itertools.chain.from_iterable(demands.values()):
            if item.unit is Unit.PREMISES:
                country = frame.countries[frame.regions[item.region].country]
                satisfying, routes, newbuild = _item_paths(item, country, BASELINE)
                cells.add((item.region, item.geotype, satisfying, tuple(routes.items()),
                           newbuild))
        partition_calls.clear()
        run_scenario(data, BASELINE, prepared=prepared)
        split = [(region, geotype, satisfying, tuple(routes.items()), newbuild)
                 for _, region, geotype, satisfying, routes, newbuild, *_ in partition_calls]
        assert len(split) == len(cells)
        assert set(split) == cells

    def test_reports_never_share_a_cells_list(self, dataset, prepared):
        reports = [run_scenario(dataset, BASELINE, prepared=prepared, operator=op,
                                only_targets=only)
                   for op in (None, *self.OPERATORS)
                   for only in (None, {Target.T1}, {Target.T3})
                   for _ in range(2)]
        assert len({id(r.cells) for r in reports}) == len(reports)
        for totals in ("totals", "country_totals", "geotype_totals"):
            assert len({id(getattr(r, totals)) for r in reports}) == len(reports), totals
        # The cells themselves are shared, read-only, between reports.
        assert reports[0].cells[0] is reports[2].cells[0]

    def test_inputs_never_share_a_memo(self, dataset, partition_calls):
        # Its own dataset copy: the session dataset's store may already
        # hold baseline rows, and then `prepared` gathers instead of pricing.
        dataset = dataclasses.replace(dataset)
        prepared = prepare_inputs(dataset)
        run_scenario(dataset, BASELINE, prepared=prepared)
        assert len(partition_calls) > 0
        stages, runs = store_keys(prepared)
        assert stages and runs
        entries = {k: 1.0 for k in prepared.state.entries}
        raised = CoverageState(vintage=prepared.state.vintage, entries=entries)
        copies = [PreparedInputs(frame=prepared.frame, state=raised, table=prepared.table),
                  dataclasses.replace(prepared, state=raised),
                  prepare_inputs(dataset)]
        for copy in copies:
            assert copy.store == {}
            assert copy.store is not prepared.store
        assert len({id(c.store) for c in copies}) == len(copies)
        # Full coverage satisfies every premise; a store shared with
        # `prepared` would price T4 as before.
        for copy in copies[:2]:
            assert run_scenario(dataset, BASELINE, prepared=copy).totals["t4"] == 0.0


class TestSharingSweep:
    """Inputs prepared from one dataset at several sharing values share its
    store (frame, coverage state, region summaries and cells) and change no
    result."""

    SHARING = (0.0, 0.06, 0.12, 0.06, 0.0)
    POINTS = [(SCENARIO_PRESETS[name], op, only) for name in ("baseline", "max", "min")
              for op in range(2)
              for only in (None, frozenset({Target.T1, Target.T3, Target.T4}))]

    OPERATORS = TestPricingMemo.OPERATORS
    run = TestPricingMemo.run

    @pytest.mark.parametrize("seed", [None, 3, 17])
    def test_every_point_matches_a_run_on_a_fresh_dataset(self, dataset, seed,
                                                          partition_calls, netting_sorts):
        data = dataclasses.replace(dataset) if seed is None else random_dataset(seed)
        fresh = {(sharing, point): self.run(dataclasses.replace(data), point,
                                            options=RunOptions(sharing_fraction=sharing))
                 for sharing in set(self.SHARING) for point in self.POINTS}
        for i, sharing in enumerate(self.SHARING):
            options = RunOptions(sharing_fraction=sharing)
            shared = prepare_inputs(data, options)
            partition_calls.clear()
            netting_sorts.clear()
            for point in self.POINTS:
                assert self.run(data, point, shared, options) == fresh[sharing, point], (
                    seed, sharing, point)
            # Only the first input prices and sorts; the others gather the
            # dataset's rows and net them in its netting order.
            runs = store_keys(shared)[1]
            if i == 0:
                assert len(partition_calls) > 0
                assert len(netting_sorts) == len(runs) > 0
            else:
                assert len(partition_calls) == 0, (seed, sharing)
                assert len(netting_sorts) == 0, (seed, sharing)
        assert [key[:2] for key in dataset_entries(data, "cells")] == [("cells", 0.0)]

    def test_sharing_values_share_one_base_per_relax_value(self, dataset):
        data = dataclasses.replace(dataset)
        first, *others = [prepare_inputs(data, RunOptions(sharing_fraction=s))
                          for s in (0.0, 0.06, 0.12)]
        for other in others:
            assert other.frame is first.frame
            assert other.state is first.state
            assert other.regions is first.regions
            assert other.table is not first.table
        relaxed = prepare_inputs(data, RunOptions(relax_intervals=0.01))
        copied = prepare_inputs(dataclasses.replace(data))
        for other in (relaxed, copied):
            assert other.frame is not first.frame
            assert other.state is not first.state
            assert other.regions is not first.regions
        assert copied.frame == first.frame == build_frame(data)
        assert copied.state == first.state
        assert dataset_entries(data, "base").keys() == {("base", 0.0), ("base", 0.01)}
        assert len(dataset_entries(data, "cells")) == 2
        assert dataclasses.replace(data).store == {}

    def test_hand_built_inputs_never_touch_a_base(self, dataset, partition_calls):
        data = dataclasses.replace(dataset)
        prepared = prepare_inputs(data)
        run_scenario(data, BASELINE, prepared=prepared)
        stored = {key: (len(table.quantity), dict(table.stages), dict(table.runs))
                  for key, table in dataset_entries(data, "cells").items()}
        for copy in (PreparedInputs(frame=prepared.frame, state=prepared.state,
                                    table=prepared.table),
                     dataclasses.replace(prepared)):
            assert copy.shared is None and copy.cells == []
            partition_calls.clear()
            run_scenario(data, SCENARIO_PRESETS["max"], prepared=copy)
            assert len(partition_calls) > 0
            stages, runs = store_keys(copy)
            assert stages and runs
            assert copy.shared.runs.keys() == runs
            assert all(copy.shared is not table for table in data.store.values())
        assert {key: (len(table.quantity), dict(table.stages), dict(table.runs))
                for key, table in dataset_entries(data, "cells").items()} == stored

    def test_a_tie_made_by_scaling_prices_afresh(self, dataset, partition_calls):
        # The FTTC upgrade costs one float step below the FTTH new build in
        # every geotype: it wins at sharing 0. Scaled by 1 - 0.12 the two
        # round to one cost in every country, and the new build wins the tie
        # on action order, so cells repriced from sharing 0 would be wrong.
        upgrade, new = CostAction.UPGRADE_FTTC_TO_FTTH, CostAction.FTTH_NEW

        def adjusted(value, country, sharing):
            cost = adjust_labour(value, country.labour_index)
            return apply_sharing(apply_preparedness(cost, country.preparedness), sharing)

        for step in range(10_000):
            low = 400.0 + step * 0.37
            high = math.nextafter(low, math.inf)
            if all(adjusted(low, c, 0.0) < adjusted(high, c, 0.0)
                   and adjusted(low, c, 0.12) == adjusted(high, c, 0.12)
                   for c in dataset.countries.values()):
                break
        else:
            pytest.fail("no cost pair found that ties after scaling")
        references = [r for r in dataset.cost_references if r.action not in (upgrade, new)]
        references += [CostReference(action, geotype, Granularity.EU, value, 2019)
                       for action, value in ((upgrade, low), (new, high)) for geotype in Geotype]
        data = dataclasses.replace(dataset, cost_references=references)
        options = RunOptions(sharing_fraction=0.12)

        plain = prepare_inputs(data)
        before = [self.run(data, point, plain) for point in self.POINTS]
        tied = prepare_inputs(data, options)
        assert cost_ranking(tied.table) != cost_ranking(plain.table)
        partition_calls.clear()
        after = [self.run(data, point, tied, options) for point in self.POINTS]
        assert len(partition_calls) > 0
        for point, got in zip(self.POINTS, after):
            assert got == self.run(dataclasses.replace(data), point, options=options), point
        assert any(c.action is upgrade for c in before[0][0])
        assert not any(c.action is upgrade for c in after[0][0])

    def test_a_tie_between_countries_made_by_scaling_sorts_afresh(
            self, dataset, partition_calls, netting_sorts):
        # FR takes DE's preparedness and a labour index one float step
        # below DE's, and the road 5G cost is chosen so that FR's per-km cost
        # is one float step below DE's at sharing 0 and equal to it at 0.12.
        # At sharing 0 all FR road cells net before DE's; at 0.12 the tie
        # goes to the region, and DE's regions sort first. No cost within one
        # country changes rank, so only the global ranking tells them apart.
        road = CostAction.FIVE_G_ROAD_NOMINAL_KM
        de = dataset.countries["DE"]
        labour = math.nextafter(de.labour_index, 0.0)

        def adjusted(value, labour, sharing):
            cost = apply_preparedness(adjust_labour(value, labour), de.preparedness)
            return apply_sharing(cost, sharing)

        for step in range(10_000):
            value = 135_000.0 + step * 0.37
            low, high = adjusted(value, labour, 0.0), adjusted(value, de.labour_index, 0.0)
            if (math.nextafter(low, math.inf) == high
                    and adjusted(value, labour, 0.12) == adjusted(value, de.labour_index, 0.12)):
                break
        else:
            pytest.fail("no cost pair found that ties after scaling")
        fr = dataclasses.replace(dataset.countries["FR"], labour_index=labour,
                                 preparedness=dataclasses.replace(de.preparedness, country="FR"))
        references = [r for r in dataset.cost_references if r.action is not road]
        references.append(CostReference(road, None, Granularity.EU, value, 2019))
        data = dataclasses.replace(dataset, cost_references=references,
                                   countries={**dataset.countries, "FR": fr})
        options = RunOptions(sharing_fraction=0.12)

        plain = prepare_inputs(data)
        tied = prepare_inputs(data, options)
        for code in data.countries:
            assert (cost_ranking(only_country(tied.table, code))
                    == cost_ranking(only_country(plain.table, code))), code
        assert cost_ranking(tied.table) != cost_ranking(plain.table)
        assert tied.shared is not plain.shared
        assert len(dataset_entries(data, "cells")) == 2

        # A wireless pool that runs out halfway through the tied road cells.
        fresh = run_scenario(dataclasses.replace(data), BASELINE, options, operator=None)
        tie = tied.table.unit_cost(road, None, "DE")
        wireless = [c for c in fresh.cells if c.action.wireless]
        tied_cells = [c for c in wireless if c.unit_cost_eur == tie]
        assert {fresh.regions[c.region].country for c in tied_cells} == {"DE", "FR"}
        pool = (sum(c.investment_eur for c in wireless if c.unit_cost_eur < tie)
                + sum(c.investment_eur for c in tied_cells) / 2)
        operator = OperatorInvestment(fixed_per_year_eur=0.0, wireless_per_year_eur=pool,
                                      horizon_years=1)

        def run(data, options, prepared=None):
            report = run_scenario(data, BASELINE, options, operator=operator,
                                  prepared=prepared)
            return report.cells, report.totals, report.operator

        run(data, RunOptions(), plain)
        partition_calls.clear()
        netting_sorts.clear()
        got = run(data, options, tied)
        assert len(partition_calls) > 0
        assert len(netting_sorts) == 1
        assert got == run(dataclasses.replace(data), options)
        # Gathered in the netting order of sharing 0, FR's road cells would
        # net first, and the pool would run out elsewhere.
        key = next(iter(tied.store))
        stale = (*plain.shared.runs[key][1:], tied.store[key][3])
        report = run_scenario(data, BASELINE, options, operator=None, prepared=tied)
        assert subtract_operator_investment(report, operator, stale).operator != got[2]


class TestCellTable:
    """A dataset's cell table holds each distinct cell once, as columns.
    Every PreparedInputs builds one GapCell per row, which all its stages
    share, and each stage's cells equal a cold pricing on a fresh dataset."""

    @pytest.mark.parametrize("seed", [None, 3, 17])
    def test_one_cell_per_distinct_cell_and_stages_as_priced_cold(self, dataset, seed):
        data = dataclasses.replace(dataset) if seed is None else random_dataset(seed)
        presets = [SCENARIO_PRESETS[name] for name in ("baseline", "max", "min")]
        for sharing in (0.0, 0.12):
            options = RunOptions(sharing_fraction=sharing)
            prepared = prepare_inputs(data, options)
            for scenario in presets:
                run_scenario(data, scenario, options, prepared=prepared)
            table = prepared.shared
            assert len(prepared.cells) == len(table.quantity)
            assert len(set(zip(table.identity, table.quantity))) == len(table.quantity)
            # Quantities are the floats first priced, shared by every input's cells.
            assert all(c.quantity is q for c, q in zip(prepared.cells, table.quantity))
            by_content = {}
            for key in table.stages:
                for cell in stage_cells(prepared, key):
                    assert by_content.setdefault(dataclasses.astuple(cell), cell) is cell, key
            assert len(by_content) == len(prepared.cells)

            cold_keys = set()
            for scenario in presets:
                fresh = prepare_inputs(dataclasses.replace(data), options)
                run_scenario(data, scenario, options, prepared=fresh)
                for key in fresh.shared.stages:
                    assert stage_cells(prepared, key) == stage_cells(fresh, key), (seed, key)
                cold_keys |= fresh.shared.stages.keys()
            assert cold_keys == table.stages.keys()

    def test_a_further_input_builds_cells_only_for_the_stages_it_runs(self, dataset):
        data = dataclasses.replace(dataset)
        base = prepare_inputs(data)
        for name in ("baseline", "max", "min"):
            run_scenario(data, SCENARIO_PRESETS[name], prepared=base)
        options = RunOptions(sharing_fraction=0.12)
        further = prepare_inputs(data, options)
        assert further.shared is base.shared
        run_scenario(data, SCENARIO_PRESETS["max"], options, prepared=further)
        [run_key] = further.store
        rows = {row for key in run_key[1] for row in further.shared.stages[key]}
        assert len(further.cells) == len(base.cells)
        assert {row for row, cell in enumerate(further.cells) if cell is not None} == rows
        assert len(rows) < len(base.cells)


class TestNettingPools:
    """run_scenario nets through the netting order and run total that
    PreparedInputs keeps; they give what sorting the report's cells afresh
    gives."""

    SHARING = (0.0, 0.06, 0.12)
    # A pool as a share of its cells' total: none, part of it (the greedy
    # stops inside the list), or all of it with room to spare.
    SHARE = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=0.99),
                      st.just(2.0))

    @pytest.fixture(scope="class")
    def inputs(self, dataset):
        data = dataclasses.replace(dataset)
        options = [RunOptions(sharing_fraction=s) for s in self.SHARING]
        return data, [(o, prepare_inputs(data, o)) for o in options]

    @given(fixed=SHARE, wireless=SHARE)
    @settings(deadline=None)
    def test_memoised_pools_net_as_a_fresh_sort(self, inputs, fixed, wireless):
        data, runs = inputs
        for options, prepared in runs:
            for scenario in SCENARIO_PRESETS.values():
                cells = run_scenario(data, scenario, options, operator=None,
                                     prepared=prepared).cells
                op = OperatorInvestment(
                    fixed_per_year_eur=fixed * sum(c.investment_eur for c in cells
                                                   if not c.action.wireless)
                    / gap.FIXED_EFFECTIVE_FRACTION,
                    wireless_per_year_eur=wireless * sum(c.investment_eur for c in cells
                                                         if c.action.wireless),
                    horizon_years=1)
                report = run_scenario(data, scenario, options, operator=op, prepared=prepared)
                got = report.operator
                assert (got.fixed_used_eur, got.wireless_used_eur,
                        got.residual_by_country_eur) == sweep_oracle(report, op)
                fresh = subtract_operator_investment(dataclasses.replace(report, operator=None),
                                                     op)
                assert fresh.operator == got


def sweep_oracle(report, operator):
    """Re-derive the operator consumption with an explicit sort and sweep."""
    from gigagap.gap import _ACTION_ORDER, _TARGET_ORDER

    def consume(cells, pool):
        order = sorted(cells, key=lambda c: (c.unit_cost_eur, c.region, c.geotype.order,
                                             _TARGET_ORDER[c.target], _ACTION_ORDER[c.action]))
        left = pool
        by_region = {}
        for cell in order:
            if left <= 0:
                break
            take = min(cell.quantity * cell.unit_cost_eur, left)
            by_region[cell.region] = by_region.get(cell.region, 0.0) + take
            left -= take
        return pool - left, by_region

    fixed_used, fixed_by = consume([c for c in report.cells if not c.action.wireless],
                                   operator.fixed_pool_eur)
    wl_used, wl_by = consume([c for c in report.cells if c.action.wireless],
                             operator.wireless_pool_eur)
    by_country = {}
    for by in (fixed_by, wl_by):
        for rid, amount in by.items():
            code = report.regions[rid].country
            by_country[code] = by_country.get(code, 0.0) + amount
    residual = {}
    for code in sorted(report.country_totals):
        r = report.country_totals[code] - by_country.get(code, 0.0)
        residual[code] = max(0.0, r)
    return fixed_used, wl_used, residual


class TestOperator:
    def test_default_pools_exact(self):
        op = OperatorInvestment()
        assert op.fixed_pool_eur == 41.6e9
        assert op.wireless_pool_eur == 132e9

    def test_greedy_equals_sweep_oracle_with_partial_pools(self, baseline_report):
        op = OperatorInvestment(fixed_per_year_eur=0.5e9, wireless_per_year_eur=0.3e9)
        got = subtract_operator_investment(baseline_report, op).operator
        fixed_used, wl_used, residual = sweep_oracle(baseline_report, op)
        assert got.fixed_used_eur == fixed_used
        assert got.wireless_used_eur == wl_used
        assert got.residual_by_country_eur == residual
        assert got.residual_gap_eur == pytest.approx(
            sum(c.investment_eur for c in baseline_report.cells) - fixed_used - wl_used)

    def test_greedy_equals_sweep_oracle_with_default_pools(self, baseline_report):
        op = OperatorInvestment()
        got = subtract_operator_investment(baseline_report, op).operator
        fixed_used, wl_used, residual = sweep_oracle(baseline_report, op)
        assert got.fixed_used_eur == fixed_used
        assert got.wireless_used_eur == wl_used
        assert got.residual_by_country_eur == residual

    def test_pools_never_cross_technology_boundary(self, baseline_report):
        # a fixed-only pool leaves every wireless cell unpaid
        op = OperatorInvestment(fixed_per_year_eur=1e12, wireless_per_year_eur=0.0)
        got = subtract_operator_investment(baseline_report, op).operator
        wireless_total = sum(c.investment_eur for c in baseline_report.cells
                             if c.action.wireless)
        assert got.wireless_used_eur == 0.0
        assert got.residual_gap_eur == pytest.approx(wireless_total, rel=1e-9)

    def test_residuals_clamped_nonnegative(self, baseline_report):
        op = OperatorInvestment(fixed_per_year_eur=1e12, wireless_per_year_eur=1e12)
        got = subtract_operator_investment(baseline_report, op).operator
        assert all(v >= 0.0 for v in got.residual_by_country_eur.values())
        # consumption re-sums cell by cell, so full coverage leaves at
        # most float dust behind
        assert got.residual_gap_eur == pytest.approx(0.0, abs=0.01)


def region_summary(rid, pop, to_cover, total=100.0, country="XX", cohesion=True):
    return RegionSummary(region=rid, country=country, population=pop,
                         households=total * 0.6, premises_total=total,
                         premises_to_cover=to_cover, cohesion=cohesion)


def synthetic_report(regions, vintage=2019, totals=None, country_totals=None,
                     scenario=None, name="baseline"):
    return GapReport(scenario=scenario, scenario_name=name, vintage=vintage,
                     cells=[], totals=totals or {}, country_totals=country_totals or {},
                     geotype_totals={}, regions=regions)


class TestHistogram:
    def test_bucket_assignment_and_fifty_percent_split(self):
        regions = {
            "A": region_summary("A", pop=1000.0, to_cover=5.0),    # share 0.05
            "B": region_summary("B", pop=2000.0, to_cover=50.0),   # share 0.50
            "C": region_summary("C", pop=3000.0, to_cover=55.0),   # share 0.55
            "D": region_summary("D", pop=4000.0, to_cover=100.0),  # share 1.00
        }
        h = histogram_gap_shares(synthetic_report(regions))
        assert h.buckets[0].region_count == 1
        assert h.buckets[5].region_count == 2
        assert h.buckets[9].region_count == 1
        assert h.le50_regions == 2
        assert h.gt50_regions == 2
        assert h.le50_population_share == pytest.approx(0.3)
        assert h.gt50_population_share == pytest.approx(0.7)

    def test_population_shares_sum_to_one(self, baseline_report):
        h = histogram_gap_shares(baseline_report)
        assert sum(b.population_share for b in h.buckets) == pytest.approx(1.0)
        assert h.le50_population_share + h.gt50_population_share == pytest.approx(1.0)


class TestBreakdowns:
    def test_geotype_rows_resum_to_total(self, baseline_report):
        rows = breakdown(baseline_report, "geotype")
        assert [r["category"] for r in rows] == [g.value for g in Geotype]
        total = sum(c.investment_eur for c in baseline_report.cells)
        assert sum(r["investment_eur"] for r in rows) == pytest.approx(total, rel=1e-9)
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)
        for r in rows:
            if r["premises_gap"] > 0:
                assert r["eur_per_premise"] > 0

    def test_country_rows_match_country_totals(self, baseline_report):
        rows = breakdown(baseline_report, "country")
        for row in rows:
            assert row["investment_eur"] == pytest.approx(
                baseline_report.country_totals[row["category"]], rel=1e-9)

    def test_urban_rural_split(self, baseline_report):
        rows = breakdown(baseline_report, "urban_rural")
        assert {r["category"] for r in rows} == {"urban", "rural"}
        urban_from_geotypes = sum(
            baseline_report.geotype_totals[g] for g in (Geotype.URBAN, Geotype.SUBURBAN))
        urban_row = next(r for r in rows if r["category"] == "urban")
        assert urban_row["investment_eur"] == pytest.approx(urban_from_geotypes, rel=1e-9)

    def test_cohesion_split(self, baseline_report):
        rows = breakdown(baseline_report, "cohesion")
        assert {r["category"] for r in rows} <= {"cohesion", "non_cohesion"}
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)

    def test_cohesion_missing_flag_rejected(self, baseline_report):
        regions = dict(baseline_report.regions)
        some = next(iter(regions))
        regions[some] = dataclasses.replace(regions[some], cohesion=None)
        broken = dataclasses.replace(baseline_report, regions=regions)
        with pytest.raises(DataError, match="cohesion"):
            breakdown(broken, "cohesion")

    def test_households_view_is_ordered(self, baseline_report):
        rows = breakdown(baseline_report, "households_vs_premises")
        assert [r["category"] for r in rows] == ["households", "premises",
                                                 "premises_and_companies"]
        hh, prem, everything = (r["investment_eur"] for r in rows)
        assert hh <= prem + 1e-9
        assert prem <= everything + 1e-9
        assert rows[2]["share"] == 1.0

    def test_unknown_dimension_rejected(self, baseline_report):
        with pytest.raises(DataError):
            breakdown(baseline_report, "constellation")


class TestEvolution:
    def test_two_point_fit_slope_crossing_and_extrapolation(self):
        older = synthetic_report({}, vintage=2017,
                                 totals={"egs_premises_companies": 341.8e9})
        newer = synthetic_report({}, vintage=2019,
                                 totals={"egs_premises_companies": 294.9e9})
        ev = compare_vintages(newer, older)  # order must not matter
        assert ev.slope_eur_per_year == pytest.approx(-23.45e9, abs=1e7)
        assert ev.zero_crossing_year == 2032
        assert ev.total_delta_eur == pytest.approx(-46.9e9, rel=1e-12)
        assert ev.extrapolated_2025_eur == pytest.approx(154.2e9, rel=1e-9)
        assert ev.points == [(2017, pytest.approx(341.8e9)),
                             (2019, pytest.approx(294.9e9))]

    def test_target_deltas_over_shared_keys(self):
        older = synthetic_report({}, vintage=2017, totals={"t1": 5e9, "t4": 100e9})
        newer = synthetic_report({}, vintage=2019, totals={"t1": 4e9, "t3": 1e9})
        ev = compare_vintages(older, newer)
        assert ev.target_deltas_eur == {"t1": -1e9}

    def test_growing_gap_has_no_crossing(self):
        older = synthetic_report({}, vintage=2017,
                                 totals={"egs_premises_companies": 100e9})
        newer = synthetic_report({}, vintage=2019,
                                 totals={"egs_premises_companies": 120e9})
        ev = compare_vintages(older, newer)
        assert ev.zero_crossing_year is None
        assert ev.slope_eur_per_year > 0

    def test_countries_grown(self):
        older = synthetic_report({}, vintage=2017, totals={"t1": 1.0},
                                 country_totals={"FR": 10e9, "DE": 20e9})
        newer = synthetic_report({}, vintage=2019, totals={"t1": 1.0},
                                 country_totals={"FR": 12e9, "DE": 15e9})
        ev = compare_vintages(older, newer)
        assert ev.countries_grown == {"FR": pytest.approx(2e9)}

    def test_same_vintage_rejected(self):
        a = synthetic_report({}, vintage=2019, totals={"t1": 1.0})
        with pytest.raises(DataError, match="vintage"):
            compare_vintages(a, a)

    def test_different_scenarios_rejected(self):
        a = synthetic_report({}, vintage=2017, totals={"t1": 1.0},
                             scenario=SCENARIO_PRESETS["baseline"])
        b = synthetic_report({}, vintage=2019, totals={"t1": 1.0},
                             scenario=SCENARIO_PRESETS["max"])
        with pytest.raises(DataError, match="scenario"):
            compare_vintages(a, b)
