import dataclasses

import pytest

from gigagap.costs import CostAction, CostTable
from gigagap.coverage import CapabilityTier, CoverageState, TechClass, effective_footprint
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
    dedup_t3_over_t4,
    footprint_partition,
    gap_for_item,
    histogram_gap_shares,
    run_scenario,
    subtract_operator_investment,
)
from gigagap.gap import RegionSummary, _sorted_cells
from gigagap.geo import Geotype
from gigagap.targets import (
    SCENARIO_PRESETS,
    DemandItem,
    Target,
    Unit,
)

import oracle

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

    def test_km_item_priced_flat(self, prepared):
        item = DemandItem(Target.T2_TRANSPORT, "FR102", Geotype.RURAL, Unit.KM_ROAD,
                          100.0, CostAction.FIVE_G_ROAD_NOMINAL_KM)
        cells = gap_for_item(item, prepared.state, prepared.table, prepared.frame,
                             BASELINE)
        assert len(cells) == 1
        assert cells[0].quantity == 100.0
        assert cells[0].unit_cost_eur == prepared.table.unit_cost(
            CostAction.FIVE_G_ROAD_NOMINAL_KM, None, "FR")

    def test_km_item_already_covered_fraction(self, prepared):
        item = DemandItem(Target.T2_TRANSPORT, "FR102", Geotype.RURAL, Unit.KM_ROAD,
                          100.0, CostAction.FIVE_G_ROAD_NOMINAL_KM)
        opts = RunOptions(already_covered_road_fraction=0.25)
        cells = gap_for_item(item, prepared.state, prepared.table, prepared.frame,
                             BASELINE, opts)
        assert cells[0].quantity == pytest.approx(75.0)
        opts_full = RunOptions(already_covered_road_fraction=1.0)
        assert gap_for_item(item, prepared.state, prepared.table, prepared.frame,
                            BASELINE, opts_full) == []

    def test_km_item_bad_fraction_rejected(self, prepared):
        item = DemandItem(Target.T2_TRANSPORT, "FR102", Geotype.RURAL, Unit.KM_ROAD,
                          100.0, CostAction.FIVE_G_ROAD_NOMINAL_KM)
        with pytest.raises(DataError, match="fraction"):
            gap_for_item(item, prepared.state, prepared.table, prepared.frame,
                         BASELINE, RunOptions(already_covered_road_fraction=1.5))


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

    def test_thread_count_does_not_change_results(self, dataset):
        rep1 = run_scenario(dataset, BASELINE, RunOptions(threads=1))
        rep8 = run_scenario(dataset, BASELINE, RunOptions(threads=8))
        assert rep1.totals == rep8.totals
        assert len(rep1.cells) == len(rep8.cells)
        for a, b in zip(rep1.cells, rep8.cells):
            assert (a.target, a.region, a.geotype, a.action, a.quantity,
                    a.unit_cost_eur) == (b.target, b.region, b.geotype, b.action,
                                         b.quantity, b.unit_cost_eur)

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
                frame.premises[(rid, g)].total
                * (1.0 - effective_footprint(state, rid, g, CapabilityTier.GBPS_1))
                for g in Geotype)
            assert summary.premises_to_cover == pytest.approx(expected, rel=1e-12)
            assert summary.premises_total == pytest.approx(frame.region_premises(rid),
                                                           rel=1e-12)

    def test_cells_sorted_once_and_totals_summed_in_order(self, dataset, prepared,
                                                          baseline_report):
        standalone = run_scenario(dataset, BASELINE, prepared=prepared,
                                  only_targets=set(Target))
        for report in (baseline_report, standalone):
            assert report.cells == _sorted_cells(report.cells)

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
        fresh = run_scenario(dataset, BASELINE)
        assert baseline_report.regions == fresh.regions
        bare = PreparedInputs(frame=prepared.frame, state=prepared.state,
                              table=prepared.table)
        assert run_scenario(dataset, BASELINE, prepared=bare).regions == fresh.regions


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
