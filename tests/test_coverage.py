import dataclasses
import math
import random
import time

import pytest
from datagen import random_dataset
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gigagap import gap
from gigagap.coverage import (
    PUBLISHED_BANDS,
    RECONCILE_TOLERANCE,
    CoverageInterval,
    CoverageState,
    NationalFigure,
    TechClass,
    build_state,
    disaggregate_regions,
    spread_over_geotypes,
)
from gigagap.errors import DataError, GigagapError, InfeasibleCoverageError
from gigagap.geo import Geotype, build_frame


def iv(region, low, high):
    return CoverageInterval(region=region, technology=TechClass.FTTH_100M,
                            low=low, high=high, vintage=2019)


def random_instance(rng, n_regions=None):
    """Random feasible disaggregation instance with the national figure
    drawn from the interior of the weighted band hull."""
    n = n_regions or rng.randint(2, 50)
    intervals, densities, weights = {}, {}, {}
    hull_lo = hull_hi = total_w = 0.0
    for i in range(n):
        r = f"R{i}"
        low, high = rng.choice(PUBLISHED_BANDS[:-1])
        intervals[r] = iv(r, low, high)
        densities[r] = 10 ** rng.uniform(0.5, 3.5)
        weights[r] = rng.uniform(100.0, 1e6)
        hull_lo += weights[r] * low
        hull_hi += weights[r] * high
        total_w += weights[r]
    hull_lo /= total_w
    hull_hi /= total_w
    national = hull_lo + rng.uniform(0.02, 0.98) * (hull_hi - hull_lo)
    return intervals, densities, weights, national


def grid_search_k(intervals, densities, weights, national):
    """Independent estimate of the reconciliation scalar by repeated
    grid scans (no bisection): each round brackets the leftmost grid
    point where the clamped weighted mean reaches the national figure.
    The mean is flat wherever every region is clamped, so bracketing
    the crossing is what keeps refinement honest on plateaus."""
    regions = sorted(intervals)
    total_w = sum(weights[r] for r in regions)

    def mean(k):
        acc = 0.0
        for r in regions:
            band = intervals[r]
            acc += weights[r] * min(band.high, max(band.low, k * densities[r]))
        return acc / total_w

    lo, hi = 0.0, 2.0 / min(d for d in densities.values() if d > 0)
    while mean(hi * 2) > mean(hi) + 1e-15:
        hi *= 2
    for _ in range(6):
        step = (hi - lo) / 200
        ks = [lo + step * j for j in range(201)]
        idx = next((j for j, k in enumerate(ks) if mean(k) >= national), 200)
        lo, hi = ks[max(0, idx - 1)], ks[idx]
    return hi


class TestDisaggregation:
    def test_unclamped_two_region_case_matches_closed_form(self):
        # wide bands, no clamping: point = k * density with
        # k = national * (w1 + w2) / (w1 d1 + w2 d2)
        intervals = {"A": iv("A", 0.0, 1.0), "B": iv("B", 0.0, 1.0)}
        densities = {"A": 50.0, "B": 200.0}
        weights = {"A": 1000.0, "B": 3000.0}
        national = 0.4
        k = national * 4000.0 / (1000.0 * 50.0 + 3000.0 * 200.0)
        got = disaggregate_regions(intervals, national, densities, weights)
        assert got["A"] == pytest.approx(k * 50.0, abs=1e-6)
        assert got["B"] == pytest.approx(k * 200.0, abs=1e-6)

    def test_clamped_region_sits_at_band_edge(self):
        intervals = {"A": iv("A", 0.0, 0.35), "B": iv("B", 0.35, 0.65)}
        densities = {"A": 1000.0, "B": 10.0}
        weights = {"A": 500.0, "B": 500.0}
        got = disaggregate_regions(intervals, 0.4, densities, weights)
        # dense region saturates its band; sparse one reconciles the rest
        assert got["A"] == pytest.approx(0.35, abs=1e-6)
        assert got["B"] == pytest.approx(0.45, abs=1e-6)

    def test_infeasible_raises_with_feasible_range(self):
        intervals = {"A": iv("A", 0.0, 0.35), "B": iv("B", 0.0, 0.35)}
        with pytest.raises(InfeasibleCoverageError) as err:
            disaggregate_regions(intervals, 0.9, {"A": 10.0, "B": 20.0},
                                 {"A": 100.0, "B": 100.0})
        assert err.value.feasible_high <= 0.35 + 1e-9
        assert err.value.national == 0.9

    def test_zero_weight_rejected(self):
        with pytest.raises(DataError):
            disaggregate_regions({"A": iv("A", 0.0, 1.0)}, 0.5, {"A": 10.0}, {"A": 0.0})

    def test_500_random_instances_reconcile_and_match_grid_oracle(self):
        rng = random.Random(20190814)
        start = time.time()
        for _ in range(500):
            intervals, densities, weights, national = random_instance(rng)
            got = disaggregate_regions(intervals, national, densities, weights)
            total_w = sum(weights.values())
            mean = sum(weights[r] * got[r] for r in got) / total_w
            assert abs(mean - national) <= RECONCILE_TOLERANCE
            assert abs(mean - national) <= 1e-12  # the breakpoint solve is exact

            for r, v in got.items():
                band = intervals[r]
                assert band.low - 1e-12 <= v <= band.high + 1e-12

            # same-band regions: denser never less covered
            by_band = {}
            for r in got:
                by_band.setdefault((intervals[r].low, intervals[r].high), []).append(r)
            for members in by_band.values():
                members.sort(key=lambda r: densities[r])
                for a, b in zip(members, members[1:]):
                    assert got[b] >= got[a] - 1e-9

            k = grid_search_k(intervals, densities, weights, national)
            for r, v in got.items():
                band = intervals[r]
                oracle_v = min(band.high, max(band.low, k * densities[r]))
                assert v == pytest.approx(oracle_v, abs=1e-3)
        assert time.time() - start < 30.0


class TestExactSolve:
    """Cases the random instances never draw: degenerate bands, zero
    densities and weights, and national figures on the hull's edges."""

    # m(0) = (0.25 + 0 + 2 * 0.5) / 4 and m(inf) = (0.75 + 0.5 + 2 * 0.5) / 4,
    # both exact in binary; C has zero density and stays at its low edge.
    INTERVALS = {"A": iv("A", 0.25, 0.75), "B": iv("B", 0.0, 0.5), "C": iv("C", 0.5, 1.0)}
    DENSITIES = {"A": 10.0, "B": 40.0, "C": 0.0}
    WEIGHTS = {"A": 1.0, "B": 1.0, "C": 2.0}
    LOWS = {"A": 0.25, "B": 0.0, "C": 0.5}
    HIGHS = {"A": 0.75, "B": 0.5, "C": 0.5}

    def solve(self, national):
        return disaggregate_regions(self.INTERVALS, national, self.DENSITIES, self.WEIGHTS)

    def test_degenerate_full_band_is_fixed(self):
        intervals = {"A": iv("A", 1.0, 1.0), "B": iv("B", 0.0, 0.35)}
        got = disaggregate_regions(intervals, 0.6, {"A": 10.0, "B": 20.0},
                                   {"A": 100.0, "B": 100.0})
        assert got["A"] == 1.0
        assert got["B"] == pytest.approx(0.2, abs=1e-15)

    def test_all_degenerate_bands(self):
        intervals = {"A": iv("A", 1.0, 1.0), "B": iv("B", 1.0, 1.0)}
        got = disaggregate_regions(intervals, 1.0, {"A": 10.0, "B": 0.0},
                                   {"A": 100.0, "B": 50.0})
        assert got == {"A": 1.0, "B": 1.0}

    def test_zero_density_region_stays_at_low_edge(self):
        got = self.solve(0.5)
        # A + B must make up 4 * 0.5 - 2 * 0.5 = 1; B (four times as dense)
        # saturates at 0.5 before A leaves the interior of its band
        assert got["C"] == 0.5
        assert got["B"] == 0.5
        assert got["A"] == pytest.approx(0.5, abs=1e-15)

    def test_zero_density_caps_the_feasible_range(self):
        with pytest.raises(InfeasibleCoverageError) as err:
            self.solve(0.7)
        assert err.value.feasible_low == 0.3125
        assert err.value.feasible_high == 0.5625

    def test_national_at_m0_puts_every_region_at_its_low_edge(self):
        assert self.solve(0.3125) == self.LOWS

    def test_national_at_m_inf_puts_dense_regions_at_their_high_edge(self):
        assert self.solve(0.5625) == self.HIGHS

    def test_inside_tolerance_outside_hull_gives_band_edges(self):
        assert self.solve(0.3125 - 0.5 * RECONCILE_TOLERANCE) == self.LOWS
        assert self.solve(0.5625 + 0.5 * RECONCILE_TOLERANCE) == self.HIGHS
        with pytest.raises(InfeasibleCoverageError):
            self.solve(0.5625 + 2 * RECONCILE_TOLERANCE)

    def test_zero_weight_region_on_flat_stretch_takes_smallest_k(self):
        # 2 m(k) = clamp(k, 0, 0.4) + clamp(k / 10, 0.6, 1) is flat at 1 for
        # k in [0.4, 6]; the smallest k reaching national 0.5 is 0.4.
        intervals = {"A": iv("A", 0.0, 0.4), "B": iv("B", 0.6, 1.0), "Z": iv("Z", 0.0, 1.0)}
        got = disaggregate_regions(intervals, 0.5, {"A": 1.0, "B": 0.1, "Z": 1.0},
                                   {"A": 1.0, "B": 1.0, "Z": 0.0})
        assert got["A"] == 0.4
        assert got["B"] == 0.6
        assert got["Z"] == pytest.approx(0.4, abs=1e-15)

    def test_nan_weight_rejected(self):
        with pytest.raises(DataError):
            disaggregate_regions(self.INTERVALS, 0.5, self.DENSITIES,
                                 dict(self.WEIGHTS, A=float("nan")))


class TestWaterfall:
    SHARE = {Geotype.URBAN: 0.3, Geotype.SUBURBAN: 0.2, Geotype.SEMI_RURAL: 0.25,
             Geotype.RURAL: 0.15, Geotype.EXTREMELY_RURAL: 0.1}

    def test_densest_filled_first(self):
        out = spread_over_geotypes(0.5, self.SHARE)
        assert out[Geotype.URBAN] == 1.0
        assert out[Geotype.SUBURBAN] == 1.0
        assert out[Geotype.SEMI_RURAL] == pytest.approx(0.0)
        assert out[Geotype.RURAL] == 0.0
        assert out[Geotype.EXTREMELY_RURAL] == 0.0

    def test_partial_fill_in_middle_geotype(self):
        out = spread_over_geotypes(0.6, self.SHARE)
        assert out[Geotype.SEMI_RURAL] == pytest.approx(0.1 / 0.25)
        assert out[Geotype.RURAL] == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_mean_reproduces_region_figure(self, value):
        out = spread_over_geotypes(value, self.SHARE)
        mean = sum(out[g] * self.SHARE[g] for g in self.SHARE)
        assert mean == pytest.approx(value, abs=1e-9)

    def test_empty_geotype_inside_footprint_counts_covered(self):
        share = {Geotype.URBAN: 0.5, Geotype.SUBURBAN: 0.0, Geotype.SEMI_RURAL: 0.5,
                 Geotype.RURAL: 0.0, Geotype.EXTREMELY_RURAL: 0.0}
        out = spread_over_geotypes(0.75, share)
        assert out[Geotype.SUBURBAN] == 1.0  # sits between two covered slices
        assert out[Geotype.SEMI_RURAL] == pytest.approx(0.5)

    def test_empty_geotype_outside_footprint_is_uncovered(self):
        share = {Geotype.URBAN: 0.5, Geotype.SUBURBAN: 0.5, Geotype.SEMI_RURAL: 0.0,
                 Geotype.RURAL: 0.0, Geotype.EXTREMELY_RURAL: 0.0}
        out = spread_over_geotypes(0.25, share)
        assert out[Geotype.SEMI_RURAL] == 0.0
        assert out[Geotype.EXTREMELY_RURAL] == 0.0

    def test_zero_coverage_leaves_empty_geotypes_uncovered(self):
        out = spread_over_geotypes(0.0, {g: 0.2 for g in Geotype})
        assert all(v == 0.0 for v in out.values())

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            spread_over_geotypes(1.5, self.SHARE)


class TestEffectiveFootprint:
    def make_state(self, **cov):
        entries = {("R1", Geotype.EXTREMELY_RURAL, TechClass[t]): v
                   for t, v in cov.items()}
        return CoverageState(vintage=2019, entries=entries)

    def test_gigabit_tier_ignores_sub_gigabit_tech(self):
        state = self.make_state(FTTH_100M=0.9, DOCSIS_31=0.4, FTTH_1G=0.2)
        got = state.footprint_over("R1", Geotype.EXTREMELY_RURAL, gap._GIGABIT)
        assert got == 0.4


class TestBuildState:
    def test_fixture_state_has_every_cell(self, dataset, prepared):
        state = prepared.state
        for rid in dataset.regions:
            for g in Geotype:
                for tech in TechClass:
                    assert (rid, g, tech) in state.entries

    def test_missing_interval_region_rejected(self, dataset, prepared):
        import dataclasses
        slim = dataclasses.replace(
            dataset,
            coverage_intervals=[i for i in dataset.coverage_intervals
                                if i.region != "FR101"])
        with pytest.raises(DataError, match="missing regions"):
            build_state(slim, prepared.frame)

    def test_missing_national_figure_rejected(self, dataset, prepared):
        import dataclasses
        slim = dataclasses.replace(
            dataset,
            coverage_national=[n for n in dataset.coverage_national
                               if not (n.country == "CY" and n.technology is TechClass.LTE)])
        with pytest.raises(DataError, match="national"):
            build_state(slim, prepared.frame)

    def test_infeasible_error_names_country_and_technology(self, dataset, prepared):
        import dataclasses
        bumped = dataclasses.replace(
            dataset,
            coverage_national=[
                dataclasses.replace(n, coverage=0.999) if n.country == "CY"
                and n.technology is TechClass.FIVE_G else n
                for n in dataset.coverage_national])
        with pytest.raises(InfeasibleCoverageError) as err:
            build_state(bumped, prepared.frame)
        assert err.value.country == "CY"
        assert err.value.technology == "FIVE_G"

    def test_relaxed_intervals_admit_slightly_wider_national(self, dataset, prepared):
        import dataclasses
        # push CY 5G right above its band hull; a small relaxation saves it
        hull_high = 0.35  # all CY 5G bands are (0.0, 0.35) in the fixture
        bumped = dataclasses.replace(
            dataset,
            coverage_national=[
                dataclasses.replace(n, coverage=hull_high + 0.01) if n.country == "CY"
                and n.technology is TechClass.FIVE_G else n
                for n in dataset.coverage_national])
        with pytest.raises(InfeasibleCoverageError):
            build_state(bumped, prepared.frame)
        state = build_state(bumped, prepared.frame, relax_intervals=0.02)
        assert state.entries


class TestWeightedMeanOnFixture:
    def test_region_points_weighted_by_premises_match_national(self, dataset, prepared):
        """Recompute the reconciliation check from raw parts."""
        frame = prepared.frame
        # recover region-level points from the geotype spread
        for nf in dataset.coverage_national:
            regions = frame.country_regions[nf.country]
            acc = total_w = 0.0
            for rid in regions:
                share = frame.profiles[rid].population_share
                point = sum(prepared.state.entries.get((rid, g, nf.technology), 0.0) * share[g]
                            for g in Geotype)
                w = frame.region_premises(rid)
                acc += w * point
                total_w += w
            assert acc / total_w == pytest.approx(nf.coverage, abs=RECONCILE_TOLERANCE)


class TestTermination:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n_countries=st.integers(min_value=1, max_value=4),
           nationals=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=32),
           relax=st.floats(min_value=0.0, max_value=0.05))
    @settings(max_examples=60, deadline=2000,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))  # no shrinking
    def test_build_state_returns_or_raises_domain_error(self, seed, n_countries,
                                                        nationals, relax):
        """Any finite dataset ends: a state with coverages in [0, 1], or a
        GigagapError. Drawn national figures replace the feasible ones in
        order, so infeasible (country, technology) pairs come up too."""
        dataset = random_dataset(seed, n_countries)
        figures = [dataclasses.replace(nf, coverage=value)
                   for nf, value in zip(dataset.coverage_national, nationals)]
        dataset = dataclasses.replace(
            dataset, coverage_national=figures + dataset.coverage_national[len(figures):])
        try:
            state = build_state(dataset, build_frame(dataset), relax)
        except GigagapError:
            return
        assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in state.entries.values())
