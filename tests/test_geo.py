import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gigagap import dataio
from gigagap.errors import DataError
from gigagap.gap import prepare_inputs
from gigagap.geo import (
    GEOTYPES_DENSEST_FIRST,
    SIZE_CLASSES,
    Country,
    Degurba,
    FixedTechChoice,
    Geotype,
    Locality,
    Region,
    allocate_enterprises,
    build_frame,
    classify_locality,
    decompose_region,
    distribute_premises,
)


def loc(i, region="R1", pop=1000.0, area=10.0, degurba=Degurba.RURAL):
    return Locality(id=f"L{i}", region=region, population=pop, area_km2=area,
                    degurba=degurba)


def region(id="R1", country="XX", pop=10000.0, area=100.0, households=4000.0):
    return Region(id=id, country=country, population=pop, area_km2=area,
                  households=households)


class TestClassify:
    def test_degurba_urban_wins_over_density(self):
        assert classify_locality(loc(1, pop=10.0, area=100.0, degurba=Degurba.URBAN)) is Geotype.URBAN

    def test_degurba_suburban(self):
        assert classify_locality(loc(1, degurba=Degurba.SUBURBAN)) is Geotype.SUBURBAN

    @pytest.mark.parametrize("pop,area,expected", [
        (10_000, 100.0, Geotype.SEMI_RURAL),   # density 100, at threshold
        (9_999, 100.0, Geotype.RURAL),         # just below 100
        (1_000, 100.0, Geotype.RURAL),         # density 10, at threshold
        (999, 100.0, Geotype.EXTREMELY_RURAL), # just below 10
        (1, 100.0, Geotype.EXTREMELY_RURAL),
    ])
    def test_rural_density_splits(self, pop, area, expected):
        assert classify_locality(loc(1, pop=pop, area=area)) is expected

    @given(st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
           st.floats(min_value=0.01, max_value=1e5, allow_nan=False))
    def test_rural_class_monotone_in_density(self, pop, area):
        g = classify_locality(loc(1, pop=pop, area=area))
        denser = classify_locality(loc(2, pop=pop * 2, area=area))
        assert denser.order <= g.order

    def test_geotype_order_matches_densest_first(self):
        assert [g.order for g in GEOTYPES_DENSEST_FIRST] == [0, 1, 2, 3, 4]

    def test_negative_population_rejected(self):
        with pytest.raises(DataError):
            loc(1, pop=-5.0)

    def test_zero_area_rejected(self):
        with pytest.raises(DataError):
            loc(1, area=0.0)


class TestDecompose:
    def test_shares_sum_to_one(self):
        r = region(pop=3000.0, area=30.0)
        locs = [loc(1, pop=1000.0, area=1.0, degurba=Degurba.URBAN),
                loc(2, pop=1000.0, area=9.0, degurba=Degurba.SUBURBAN),
                loc(3, pop=1000.0, area=20.0, degurba=Degurba.RURAL)]
        p = decompose_region(r, locs)
        assert sum(p.population_share.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(p.area_share.values()) == pytest.approx(1.0, abs=1e-12)

    def test_premises_share_tracks_population_share(self):
        r = region(pop=3000.0, area=30.0)
        locs = [loc(1, pop=2500.0, area=5.0, degurba=Degurba.URBAN),
                loc(2, pop=500.0, area=25.0, degurba=Degurba.RURAL)]
        p = decompose_region(r, locs)
        assert p.premises_share == p.population_share

    def test_large_population_mismatch_rejected(self):
        r = region(pop=10000.0, area=100.0)
        locs = [loc(1, pop=7000.0, area=100.0)]
        with pytest.raises(DataError):
            decompose_region(r, locs)

    def test_small_mismatch_tolerated(self):
        r = region(pop=10000.0, area=100.0)
        locs = [loc(1, pop=10150.0, area=100.0)]
        p = decompose_region(r, locs)
        assert sum(p.population_share.values()) == pytest.approx(1.0)

    def test_zero_population_region_keeps_zero_shares(self):
        r = region(pop=0.0, area=100.0, households=0.0)
        locs = [loc(1, pop=0.0, area=100.0)]
        p = decompose_region(r, locs)
        assert all(v == 0.0 for v in p.population_share.values())
        assert sum(p.area_share.values()) == pytest.approx(1.0)


class TestPremises:
    def test_distribution_conserves_households(self):
        r = region(pop=3000.0, area=30.0, households=1200.0)
        r.enterprise_counts = {sc: 0.0 for sc in SIZE_CLASSES}
        locs = [loc(1, pop=1000.0, area=1.0, degurba=Degurba.URBAN),
                loc(2, pop=2000.0, area=29.0, degurba=Degurba.RURAL)]
        prem = distribute_premises(r, decompose_region(r, locs))
        assert sum(p.households for p in prem.values()) == pytest.approx(1200.0, rel=1e-12)

    def test_distribution_conserves_enterprise_locations(self):
        r = region(pop=3000.0, area=30.0, households=1200.0)
        r.enterprise_counts = {"0-9": 90.0, "10-19": 6.0, "20-49": 3.0,
                               "50-249": 0.9, "250+": 0.1}
        locs = [loc(1, pop=1800.0, area=2.0, degurba=Degurba.URBAN),
                loc(2, pop=1200.0, area=28.0, degurba=Degurba.RURAL)]
        prem = distribute_premises(r, decompose_region(r, locs))
        assert sum(p.enterprise_locations for p in prem.values()) == pytest.approx(100.0, rel=1e-12)


def make_country(code="XX", capital="R1", docsis=None, fttp=None):
    from gigagap.costs import PreparednessFactor
    return Country(code=code, labour_index=1.0,
                   preparedness=PreparednessFactor(code, 0.0, 0.0, 0.0),
                   dominant_fixed_tech=FixedTechChoice.FTTH,
                   road_km=100.0, rail_km=50.0, capital_region=capital,
                   docsis_band=docsis, fttp_band=fttp)


class TestEnterprises:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                    min_size=2, max_size=6))
    @settings(max_examples=50)
    def test_allocation_conserves_country_totals(self, pops):
        country = {"XX": make_country()}
        regions = {f"R{i}": region(id=f"R{i}", pop=p, area=10.0, households=p * 0.4)
                   for i, p in enumerate(pops)}
        counts = {("XX", sc): 1000.0 * (i + 1) for i, sc in enumerate(SIZE_CLASSES)}
        allocate_enterprises(country, regions, counts)
        if sum(pops) > 0:
            for i, sc in enumerate(SIZE_CLASSES):
                allocated = sum(r.enterprise_counts[sc] for r in regions.values())
                assert allocated == pytest.approx(1000.0 * (i + 1), rel=1e-9)

    def test_zero_population_country_allocates_nothing(self):
        country = {"XX": make_country()}
        regions = {"R1": region(pop=0.0, households=0.0)}
        allocate_enterprises(country, regions, {("XX", "0-9"): 500.0})
        assert regions["R1"].enterprise_counts["0-9"] == 0.0


class TestCableDominance:
    @pytest.mark.parametrize("docsis,fttp,expected", [
        (">50", "<10", True),
        ("25-50", "<10", True),
        ("<10", ">50", False),
        ("25-50", "25-50", False),
        (None, "<10", False),
        (">50", None, False),
    ])
    def test_band_comparison(self, docsis, fttp, expected):
        assert make_country(docsis=docsis, fttp=fttp).cable_dominant is expected

    def test_unknown_band_rejected(self):
        with pytest.raises(DataError):
            make_country(docsis="55-60", fttp="<10")


class TestBuildFrame:
    def test_prepare_inputs_leaves_dataset_as_loaded(self, fixture_dir):
        dataset = dataio.load_dataset(fixture_dir)
        loaded = {rid: dict(reg.enterprise_counts) for rid, reg in dataset.regions.items()}
        first = prepare_inputs(dataset)
        assert {rid: reg.enterprise_counts
                for rid, reg in dataset.regions.items()} == loaded
        assert prepare_inputs(dataset).frame == first.frame

    def test_fixture_frame_cell_enterprises_resum_to_country(self, dataset):
        frame = build_frame(dataset)
        for (code, sc), count in dataset.enterprises.items():
            cell_sum = sum(
                frame.enterprises[(rid, g, sc)]
                for rid in frame.country_regions(code) for g in Geotype
            )
            assert cell_sum == pytest.approx(count, rel=1e-9)

    def test_fixture_premises_resum_to_households_plus_locations(self, dataset):
        frame = build_frame(dataset)
        for rid, reg in frame.regions.items():
            total = frame.region_premises(rid)
            expected = reg.households + reg.enterprise_locations
            assert total == pytest.approx(expected, rel=1e-9)

    def test_equivalence_against_direct_sum(self, dataset):
        """Cell-level enterprise counts equal country count times the
        product of population shares, computed independently."""
        frame = build_frame(dataset)
        country_pop = {}
        for reg in dataset.regions.values():
            country_pop[reg.country] = country_pop.get(reg.country, 0.0) + reg.population
        keys = sorted(frame.enterprises, key=lambda k: (k[0], k[1].value, k[2]))
        random_cells = random.Random(7).sample(keys, 40)
        for (rid, g, sc) in random_cells:
            reg = dataset.regions[rid]
            pop_share = reg.population / country_pop[reg.country]
            expected = (dataset.enterprises[(reg.country, sc)] * pop_share
                        * frame.profiles[rid].premises_share[g])
            assert frame.enterprises[(rid, g, sc)] == pytest.approx(expected, rel=1e-12)
