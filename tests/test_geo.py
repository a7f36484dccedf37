import dataclasses
import random
import types

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
    LocalitySums,
    Region,
    allocate_enterprises,
    build_frame,
    classify,
    decompose_region,
    locality_sum_verdicts,
)


def locs(*rows):
    """LocalitySums of (population, area, degurba) rows, classified and added in order."""
    out = LocalitySums()
    for pop, area, degurba in rows:
        out.add(pop, area, classify(degurba, pop / area))
    return out


def load_localities(tmp_path, *rows):
    """Errors and sums of a localities.csv holding rows, all in region R1."""
    lines = ["id,region,population,area_km2,degurba", *(",".join(r) for r in rows)]
    (tmp_path / "localities.csv").write_text("\n".join(lines) + "\n")
    report = dataio.ValidationReport(dataset=str(tmp_path))
    sums = dataio._load_localities(tmp_path, report, {"R1"}, set())
    return [str(e) for e in report.errors], sums


def region(id="R1", country="XX", pop=10000.0, area=100.0, households=4000.0):
    return Region(id=id, country=country, population=pop, area_km2=area,
                  households=households)


class TestClassify:
    def test_degurba_urban_wins_over_density(self):
        assert classify(Degurba.URBAN, 10.0 / 100.0) is Geotype.URBAN

    def test_degurba_suburban(self):
        assert classify(Degurba.SUBURBAN, 1000.0 / 10.0) is Geotype.SUBURBAN

    @pytest.mark.parametrize("pop,area,expected", [
        (10_000, 100.0, Geotype.SEMI_RURAL),   # density 100, at threshold
        (9_999, 100.0, Geotype.RURAL),         # just below 100
        (1_000, 100.0, Geotype.RURAL),         # density 10, at threshold
        (999, 100.0, Geotype.EXTREMELY_RURAL), # just below 10
        (1, 100.0, Geotype.EXTREMELY_RURAL),
    ])
    def test_rural_density_splits(self, pop, area, expected):
        assert classify(Degurba.RURAL, pop / area) is expected

    @given(st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
           st.floats(min_value=0.01, max_value=1e5, allow_nan=False))
    def test_rural_class_monotone_in_density(self, pop, area):
        g = classify(Degurba.RURAL, pop / area)
        denser = classify(Degurba.RURAL, pop * 2 / area)
        assert denser.order <= g.order

    def test_geotype_order_matches_densest_first(self):
        assert [g.order for g in GEOTYPES_DENSEST_FIRST] == [0, 1, 2, 3, 4]

    def test_negative_population_rejected(self, tmp_path):
        errors, sums = load_localities(tmp_path, ["L1", "R1", "-5.0", "10", "rural"],
                                       ["L2", "R1", "1000", "10", "rural"])
        assert errors == ["ERROR localities.csv:2: locality L1: negative population -5.0"]
        assert sums["R1"].count == 1

    def test_zero_area_rejected(self, tmp_path):
        errors, sums = load_localities(tmp_path, ["L1", "R1", "1000", "0", "rural"])
        assert errors == ["ERROR localities.csv:2: locality L1: area must be positive, got 0.0"]
        assert sums == {}


class TestDecompose:
    def test_shares_sum_to_one(self):
        r = region(pop=3000.0, area=30.0)
        sums = locs((1000.0, 1.0, Degurba.URBAN),
                    (1000.0, 9.0, Degurba.SUBURBAN),
                    (1000.0, 20.0, Degurba.RURAL))
        p = decompose_region(r, sums)
        assert sum(p.population_share.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(p.area_share.values()) == pytest.approx(1.0, abs=1e-12)

    def test_large_population_mismatch_rejected(self):
        r = region(pop=10000.0, area=100.0)
        sums = locs((7000.0, 100.0, Degurba.RURAL))
        with pytest.raises(DataError):
            decompose_region(r, sums)

    def test_one_verdict_on_the_row_order_totals(self):
        # The per-geotype sums here hold half the population; the verdict,
        # and so decompose_region, reads the row-order totals only.
        r = region(pop=10000.0, area=100.0)
        sums = locs((10000.0, 100.0, Degurba.RURAL))
        sums.geotype_population[Geotype.SEMI_RURAL] = 5000.0
        assert list(locality_sum_verdicts(r, sums)) == []
        assert decompose_region(r, sums).population_share[Geotype.SEMI_RURAL] == 1.0
        off = locs((10100.0, 100.0, Degurba.RURAL), (1.0, 3.0, Degurba.RURAL))
        assert list(locality_sum_verdicts(r, off)) == [
            (False, "region R1: locality population off by 1.01%"),
            (True, "region R1: locality area sums to 103 "
                   "but the region total is 100 (3.0% off)"),
        ]
        with pytest.raises(DataError, match=r"^region R1: locality area sums to 103 but"):
            decompose_region(r, off)

    def test_small_mismatch_tolerated(self):
        r = region(pop=10000.0, area=100.0)
        sums = locs((10150.0, 100.0, Degurba.RURAL))
        p = decompose_region(r, sums)
        assert sum(p.population_share.values()) == pytest.approx(1.0)

    def test_zero_population_region_keeps_zero_shares(self):
        r = region(pop=0.0, area=100.0, households=0.0)
        sums = locs((0.0, 100.0, Degurba.RURAL))
        p = decompose_region(r, sums)
        assert all(v == 0.0 for v in p.population_share.values())
        assert sum(p.area_share.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("sums", [None, LocalitySums()], ids=["absent", "empty"])
    def test_region_without_localities_rejected(self, sums):
        with pytest.raises(DataError, match="region R1: no localities to decompose"):
            decompose_region(region(), sums)


def one_region_frame(r, sums, enterprises=None):
    """build_frame of a dataset whose country XX has the one region r, with
    locality sums and {size class: count} enterprise totals."""
    return build_frame(types.SimpleNamespace(
        countries={"XX": make_country()}, regions={r.id: r}, localities={r.id: sums},
        enterprises={("XX", sc): n for sc, n in (enterprises or {}).items()}))


class TestPremises:
    def test_distribution_conserves_households(self):
        r = region(pop=3000.0, area=30.0, households=1200.0)
        sums = locs((1000.0, 1.0, Degurba.URBAN),
                    (2000.0, 29.0, Degurba.RURAL))
        frame = one_region_frame(r, sums)
        assert frame.region_premises("R1") == pytest.approx(1200.0, rel=1e-12)

    def test_distribution_conserves_enterprise_locations(self):
        r = region(pop=3000.0, area=30.0, households=0.0)
        sums = locs((1800.0, 2.0, Degurba.URBAN),
                    (1200.0, 28.0, Degurba.RURAL))
        frame = one_region_frame(r, sums, {"0-9": 90.0, "10-19": 6.0, "20-49": 3.0,
                                           "50-249": 0.9, "250+": 0.1})
        assert frame.region_premises("R1") == pytest.approx(100.0, rel=1e-12)


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
        allocated = allocate_enterprises(country, regions, counts)
        if sum(pops) > 0:
            for i, sc in enumerate(SIZE_CLASSES):
                total = sum(allocated[r][sc] for r in regions)
                assert total == pytest.approx(1000.0 * (i + 1), rel=1e-9)

    def test_zero_population_country_allocates_nothing(self):
        country = {"XX": make_country()}
        regions = {"R1": region(pop=0.0, households=0.0)}
        allocated = allocate_enterprises(country, regions, {("XX", "0-9"): 500.0})
        assert allocated["R1"]["0-9"] == 0.0


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


def cell_enterprises(frame) -> dict:
    """{(region, geotype, size class): count}: a region's count of a class
    times the geotype's population share, for every cell."""
    return {(rid, g, sc): counts[sc] * share
            for rid, counts in frame.enterprise_counts.items()
            for g, share in frame.profiles[rid].population_share.items()
            for sc in SIZE_CLASSES}


class TestBuildFrame:
    def test_prepare_inputs_leaves_dataset_as_loaded(self, fixture_dir):
        dataset = dataio.load_dataset(fixture_dir)
        loaded = {rid: dataclasses.astuple(reg) for rid, reg in dataset.regions.items()}
        first = prepare_inputs(dataset)
        assert {rid: dataclasses.astuple(reg)
                for rid, reg in dataset.regions.items()} == loaded
        again = prepare_inputs(dataclasses.replace(dataset))
        assert again.frame is not first.frame
        assert again.frame == first.frame

    def test_frame_shares_the_datasets_frozen_regions(self, dataset):
        frame = build_frame(dataset)
        assert frame.regions is dataset.regions
        with pytest.raises(dataclasses.FrozenInstanceError):
            frame.regions["FR101"].households = 0.0

    def test_fixture_frame_cell_enterprises_resum_to_country(self, dataset):
        frame = build_frame(dataset)
        cells = cell_enterprises(frame)
        for (code, sc), count in dataset.enterprises.items():
            cell_sum = sum(
                cells[(rid, g, sc)]
                for rid in frame.country_regions[code] for g in Geotype
            )
            assert cell_sum == pytest.approx(count, rel=1e-9)

    def test_fixture_premises_resum_to_households_plus_locations(self, dataset):
        frame = build_frame(dataset)
        for rid, reg in frame.regions.items():
            total = frame.region_premises(rid)
            expected = reg.households + sum(frame.enterprise_counts[rid].values())
            assert total == pytest.approx(expected, rel=1e-9)

    def test_equivalence_against_direct_sum(self, dataset):
        """Cell-level enterprise counts equal country count times the
        product of population shares, computed independently."""
        frame = build_frame(dataset)
        cells = cell_enterprises(frame)
        country_pop = {}
        for reg in dataset.regions.values():
            country_pop[reg.country] = country_pop.get(reg.country, 0.0) + reg.population
        keys = sorted(cells, key=lambda k: (k[0], k[1].value, k[2]))
        random_cells = random.Random(7).sample(keys, 40)
        for (rid, g, sc) in random_cells:
            reg = dataset.regions[rid]
            pop_share = reg.population / country_pop[reg.country]
            expected = (dataset.enterprises[(reg.country, sc)] * pop_share
                        * frame.profiles[rid].population_share[g])
            assert cells[(rid, g, sc)] == pytest.approx(expected, rel=1e-12)
