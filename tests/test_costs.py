import csv
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gigagap import costs, dataio
from gigagap.costs import (
    GRANULARITY_WEIGHTS,
    CostAction,
    CostReference,
    Granularity,
    PreparednessFactor,
    adjust_labour,
    apply_preparedness,
    apply_sharing,
    build_cost_table,
    index_to_2019,
    merge_references,
    required_cells,
)
from gigagap.errors import CostTableError, DataError
from gigagap.geo import Country, Geotype


def published_preparedness() -> dict[str, tuple[PreparednessFactor, float]]:
    """{country: (factor, published combined sum)} from the bundled EU-28 table."""
    path = dataio.fixture_path().parent / "eu28" / "preparedness.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["country"]: (PreparednessFactor(row["country"], float(row["geographic"]),
                                                    float(row["housing"]),
                                                    float(row["regulation"])),
                                 float(row["combined"]))
                for row in csv.DictReader(fh)}


def ref(value, granularity=Granularity.EU, year=2019, action=CostAction.FTTH_NEW,
        geotype=Geotype.URBAN):
    return CostReference(action=action, geotype=geotype, granularity=granularity,
                         value_eur=value, price_year=year)


class TestIndexing:
    def test_multiplier_applied(self):
        assert index_to_2019(100.0, 2017, {2017: 1.05, 2019: 1.0}) == pytest.approx(105.0)

    def test_missing_year_rejected(self):
        with pytest.raises(DataError, match="price index"):
            index_to_2019(100.0, 2016, {2019: 1.0})


class TestMerge:
    def test_weighted_mean_by_granularity(self):
        # local 100 at weight 5, EU 700 at weight 1: (500 + 700) / 6
        refs = [ref(100.0, Granularity.LOCAL), ref(700.0, Granularity.EU)]
        assert merge_references(refs, {2019: 1.0}) == pytest.approx(200.0)

    def test_single_reference_passes_through(self):
        assert merge_references([ref(561.0)], {2019: 1.0}) == 561.0

    def test_indexing_happens_before_merge(self):
        refs = [ref(100.0, Granularity.LOCAL, year=2017)]
        assert merge_references(refs, {2017: 1.1}) == pytest.approx(110.0)

    def test_empty_reference_list_rejected(self):
        with pytest.raises(CostTableError):
            merge_references([], {2019: 1.0})

    def test_weights_cover_all_granularities(self):
        assert set(GRANULARITY_WEIGHTS) == set(Granularity)
        ordered = [GRANULARITY_WEIGHTS[g] for g in
                   (Granularity.LOCAL, Granularity.NUTS3, Granularity.NUTS2,
                    Granularity.COUNTRY, Granularity.EU)]
        assert ordered == sorted(ordered, reverse=True)


class TestLabour:
    def test_pinned_value(self):
        assert adjust_labour(1000.0, 1.5) == 1350.0

    def test_index_one_is_identity_for_random_costs(self):
        rng = random.Random(42)
        for _ in range(1000):
            c = rng.uniform(0.01, 1e7)
            assert adjust_labour(c, 1.0) == c

    @given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
           st.floats(min_value=0.1, max_value=3.0, allow_nan=False))
    def test_three_tenths_are_not_labour(self, cost, index):
        # only seven tenths of the cost scale with the labour index
        assert adjust_labour(cost, index) == pytest.approx(
            cost * 0.3 + cost * 0.7 * index, rel=1e-12)

    def test_nonpositive_cost_allowed_zero(self):
        assert adjust_labour(0.0, 2.0) == 0.0


class TestPreparedness:
    def test_combined_is_component_sum(self):
        f = PreparednessFactor("XX", 0.10, -0.10, 0.10)
        assert f.combined == pytest.approx(0.10)

    def test_decimal_component_sums_are_exact(self):
        # three identical tenths must combine without float drift
        f = PreparednessFactor("XX", -0.10, -0.10, -0.10)
        assert f.combined == -0.30

    def test_bundled_table_components_resum_exactly(self):
        rows = published_preparedness()
        assert len(rows) == 28
        for code, (factor, combined) in rows.items():
            assert factor.combined == combined, code

    def test_bundled_table_spot_values(self):
        by_country = {code: combined for code, (_, combined) in published_preparedness().items()}
        assert by_country["DE"] == -0.30
        assert by_country["BG"] == 0.20
        assert by_country["FR"] == 0.0

    def test_positive_factor_cheapens(self):
        f = PreparednessFactor("XX", 0.10, 0.10, 0.10)
        assert apply_preparedness(1000.0, f) == pytest.approx(700.0)

    def test_negative_factor_raises_cost(self):
        f = PreparednessFactor("XX", -0.10, -0.10, -0.10)
        assert apply_preparedness(1000.0, f) == pytest.approx(1300.0)

    def test_component_out_of_range_rejected(self):
        with pytest.raises(DataError):
            PreparednessFactor("XX", 0.2, 0.0, 0.0)


class TestSharing:
    def test_reduces_cost(self):
        assert apply_sharing(1000.0, 0.12) == pytest.approx(880.0)

    def test_zero_is_identity(self):
        assert apply_sharing(777.0, 0.0) == 777.0

    @pytest.mark.parametrize("f", [-0.01, 0.121, 1.5])
    def test_out_of_range_rejected(self, f):
        with pytest.raises(DataError):
            apply_sharing(1000.0, f)


def neutral_country(code="XX"):
    return Country(code=code, labour_index=1.0,
                   preparedness=PreparednessFactor(code, 0.0, 0.0, 0.0),
                   road_km=0.0, rail_km=0.0, capital_region="R1")


# The fixture's cost references are the bundled defaults, all priced in 2019.
class TestCostTable:
    def test_neutral_adjustments_reproduce_base(self, dataset):
        refs = dataset.cost_references
        table = build_cost_table(refs, {"XX": neutral_country()}, {2019: 1.0})
        for (action, geotype), base in table.base.items():
            assert table.adjusted[(action, geotype, "XX")] == base

    def test_full_chain_hand_computed(self, dataset):
        country = Country(code="YY", labour_index=1.2,
                          preparedness=PreparednessFactor("YY", -0.10, 0.0, 0.0),
                          road_km=0.0, rail_km=0.0, capital_region="R1")
        refs = dataset.cost_references
        table = build_cost_table(refs, {"YY": country}, {2019: 1.0},
                                 sharing_fraction=0.10)
        # urban FTTH: 561 * (0.3 + 0.7*1.2) * 1.10 * 0.90
        expected = 561.0 * ((3.0 + 7.0 * 1.2) / 10.0) * (1.0 - (-0.10)) * 0.90
        got = table.unit_cost(CostAction.FTTH_NEW, Geotype.URBAN, "YY")
        assert got == pytest.approx(expected, rel=1e-12)

    def test_km_actions_have_no_geotype(self, dataset):
        refs = dataset.cost_references
        table = build_cost_table(refs, {"XX": neutral_country()}, {2019: 1.0})
        v1 = table.unit_cost(CostAction.FIVE_G_ROAD_NOMINAL_KM, None, "XX")
        v2 = table.unit_cost(CostAction.FIVE_G_ROAD_NOMINAL_KM, Geotype.RURAL, "XX")
        assert v1 == v2 == 95_000.0

    def test_missing_cell_reported(self, dataset):
        refs = [r for r in dataset.cost_references
                if not (r.action is CostAction.FTTH_NEW and r.geotype is Geotype.RURAL)]
        with pytest.raises(CostTableError, match="FTTH_NEW"):
            build_cost_table(refs, {"XX": neutral_country()}, {2019: 1.0})

    def test_required_cells_count(self):
        cells = required_cells()
        per_km = sum(1 for a in CostAction if a.per_km)
        assert len(cells) == per_km + (len(CostAction) - per_km) * len(Geotype)

    def test_action_flags(self):
        assert CostAction.FIVE_G_ROAD_NOMINAL_KM.per_km
        assert not CostAction.FTTH_NEW.per_km
        assert CostAction.FIVE_G_NOMINAL in costs._WIRELESS_ACTIONS
        assert CostAction.FIVE_G_RAIL_GUARANTEED_KM in costs._WIRELESS_ACTIONS
        assert CostAction.UPGRADE_DOCSIS30_TO_31 not in costs._WIRELESS_ACTIONS
