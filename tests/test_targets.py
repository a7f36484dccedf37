import pytest

from gigagap.costs import CostAction
from gigagap.errors import DataError
from gigagap.geo import SIZE_CLASSES, Geotype, build_frame
from gigagap.targets import (
    ENTERPRISE_EQUIVALENTS,
    SCENARIO_PRESETS,
    T3_TIER_CAPS,
    DemandItem,
    Quality,
    Scenario,
    T3Tier,
    T4WirelessScope,
    Target,
    Unit,
    build_demands,
    demand_t1,
    demand_t2,
    demand_t3,
    demand_t4,
    household_equivalents,
    scenario_from_config,
    scenario_from_fields,
    scenario_to_fields,
    select_t3_enterprises,
    t4_action,
)

BASELINE = SCENARIO_PRESETS["baseline"]
MIN = SCENARIO_PRESETS["min"]
MAX = SCENARIO_PRESETS["max"]


@pytest.fixture(scope="module")
def frame(dataset):
    return build_frame(dataset)


def cell_enterprises(frame) -> dict:
    """{(region, geotype, size class): count} of every cell."""
    return {(rid, g, sc): counts[sc] * share
            for rid, counts in frame.enterprise_counts.items()
            for g, share in frame.profiles[rid].population_share.items()
            for sc in SIZE_CLASSES}


class TestScenario:
    def test_preset_fields(self):
        assert BASELINE.t3_tier is T3Tier.ALL_ENTERPRISES
        assert BASELINE.docsis_upgrade is True
        assert MAX.t1_quality is Quality.GUARANTEED
        assert MAX.docsis_upgrade is False
        assert MIN.t3_tier is T3Tier.ONE_MILLION
        assert MIN.t4_wireless is T4WirelessScope.ALL_THREE_RURAL

    def test_wireless_scope(self):
        assert BASELINE.t4_is_wireless(Geotype.EXTREMELY_RURAL)
        assert not BASELINE.t4_is_wireless(Geotype.RURAL)
        assert MIN.t4_is_wireless(Geotype.SEMI_RURAL)
        assert not MIN.t4_is_wireless(Geotype.SUBURBAN)

    def test_config_round_trip(self):
        text = """
        # comment
        t1_quality = guaranteed
        t2_quality = nominal
        t3_tier = five_million
        t4_wireless = all_three_rural
        docsis_upgrade = false
        """
        s = scenario_from_config(text)
        assert s.t1_quality is Quality.GUARANTEED
        assert s.t3_tier is T3Tier.FIVE_MILLION
        assert s.docsis_upgrade is False

    def test_config_missing_field_rejected(self):
        with pytest.raises(DataError, match="missing field"):
            scenario_from_config("t1_quality = nominal")

    def test_config_bad_value_rejected(self):
        with pytest.raises(DataError, match=r"^scenario config line 1: t1_quality: 'super' is "
                                            r"not a valid Quality; expected one of nominal, "
                                            r"guaranteed$"):
            scenario_from_config(
                "t1_quality=super\nt2_quality=nominal\nt3_tier=all_enterprises\n"
                "t4_wireless=extremely_rural_only\ndocsis_upgrade=true")

    def test_config_bad_line_rejected(self):
        with pytest.raises(DataError, match="key=value"):
            scenario_from_config("just words")

    VALID_CONFIG = ("t1_quality = nominal\nt2_quality = nominal\nt3_tier = one_million\n"
                    "t4_wireless = extremely_rural_only\n")

    @pytest.mark.parametrize("lines, message", [
        ("docsis_upgrade = true\nsharing = 0.12", "line 6: unknown key 'sharing'"),
        ("docsis_upgrade = true\n\nDOCSIS_upgrade = false",
         "line 7: docsis_upgrade is given more than once"),
        ("t1_quality = guaranteed\ndocsis_upgrade = true",
         "line 5: t1_quality is given more than once"),
    ], ids=["unknown", "repeated-flag", "repeated-enum"])
    def test_config_unknown_or_repeated_key_rejected(self, lines, message):
        with pytest.raises(DataError, match=f"^scenario config {message}"):
            scenario_from_config(self.VALID_CONFIG + lines)

    @pytest.mark.parametrize("value, expected", [
        ("true", True), ("1", True), ("YES", True),
        ("false", False), ("0", False), ("No", False),
    ])
    def test_config_flag_spellings(self, value, expected):
        scenario = scenario_from_config(self.VALID_CONFIG + f"docsis_upgrade = {value}")
        assert scenario.docsis_upgrade is expected

    @pytest.mark.parametrize("value", ["maybe", "", "on", "2"])
    def test_config_other_flag_values_rejected(self, value):
        with pytest.raises(DataError, match="docsis_upgrade must be true, 1, yes, false, 0 or no"):
            scenario_from_config(self.VALID_CONFIG + f"docsis_upgrade = {value}")

    @pytest.mark.parametrize("flag", [True, False])
    def test_fields_take_json_booleans(self, flag):
        fields = {**scenario_to_fields(SCENARIO_PRESETS["baseline"]), "docsis_upgrade": flag}
        assert scenario_from_fields(fields).docsis_upgrade is flag


class TestEquivalents:
    def test_published_mapping(self):
        assert ENTERPRISE_EQUIVALENTS == {
            "0-9": 2.0, "10-19": 5.0, "20-49": 11.0, "50-249": 50.0, "250+": 100.0}

    def test_hand_case(self):
        counts = {"0-9": 10.0, "250+": 1.0}
        assert household_equivalents(counts) == 120.0

    def test_unknown_class_rejected(self):
        with pytest.raises(DataError):
            household_equivalents({"500+": 1.0})

    def test_negative_count_rejected(self):
        with pytest.raises(DataError):
            household_equivalents({"0-9": -1.0})


class TestT3Selection:
    def test_tier_caps(self):
        assert T3_TIER_CAPS[T3Tier.ALL_ENTERPRISES] is None
        assert T3_TIER_CAPS[T3Tier.FIVE_MILLION] == 5_000_000.0
        assert T3_TIER_CAPS[T3Tier.ONE_MILLION] == 1_000_000.0

    def test_all_tier_selects_everything(self, frame):
        selected = select_t3_enterprises(frame, T3Tier.ALL_ENTERPRISES)
        assert selected == dict.fromkeys(SIZE_CLASSES, 1.0)

    def test_capped_tier_takes_largest_first(self, frame):
        # fixture base is 1.6m; the 1m cap keeps every class above 0-9
        # whole and prorates the smallest class
        fractions = select_t3_enterprises(frame, T3Tier.ONE_MILLION)
        class_totals = {sc: 0.0 for sc in SIZE_CLASSES}
        sel_totals = {sc: 0.0 for sc in SIZE_CLASSES}
        for (_, _, sc), count in cell_enterprises(frame).items():
            class_totals[sc] += count
            sel_totals[sc] += count * fractions[sc]
        for sc in ("10-19", "20-49", "50-249", "250+"):
            assert sel_totals[sc] == pytest.approx(class_totals[sc], rel=1e-9)
        assert sum(sel_totals.values()) == pytest.approx(1_000_000.0, rel=1e-9)
        assert sel_totals["0-9"] < class_totals["0-9"]

    def test_cap_above_base_rejected(self, frame):
        with pytest.raises(DataError, match="enterprises"):
            select_t3_enterprises(frame, T3Tier.FIVE_MILLION)

    def test_proration_is_uniform_across_cells(self, frame):
        # The cap cuts only the 0-9 class: each T3 item loses the same
        # fraction of its cell's 0-9 enterprises.
        whole = {(i.region, i.geotype): i.enterprise_locations
                 for i in demand_t3(frame, BASELINE)}
        capped = {(i.region, i.geotype): i.enterprise_locations
                  for i in demand_t3(frame, MIN)}
        assert MIN.t3_tier is T3Tier.ONE_MILLION and capped.keys() == whole.keys()
        cells = cell_enterprises(frame)
        fractions = set()
        for key in whole:
            count = cells[(*key, "0-9")]
            if count > 0:
                fractions.add(round((whole[key] - capped[key]) / count, 12))
        assert len(fractions) == 1


class TestDemands:
    def test_t1_only_capital_regions(self, frame):
        items = demand_t1(frame, BASELINE)
        capitals = {c.capital_region for c in frame.countries.values()}
        assert {i.region for i in items} == capitals
        assert all(i.target is Target.T1 for i in items)
        assert all(i.required_action is CostAction.FIVE_G_NOMINAL for i in items)

    def test_t1_guaranteed_quality_switches_action(self, frame):
        items = demand_t1(frame, MAX)
        assert all(i.required_action is CostAction.FIVE_G_GUARANTEED for i in items)

    def test_t1_quantities_are_capital_premises(self, frame):
        items = demand_t1(frame, BASELINE)
        total = sum(i.quantity for i in items if i.region == "FR101")
        assert total == pytest.approx(frame.region_premises("FR101"), rel=1e-9)

    def test_t1_missing_capital_rejected(self, frame, dataset):
        import dataclasses
        broken_country = dataclasses.replace(
            frame.countries["CY"], capital_region="CY999")
        broken = dataclasses.replace(frame, countries={**frame.countries,
                                                       "CY": broken_country})
        with pytest.raises(DataError, match="capital"):
            demand_t1(broken, BASELINE)

    def test_t2_urban_cells_only_urban_suburban(self, frame):
        items = [i for i in demand_t2(frame, BASELINE) if i.target is Target.T2_URBAN]
        assert {i.geotype for i in items} <= {Geotype.URBAN, Geotype.SUBURBAN}
        assert all(i.unit is Unit.PREMISES for i in items)

    def test_t2_transport_conserves_country_totals(self, frame):
        items = [i for i in demand_t2(frame, BASELINE) if i.target is Target.T2_TRANSPORT]
        for code, country in frame.countries.items():
            member = set(frame.country_regions[code])
            road = sum(i.quantity for i in items
                       if i.region in member and i.unit is Unit.KM_ROAD)
            rail = sum(i.quantity for i in items
                       if i.region in member and i.unit is Unit.KM_RAIL)
            assert road == pytest.approx(country.road_km, rel=1e-9)
            assert rail == pytest.approx(country.rail_km, rel=1e-9)

    def test_t2_transport_fixture_spot_values(self, frame):
        items = [i for i in demand_t2(frame, BASELINE) if i.target is Target.T2_TRANSPORT]
        fr_road = sum(i.quantity for i in items
                      if i.region.startswith("FR") and i.unit is Unit.KM_ROAD)
        cy_rail = [i for i in items
                   if i.region.startswith("CY") and i.unit is Unit.KM_RAIL]
        assert fr_road == pytest.approx(12_797.0, rel=1e-9)
        assert cy_rail == []  # no rail in the Cyprus inputs

    def test_t3_quantities_are_household_equivalents(self, frame):
        items = demand_t3(frame, BASELINE)
        total = sum(i.quantity for i in items)
        expected = sum(ENTERPRISE_EQUIVALENTS[sc] * n
                       for (_, _, sc), n in cell_enterprises(frame).items())
        assert total == pytest.approx(expected, rel=1e-9)
        assert all(i.required_action is CostAction.FTTH_NEW for i in items)

    def test_t3_items_carry_enterprise_locations(self, frame):
        items = demand_t3(frame, BASELINE)
        locations = sum(i.enterprise_locations for i in items)
        assert locations == pytest.approx(sum(cell_enterprises(frame).values()), rel=1e-9)

    def test_t4_covers_all_premises(self, frame):
        items = demand_t4(frame, BASELINE)
        total = sum(i.quantity for i in items)
        expected = sum(frame.region_premises(r) for r in frame.regions)
        assert total == pytest.approx(expected, rel=1e-9)

    def test_t4_action_depends_on_wireless_scope(self):
        assert t4_action(BASELINE, Geotype.EXTREMELY_RURAL) is CostAction.FIVE_G_NOMINAL
        assert t4_action(BASELINE, Geotype.RURAL) is CostAction.FTTH_NEW
        assert t4_action(MIN, Geotype.RURAL) is CostAction.FIVE_G_NOMINAL
        assert t4_action(MIN, Geotype.URBAN) is CostAction.FTTH_NEW

    def test_build_demands_covers_all_targets(self, frame):
        demands = build_demands(frame, BASELINE)
        assert set(demands) == set(Target)
        for target, items in demands.items():
            assert all(i.target is target for i in items)

    def test_build_demands_builds_only_the_given_targets(self, frame):
        full = build_demands(frame, BASELINE)
        for wanted in ({Target.T2_TRANSPORT}, {Target.T4, Target.T1, Target.T2_URBAN}):
            demands = build_demands(frame, BASELINE, wanted)
            assert list(demands) == [t for t in Target if t in wanted]
            for target, items in demands.items():
                assert items == full[target]

    def test_item_validation(self):
        with pytest.raises(DataError):
            DemandItem(Target.T1, "R1", Geotype.URBAN, Unit.PREMISES,
                       -5.0, CostAction.FIVE_G_NOMINAL)
