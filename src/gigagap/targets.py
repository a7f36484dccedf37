"""Connectivity targets and demand construction.

Four policy targets are modelled:

* T1: 5G in the capital region of every country.
* T2: 5G at all urban premises plus along roads and railways.
* T3: gigabit connectivity for enterprises, counted in
  household-equivalent connections.
* T4: gigabit access for all premises, fixed in the denser geotypes
  and 5G (nominal) where the scenario says wireless.

Each target turns the prepared frame into a list of demand items; the
gap module prices them against existing coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .costs import CostAction
from .errors import DataError
from .geo import SIZE_CLASSES, GeoFrame, Geotype, ModelEnum


class Quality(ModelEnum):
    """5G dimensioning level."""

    NOMINAL = "nominal"
    GUARANTEED = "guaranteed"


class T3Tier(ModelEnum):
    """How much of the enterprise base target 3 serves."""

    ALL_ENTERPRISES = "all_enterprises"
    FIVE_MILLION = "five_million"
    ONE_MILLION = "one_million"


T3_TIER_CAPS = {
    T3Tier.ALL_ENTERPRISES: None,
    T3Tier.FIVE_MILLION: 5_000_000.0,
    T3Tier.ONE_MILLION: 1_000_000.0,
}


class T4WirelessScope(ModelEnum):
    """Geotypes where target 4 is met with 5G instead of fibre."""

    EXTREMELY_RURAL_ONLY = "extremely_rural_only"
    ALL_THREE_RURAL = "all_three_rural"


_WIRELESS_GEOTYPES = {
    T4WirelessScope.EXTREMELY_RURAL_ONLY: frozenset({Geotype.EXTREMELY_RURAL}),
    T4WirelessScope.ALL_THREE_RURAL: frozenset({
        Geotype.SEMI_RURAL, Geotype.RURAL, Geotype.EXTREMELY_RURAL,
    }),
}


@dataclass(frozen=True)
class Scenario:
    """One consistent choice along every scenario dimension."""

    t1_quality: Quality
    t2_quality: Quality
    t3_tier: T3Tier
    t4_wireless: T4WirelessScope
    docsis_upgrade: bool

    def t4_is_wireless(self, geotype: Geotype) -> bool:
        return geotype in _WIRELESS_GEOTYPES[self.t4_wireless]


SCENARIO_PRESETS = {
    "baseline": Scenario(Quality.NOMINAL, Quality.NOMINAL, T3Tier.ALL_ENTERPRISES,
                         T4WirelessScope.EXTREMELY_RURAL_ONLY, docsis_upgrade=True),
    "max": Scenario(Quality.GUARANTEED, Quality.GUARANTEED, T3Tier.ALL_ENTERPRISES,
                    T4WirelessScope.EXTREMELY_RURAL_ONLY, docsis_upgrade=False),
    "min": Scenario(Quality.NOMINAL, Quality.NOMINAL, T3Tier.ONE_MILLION,
                    T4WirelessScope.ALL_THREE_RURAL, docsis_upgrade=True),
}


def _flag(value) -> bool:
    return value if isinstance(value, bool) else str(value).lower() in ("true", "1", "yes")


# Scenario field -> parser of the plain value scenario_to_fields writes.
_SCENARIO_FIELDS = {"t1_quality": Quality, "t2_quality": Quality, "t3_tier": T3Tier,
                    "t4_wireless": T4WirelessScope, "docsis_upgrade": _flag}


def scenario_to_fields(scenario: Scenario) -> dict:
    """Field name -> plain value (enum value or bool) for one scenario."""
    values = {name: getattr(scenario, name) for name in _SCENARIO_FIELDS}
    return {name: v.value if isinstance(v, Enum) else v for name, v in values.items()}


def scenario_from_fields(fields: dict, what: str = "scenario") -> Scenario:
    """Inverse of scenario_to_fields; docsis_upgrade may also be text
    (true, 1 or yes). A missing field or a bad value raises DataError."""
    try:
        return Scenario(**{name: parse(fields[name]) for name, parse in _SCENARIO_FIELDS.items()})
    except KeyError as err:
        raise DataError(f"{what} missing field {err.args[0]}") from None
    except ValueError as err:
        raise DataError(f"{what}: {err}") from None


def scenario_from_config(text: str) -> Scenario:
    """Parse a key=value scenario file (one field per line, # comments)."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"scenario config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        fields[key.lower()] = value.lower()
    return scenario_from_fields(fields, "scenario config")


class Target(ModelEnum):
    T1 = "T1"
    T2_URBAN = "T2_URBAN"
    T2_TRANSPORT = "T2_TRANSPORT"
    T3 = "T3"
    T4 = "T4"


class Unit(ModelEnum):
    PREMISES = "premises"
    KM_ROAD = "km_road"
    KM_RAIL = "km_rail"


# Household-equivalent gigabit connections per enterprise, by employee
# size class (roughly one per five employees, floor of two).
ENTERPRISE_EQUIVALENTS = {
    "0-9": 2.0,
    "10-19": 5.0,
    "20-49": 11.0,
    "50-249": 50.0,
    "250+": 100.0,
}


def household_equivalents(counts: dict[str, float]) -> float:
    """Total household-equivalent connections for an enterprise mix."""
    total = 0.0
    for sc, n in counts.items():
        if sc not in ENTERPRISE_EQUIVALENTS:
            raise DataError(f"unknown enterprise size class {sc!r}")
        if n < 0:
            raise DataError(f"negative enterprise count for class {sc}")
        total += ENTERPRISE_EQUIVALENTS[sc] * n
    return total


@dataclass
class DemandItem:
    """Quantity of one target to serve in one region-geotype cell.

    required_action is the build action used where no existing
    footprint offers a cheaper admissible route. For T3 items,
    enterprise_locations carries the selected location count behind the
    household-equivalent quantity, which composition needs.
    """

    target: Target
    region: str
    geotype: Geotype
    unit: Unit
    quantity: float
    required_action: CostAction
    enterprise_locations: float = 0.0

    def __post_init__(self):
        if self.quantity < 0:
            raise DataError(f"demand item {self.region}/{self.geotype.value}: "
                            f"negative quantity {self.quantity}")
        if self.enterprise_locations < 0:
            raise DataError(f"demand item {self.region}/{self.geotype.value}: "
                            f"negative enterprise locations")


_FIVE_G_PREMISE = {
    Quality.NOMINAL: CostAction.FIVE_G_NOMINAL,
    Quality.GUARANTEED: CostAction.FIVE_G_GUARANTEED,
}
_FIVE_G_ROAD = {
    Quality.NOMINAL: CostAction.FIVE_G_ROAD_NOMINAL_KM,
    Quality.GUARANTEED: CostAction.FIVE_G_ROAD_GUARANTEED_KM,
}
_FIVE_G_RAIL = {
    Quality.NOMINAL: CostAction.FIVE_G_RAIL_NOMINAL_KM,
    Quality.GUARANTEED: CostAction.FIVE_G_RAIL_GUARANTEED_KM,
}


def t4_action(scenario: Scenario, geotype: Geotype) -> CostAction:
    """Build action for T4 in a geotype: fibre, or nominal 5G where the
    scenario serves the geotype wirelessly."""
    if scenario.t4_is_wireless(geotype):
        return CostAction.FIVE_G_NOMINAL
    return CostAction.FTTH_NEW


def demand_t1(frame: GeoFrame, scenario: Scenario) -> list[DemandItem]:
    """5G for every premise of each country's capital region."""
    items = []
    action = _FIVE_G_PREMISE[scenario.t1_quality]
    for code in sorted(frame.countries):
        capital = frame.countries[code].capital_region
        if capital not in frame.regions:
            raise DataError(f"country {code}: capital region {capital} not in dataset")
        for g in Geotype:
            quantity = frame.premises[(capital, g)].total
            if quantity > 0:
                items.append(DemandItem(Target.T1, capital, g, Unit.PREMISES,
                                        quantity, action))
    return items


def demand_t2(frame: GeoFrame, scenario: Scenario) -> list[DemandItem]:
    """5G at all urban and suburban premises, plus road and rail
    corridors allocated to regions by area share."""
    items = []
    premise_action = _FIVE_G_PREMISE[scenario.t2_quality]
    for region_id in sorted(frame.regions):
        for g in (Geotype.URBAN, Geotype.SUBURBAN):
            quantity = frame.premises[(region_id, g)].total
            if quantity > 0:
                items.append(DemandItem(Target.T2_URBAN, region_id, g, Unit.PREMISES,
                                        quantity, premise_action))

    road_action = _FIVE_G_ROAD[scenario.t2_quality]
    rail_action = _FIVE_G_RAIL[scenario.t2_quality]
    for code in sorted(frame.countries):
        country = frame.countries[code]
        member = frame.country_regions(code)
        total_area = sum(frame.regions[r].area_km2 for r in member)
        if total_area <= 0:
            raise DataError(f"country {code}: zero total area, cannot allocate transport")
        for region_id in member:
            region_share = frame.regions[region_id].area_km2 / total_area
            area_share = frame.profiles[region_id].area_share
            for g in Geotype:
                share = region_share * area_share[g]
                if share <= 0:
                    continue
                road_km = country.road_km * share
                rail_km = country.rail_km * share
                if road_km > 0:
                    items.append(DemandItem(Target.T2_TRANSPORT, region_id, g,
                                            Unit.KM_ROAD, road_km, road_action))
                if rail_km > 0:
                    items.append(DemandItem(Target.T2_TRANSPORT, region_id, g,
                                            Unit.KM_RAIL, rail_km, rail_action))
    return items


def select_t3_enterprises(frame: GeoFrame, tier: T3Tier) -> dict[tuple[str, Geotype, str], float]:
    """Pick the enterprises served by T3 under the tier cap.

    Larger size classes are taken first; the marginal class is prorated
    uniformly across all cells.
    """
    cap = T3_TIER_CAPS[tier]
    class_totals = {sc: 0.0 for sc in SIZE_CLASSES}
    for (region, g, sc), count in frame.enterprises.items():
        class_totals[sc] += count
    base = sum(class_totals.values())
    if cap is not None and cap > base:
        raise DataError(
            f"T3 tier needs {cap:.0f} enterprises but only {base:.0f} are in the dataset"
        )

    fractions = {}
    remaining = cap
    for sc in reversed(SIZE_CLASSES):  # largest class first
        if remaining is None:
            fractions[sc] = 1.0
        elif class_totals[sc] <= 0:
            fractions[sc] = 0.0
        else:
            take = min(class_totals[sc], remaining)
            fractions[sc] = take / class_totals[sc]
            remaining -= take
    selected = {}
    for key in frame.enterprises:
        sc = key[2]
        selected[key] = frame.enterprises[key] * fractions[sc]
    return selected


def demand_t3(frame: GeoFrame, scenario: Scenario) -> list[DemandItem]:
    """Gigabit household-equivalents for the selected enterprises.

    The build action is fibre everywhere; the extremely rural geotype
    explicitly requires it. Cheaper routes over existing footprints are
    resolved later, per cell.
    """
    selected = select_t3_enterprises(frame, scenario.t3_tier)
    items = []
    for region_id in sorted(frame.regions):
        for g in Geotype:
            counts = {sc: selected.get((region_id, g, sc), 0.0) for sc in SIZE_CLASSES}
            equivalents = household_equivalents(counts)
            locations = sum(counts.values())
            if equivalents > 0:
                items.append(DemandItem(Target.T3, region_id, g, Unit.PREMISES,
                                        equivalents, CostAction.FTTH_NEW,
                                        enterprise_locations=locations))
    return items


def demand_t4(frame: GeoFrame, scenario: Scenario) -> list[DemandItem]:
    """Gigabit-grade access for every premise, fibre or nominal 5G per
    the scenario's wireless scope."""
    items = []
    for region_id in sorted(frame.regions):
        for g in Geotype:
            quantity = frame.premises[(region_id, g)].total
            if quantity <= 0:
                continue
            items.append(DemandItem(Target.T4, region_id, g, Unit.PREMISES,
                                    quantity, t4_action(scenario, g)))
    return items


def build_demands(frame: GeoFrame, scenario: Scenario) -> dict[Target, list[DemandItem]]:
    """All standalone demand items, keyed by target (both T2 flavours
    under their own keys)."""
    t2 = demand_t2(frame, scenario)
    return {
        Target.T1: demand_t1(frame, scenario),
        Target.T2_URBAN: [i for i in t2 if i.target is Target.T2_URBAN],
        Target.T2_TRANSPORT: [i for i in t2 if i.target is Target.T2_TRANSPORT],
        Target.T3: demand_t3(frame, scenario),
        Target.T4: demand_t4(frame, scenario),
    }
