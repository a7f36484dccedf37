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
from .geo import GEOTYPES_DENSEST_FIRST, SIZE_CLASSES, GeoFrame, Geotype, ModelEnum


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


# The demand builders here and gap's pricing loops run once per region and
# geotype. Python 3.11's EnumType defines __getattr__, which makes reading a
# member such as Geotype.URBAN slow, so the loops read these constants and
# the ones below Unit (as geo.classify does).
_URBAN, _SUBURBAN, _SEMI_RURAL, _RURAL, _EXTREMELY_RURAL = GEOTYPES_DENSEST_FIRST

_WIRELESS_GEOTYPES = {
    T4WirelessScope.EXTREMELY_RURAL_ONLY: frozenset({_EXTREMELY_RURAL}),
    T4WirelessScope.ALL_THREE_RURAL: frozenset({_SEMI_RURAL, _RURAL, _EXTREMELY_RURAL}),
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


_FLAG_TEXT = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _flag(value) -> bool:
    flag = _FLAG_TEXT.get(str(value).lower())  # a JSON boolean reads as "true" or "false"
    if flag is None:
        raise ValueError(f"docsis_upgrade must be true, 1, yes, false, 0 or no, got {value!r}")
    return flag


# Scenario field -> parser of the plain value scenario_to_fields writes.
_SCENARIO_FIELDS = {"t1_quality": Quality, "t2_quality": Quality, "t3_tier": T3Tier,
                    "t4_wireless": T4WirelessScope, "docsis_upgrade": _flag}


def scenario_to_fields(scenario: Scenario) -> dict:
    """Field name -> plain value (enum value or bool) for one scenario."""
    values = {name: getattr(scenario, name) for name in _SCENARIO_FIELDS}
    return {name: v.value if isinstance(v, Enum) else v for name, v in values.items()}


def scenario_from_fields(fields: dict, what: str = "scenario") -> Scenario:
    """Inverse of scenario_to_fields; docsis_upgrade may also be text
    (true, 1, yes, false, 0 or no). A missing field or a bad value
    raises DataError."""
    try:
        return Scenario(**{name: parse(fields[name]) for name, parse in _SCENARIO_FIELDS.items()})
    except KeyError as err:
        raise DataError(f"{what} missing field {err.args[0]}") from None
    except ValueError as err:
        raise DataError(f"{what}: {err}") from None


def scenario_from_config(text: str) -> Scenario:
    """Parse a key=value scenario file (one field per line, # comments).
    Each key must be a scenario field, given once."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"scenario config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip().lower() for part in line.split("=", 1))
        if key not in _SCENARIO_FIELDS:
            raise DataError(f"scenario config line {lineno}: unknown key {key!r}; "
                            f"expected one of {', '.join(_SCENARIO_FIELDS)}")
        if key in fields:
            raise DataError(f"scenario config line {lineno}: {key} is given more than once")
        try:
            fields[key] = _SCENARIO_FIELDS[key](value)
        except ValueError as err:
            raise DataError(f"scenario config line {lineno}: {key}: {err}") from None
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


_T1, _T2_URBAN, _T2_TRANSPORT, _T3, _T4 = Target
_PREMISES, _KM_ROAD, _KM_RAIL = Unit
_FTTH_NEW, _FIVE_G_NOMINAL = CostAction.FTTH_NEW, CostAction.FIVE_G_NOMINAL


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


@dataclass(slots=True)
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
        return _FIVE_G_NOMINAL
    return _FTTH_NEW


def demand_t1(frame: GeoFrame, scenario: Scenario) -> list[DemandItem]:
    """5G for every premise of each country's capital region."""
    items = []
    action = _FIVE_G_PREMISE[scenario.t1_quality]
    for code in sorted(frame.countries):
        capital = frame.countries[code].capital_region
        if capital not in frame.regions:
            raise DataError(f"country {code}: capital region {capital} not in dataset")
        for g in GEOTYPES_DENSEST_FIRST:
            quantity = frame.premises[(capital, g)]
            if quantity > 0:
                items.append(DemandItem(_T1, capital, g, _PREMISES, quantity, action))
    return items


def demand_t2(frame: GeoFrame, scenario: Scenario) -> list[DemandItem]:
    """5G at all urban and suburban premises, plus road and rail
    corridors allocated to regions by area share."""
    items = []
    premise_action = _FIVE_G_PREMISE[scenario.t2_quality]
    for region_id in sorted(frame.regions):
        for g in (_URBAN, _SUBURBAN):
            quantity = frame.premises[(region_id, g)]
            if quantity > 0:
                items.append(DemandItem(_T2_URBAN, region_id, g, _PREMISES,
                                        quantity, premise_action))

    road_action = _FIVE_G_ROAD[scenario.t2_quality]
    rail_action = _FIVE_G_RAIL[scenario.t2_quality]
    for code in sorted(frame.countries):
        country = frame.countries[code]
        member = frame.country_regions.get(code, [])
        total_area = sum(frame.regions[r].area_km2 for r in member)
        if total_area <= 0:
            raise DataError(f"country {code}: zero total area, cannot allocate transport")
        for region_id in member:
            region_share = frame.regions[region_id].area_km2 / total_area
            area_share = frame.profiles[region_id].area_share
            for g in GEOTYPES_DENSEST_FIRST:
                share = region_share * area_share[g]
                if share <= 0:
                    continue
                road_km = country.road_km * share
                rail_km = country.rail_km * share
                if road_km > 0:
                    items.append(DemandItem(_T2_TRANSPORT, region_id, g,
                                            _KM_ROAD, road_km, road_action))
                if rail_km > 0:
                    items.append(DemandItem(_T2_TRANSPORT, region_id, g,
                                            _KM_RAIL, rail_km, rail_action))
    return items


def select_t3_enterprises(frame: GeoFrame, tier: T3Tier) -> dict[str, float]:
    """{size class: fraction of it that T3 serves} under the tier cap.

    Larger size classes are taken first; the marginal class is prorated
    uniformly across all cells.
    """
    cap = T3_TIER_CAPS[tier]
    class_totals = {sc: 0.0 for sc in SIZE_CLASSES}
    for region_id, counts in frame.enterprise_counts.items():  # sorted by region
        for share in frame.profiles[region_id].population_share.values():
            for sc in SIZE_CLASSES:
                class_totals[sc] += counts[sc] * share
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
    return fractions


def demand_t3(frame: GeoFrame, scenario: Scenario) -> list[DemandItem]:
    """Gigabit household-equivalents for the selected enterprises: per
    cell and size class, the region's count times the geotype's
    population share times the class's select_t3_enterprises fraction.

    The build action is fibre everywhere; the extremely rural geotype
    explicitly requires it. Cheaper routes over existing footprints are
    resolved later, per cell.
    """
    fractions = select_t3_enterprises(frame, scenario.t3_tier)
    items = []
    for region_id in sorted(frame.regions):
        region_counts = frame.enterprise_counts[region_id]
        for g, share in frame.profiles[region_id].population_share.items():
            counts = {sc: region_counts[sc] * share * fractions[sc] for sc in SIZE_CLASSES}
            equivalents = household_equivalents(counts)
            locations = sum(counts.values())
            if equivalents > 0:
                items.append(DemandItem(_T3, region_id, g, _PREMISES, equivalents, _FTTH_NEW,
                                        enterprise_locations=locations))
    return items


def demand_t4(frame: GeoFrame, scenario: Scenario) -> list[DemandItem]:
    """Gigabit-grade access for every premise, fibre or nominal 5G per
    the scenario's wireless scope."""
    items = []
    for region_id in sorted(frame.regions):
        for g in GEOTYPES_DENSEST_FIRST:
            quantity = frame.premises[(region_id, g)]
            if quantity <= 0:
                continue
            items.append(DemandItem(_T4, region_id, g, _PREMISES,
                                    quantity, t4_action(scenario, g)))
    return items


_BUILDERS = {_T1: demand_t1, _T3: demand_t3, _T4: demand_t4}


def build_demands(frame: GeoFrame, scenario: Scenario,
                  targets=None) -> dict[Target, list[DemandItem]]:
    """Standalone demand items of the given targets (default: all),
    keyed by target in Target order. Both T2 flavours, each under its
    own key, come from one demand_t2 call."""
    wanted = [t for t in Target if targets is None or t in targets]
    t2 = demand_t2(frame, scenario) if _T2_URBAN in wanted or _T2_TRANSPORT in wanted else []
    return {t: _BUILDERS[t](frame, scenario) if t in _BUILDERS
            else [i for i in t2 if i.target is t] for t in wanted}
