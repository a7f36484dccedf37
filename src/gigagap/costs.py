"""Unit cost construction.

Cost references from heterogeneous sources are indexed to 2019 euros,
merged with granularity weights into one base figure per action and
geotype, then adjusted per country: labour intensity first, national
preparedness second, infrastructure sharing last.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CostTableError, DataError
from .geo import Geotype, ModelEnum


class Granularity(ModelEnum):
    """Spatial resolution of a cost reference. Finer data gets more
    weight when references are merged."""

    LOCAL = "LOCAL"
    NUTS3 = "NUTS3"
    NUTS2 = "NUTS2"
    COUNTRY = "COUNTRY"
    EU = "EU"


GRANULARITY_WEIGHTS = {
    Granularity.LOCAL: 5.0,
    Granularity.NUTS3: 4.0,
    Granularity.NUTS2: 3.0,
    Granularity.COUNTRY: 2.0,
    Granularity.EU: 1.0,
}


class CostAction(ModelEnum):
    """Deployable actions with a per-premise or per-km unit cost."""

    FTTH_NEW = "FTTH_NEW"
    FTTB_NEW = "FTTB_NEW"
    FTTC_NEW = "FTTC_NEW"
    UPGRADE_FTTB_TO_FTTH = "UPGRADE_FTTB_TO_FTTH"
    UPGRADE_FTTC_TO_FTTH = "UPGRADE_FTTC_TO_FTTH"
    UPGRADE_FTTH_TO_1G = "UPGRADE_FTTH_TO_1G"
    UPGRADE_DOCSIS30_TO_31 = "UPGRADE_DOCSIS30_TO_31"
    FIVE_G_NOMINAL = "FIVE_G_NOMINAL"
    FIVE_G_GUARANTEED = "FIVE_G_GUARANTEED"
    FIVE_G_ROAD_NOMINAL_KM = "FIVE_G_ROAD_NOMINAL_KM"
    FIVE_G_ROAD_GUARANTEED_KM = "FIVE_G_ROAD_GUARANTEED_KM"
    FIVE_G_RAIL_NOMINAL_KM = "FIVE_G_RAIL_NOMINAL_KM"
    FIVE_G_RAIL_GUARANTEED_KM = "FIVE_G_RAIL_GUARANTEED_KM"

    @property
    def per_km(self) -> bool:
        return self in TRANSPORT_ACTIONS

    @property
    def wireless(self) -> bool:
        """True for 5G actions; everything else is fixed-network work."""
        return self in _WIRELESS_ACTIONS


TRANSPORT_ACTIONS = frozenset(a for a in CostAction if a.value.endswith("_KM"))
_WIRELESS_ACTIONS = frozenset(a for a in CostAction if a.value.startswith("FIVE_G"))


@dataclass
class CostReference:
    """One sourced cost figure before indexing and merging."""

    action: CostAction
    geotype: Geotype | None
    granularity: Granularity
    value_eur: float
    price_year: int
    source: str = ""

    def __post_init__(self):
        if self.value_eur < 0:
            raise DataError(f"cost reference {self.source or self.action.value}: negative value")
        if self.action.per_km != (self.geotype is None):
            raise DataError(
                f"cost reference {self.action.value}: transport actions carry no geotype, "
                f"premise actions need one"
            )


@dataclass
class PreparednessFactor:
    """National cost modifiers for terrain, housing stock and regulation.

    Positive components mean deployment is cheaper than the EU average.
    Each component is expected at -10%, 0 or +10%.
    """

    country: str
    geographic: float
    housing: float
    regulation: float

    def __post_init__(self):
        for name, v in (("geographic", self.geographic), ("housing", self.housing),
                        ("regulation", self.regulation)):
            if not -0.10 - 1e-9 <= v <= 0.10 + 1e-9:
                raise DataError(
                    f"preparedness {self.country}: component {name}={v} outside [-0.10, 0.10]"
                )

    @property
    def combined(self) -> float:
        # Summed in tenths so that decimal-step components stay exact
        # in floating point (three times -0.10 must combine to -0.30).
        return (self.geographic * 10.0 + self.housing * 10.0
                + self.regulation * 10.0) / 10.0


def index_to_2019(value_eur: float, price_year: int, price_index: dict[int, float]) -> float:
    """Convert a cost figure to 2019 euros using the year multiplier."""
    if value_eur < 0:
        raise DataError(f"cannot index a negative cost: {value_eur}")
    if price_year not in price_index:
        raise DataError(f"price index has no entry for year {price_year}")
    return value_eur * price_index[price_year]


def merge_references(refs: list[CostReference], price_index: dict[int, float]) -> float:
    """Merge indexed references into one figure by granularity-weighted mean."""
    if not refs:
        raise CostTableError(["(empty reference list)"])
    total_w = 0.0
    acc = 0.0
    for ref in refs:
        w = GRANULARITY_WEIGHTS[ref.granularity]
        acc += w * index_to_2019(ref.value_eur, ref.price_year, price_index)
        total_w += w
    return acc / total_w


def adjust_labour(base_eur: float, labour_index: float) -> float:
    """Scale a base cost for national labour cost level.

    30% of the cost (equipment) is labour-independent, 70% (civil
    works) scales with the index. Written as (3 + 7*i)/10 so that an
    index of exactly 1 is a float-exact identity.
    """
    if labour_index <= 0:
        raise DataError(f"labour index must be positive, got {labour_index}")
    return base_eur * ((3.0 + 7.0 * labour_index) / 10.0)


def apply_preparedness(cost_eur: float, factor: PreparednessFactor) -> float:
    """Apply the combined national preparedness factor.

    A positive combined factor makes deployment cheaper, so the cost is
    multiplied by (1 - combined)."""
    return cost_eur * (1.0 - factor.combined)


def check_sharing(sharing_fraction: float) -> None:
    """Reject a sharing fraction outside [0, 0.12], NaN included."""
    if not 0.0 <= sharing_fraction <= 0.12:
        raise DataError(f"sharing fraction {sharing_fraction} outside [0, 0.12]")


def apply_sharing(cost_eur: float, sharing_fraction: float) -> float:
    """Reduce a cost by the infrastructure sharing fraction (max 12%)."""
    check_sharing(sharing_fraction)
    return cost_eur * (1.0 - sharing_fraction)


@dataclass
class CostTable:
    """Merged base costs plus per-country adjusted unit costs, EUR 2019."""

    base: dict[tuple[CostAction, Geotype | None], float]
    adjusted: dict[tuple[CostAction, Geotype | None, str], float]

    def unit_cost(self, action: CostAction, geotype: Geotype | None, country: str) -> float:
        key = (action, None if action.per_km else geotype, country)
        if key not in self.adjusted:
            raise CostTableError([key])
        return self.adjusted[key]


def required_cells() -> list[tuple[CostAction, Geotype | None]]:
    cells = []
    for action in CostAction:
        if action.per_km:
            cells.append((action, None))
        else:
            cells.extend((action, g) for g in Geotype)
    return cells


def build_cost_table(references: list[CostReference],
                     countries: dict,
                     price_index: dict[int, float],
                     sharing_fraction: float = 0.0) -> CostTable:
    """Merge references and adjust per country.

    The adjustment order is fixed: labour, then preparedness, then
    sharing. Every required cell must be covered by at least one
    reference; all gaps are reported together.
    """
    cells = required_cells()
    grouped: dict[tuple[CostAction, Geotype | None], list[CostReference]] = {}
    for ref in references:
        grouped.setdefault((ref.action, ref.geotype), []).append(ref)

    missing = [cell for cell in cells if cell not in grouped]
    if missing:
        raise CostTableError(
            [f"{a.value}/{g.value if g else 'per-km'}" for a, g in missing]
        )

    base = {}
    for cell in cells:
        base[cell] = merge_references(grouped[cell], price_index)

    adjusted = {}
    for cell in cells:
        action, geotype = cell
        for code in sorted(countries):
            country = countries[code]
            cost = adjust_labour(base[cell], country.labour_index)
            cost = apply_preparedness(cost, country.preparedness)
            cost = apply_sharing(cost, sharing_fraction)
            adjusted[(action, geotype, code)] = cost
    return CostTable(base=base, adjusted=adjusted)
