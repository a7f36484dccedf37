"""Socio-geographical reference frame.

Each region's localities arrive summed per geotype (classified by degree
of urbanisation and population density), and household / enterprise
premises are distributed over the five geotypes by those sums.
All counts stay real-valued; rounding only happens when reports are
written out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import DataError

# Rural localities are split further by inhabitants per km2.
SEMI_RURAL_MIN_DENSITY = 100.0
RURAL_MIN_DENSITY = 10.0

# Tolerated relative mismatch between a region's totals and the sum of
# its localities. Anything worse is a validation failure.
LOCALITY_SUM_TOLERANCE = 0.02

SIZE_CLASSES = ("0-9", "10-19", "20-49", "50-249", "250+")


class ModelEnum(Enum):
    """Base of the package's enums: members hash by identity.

    Enum.__hash__ is a Python-level hash(self._name_), and the pricing
    path hashes tuple-of-enum dict keys about a million times per
    scenario. Members are singletons and == on them is identity, so the
    identity hash agrees with equality. Set iteration order already
    varied between processes through str hash randomisation, so no
    output may depend on it.
    """

    __hash__ = object.__hash__

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(member.value for member in cls)
        raise ValueError(f"{value!r} is not a valid {cls.__name__}; expected one of {valid}")


class Geotype(ModelEnum):
    """Settlement classes ordered from densest to sparsest."""

    URBAN = "urban"
    SUBURBAN = "suburban"
    SEMI_RURAL = "semi_rural"
    RURAL = "rural"
    EXTREMELY_RURAL = "extremely_rural"


_GEOTYPE_ORDER = {g: i for i, g in enumerate(Geotype)}

GEOTYPES_DENSEST_FIRST = tuple(Geotype)


class Degurba(ModelEnum):
    """Degree-of-urbanisation class reported for a locality."""

    URBAN = "urban"
    SUBURBAN = "suburban"
    RURAL = "rural"


# Ordered coverage bands used to compare cable against fibre deployment.
COVERAGE_BAND_ORDER = ("<10", "10-25", "25-50", ">50")


_NO_GEOTYPE_SUMS = dict.fromkeys(Geotype, 0.0)


@dataclass(slots=True)
class LocalitySums:
    """A region's LAU2 localities, summed in row order as they are read.

    The model reads localities only through these sums: their count,
    population and area totals, and population and area per geotype.
    """

    count: int = 0
    population: float = 0.0
    area_km2: float = 0.0
    geotype_population: dict[Geotype, float] = field(default_factory=_NO_GEOTYPE_SUMS.copy)
    geotype_area: dict[Geotype, float] = field(default_factory=_NO_GEOTYPE_SUMS.copy)

    def add(self, population: float, area_km2: float, geotype: Geotype) -> None:
        self.count += 1
        self.population += population
        self.area_km2 += area_km2
        self.geotype_population[geotype] += population
        self.geotype_area[geotype] += area_km2


@dataclass(slots=True, frozen=True)
class Region:
    """NUTS3 statistical region, as read; frozen, as frames share it."""

    id: str
    country: str
    population: float
    area_km2: float
    households: float

    def __post_init__(self):
        if self.area_km2 <= 0:
            raise DataError(f"region {self.id}: area must be positive, got {self.area_km2}")
        if self.population < 0:
            raise DataError(f"region {self.id}: negative population")
        if self.households < 0:
            raise DataError(f"region {self.id}: negative households")

    @property
    def density(self) -> float:
        return self.population / self.area_km2


@dataclass
class Country:
    """Country-level attributes shared by all of its regions."""

    code: str
    labour_index: float
    preparedness: "object"  # costs.PreparednessFactor; kept loose to avoid a cycle
    road_km: float
    rail_km: float
    capital_region: str
    docsis_band: str | None = None
    fttp_band: str | None = None

    def __post_init__(self):
        if self.labour_index <= 0:
            raise DataError(f"country {self.code}: labour index must be positive")
        if self.road_km < 0 or self.rail_km < 0:
            raise DataError(f"country {self.code}: negative transport length")
        for band in (self.docsis_band, self.fttp_band):
            if band is not None and band not in COVERAGE_BAND_ORDER:
                raise DataError(f"country {self.code}: unknown coverage band {band!r}")

    @property
    def cable_dominant(self) -> bool:
        """True when cable deployment outranks fibre, making a DOCSIS
        3.1 upgrade the plausible gigabit route for existing cable."""
        if self.docsis_band is None or self.fttp_band is None:
            return False
        order = COVERAGE_BAND_ORDER.index
        return order(self.docsis_band) > order(self.fttp_band)


@dataclass(slots=True)
class GeotypeProfile:
    """Share of a region's population and area per geotype.

    Premises follow population: population_share is also each geotype's
    share of the region's households and enterprise locations. Shares sum
    to one except for the degenerate zero-population region, which keeps
    all-zero population shares.
    """

    region: str
    population_share: dict[Geotype, float]
    area_share: dict[Geotype, float]


# classify runs once per locality row. Python 3.11's EnumType defines
# __getattr__, which makes reading Geotype.RURAL slow, so it reads these.
_LABELLED = {Degurba.URBAN: Geotype.URBAN, Degurba.SUBURBAN: Geotype.SUBURBAN, Degurba.RURAL: None}
_SEMI_RURAL, _RURAL, _EXTREMELY_RURAL = GEOTYPES_DENSEST_FIRST[2:]


def classify(degurba: Degurba, density: float) -> Geotype:
    """Map a locality's degree of urbanisation and density to its geotype.

    Urban and suburban follow the degree-of-urbanisation label.  Rural
    localities are split by density: at least 100 inhabitants/km2 is
    semi rural, 10 to 100 rural, below 10 extremely rural.
    """
    geotype = _LABELLED[degurba]
    if geotype is not None:
        return geotype
    if density >= SEMI_RURAL_MIN_DENSITY:
        return _SEMI_RURAL
    if density >= RURAL_MIN_DENSITY:
        return _RURAL
    return _EXTREMELY_RURAL


def locality_sum_verdicts(region: Region, localities: LocalitySums):
    """(fatal, message) for population and for area wherever the region's
    localities, summed in row order, stray from the region total by more
    than rounding: fatal past LOCALITY_SUM_TOLERANCE, else a warning."""
    for name, have, want in (("population", localities.population, region.population),
                             ("area", localities.area_km2, region.area_km2)):
        rel = abs(have - want) / abs(want) if want else 0.0
        if rel > LOCALITY_SUM_TOLERANCE:
            yield True, (f"region {region.id}: locality {name} sums to {have:.6g} "
                         f"but the region total is {want:.6g} ({rel:.1%} off)")
        elif rel > 1e-9:
            yield False, f"region {region.id}: locality {name} off by {rel:.2%}"


def decompose_region(region: Region, localities: LocalitySums | None) -> GeotypeProfile:
    """A region's population and area shares per geotype, from its locality
    sums. No localities, or a fatal locality_sum_verdicts, is a DataError."""
    if localities is None or not localities.count:
        raise DataError(f"region {region.id}: no localities to decompose")
    # A mismatch within tolerance is warned about once, by dataio's cross-checks.
    for fatal, message in locality_sum_verdicts(region, localities):
        if fatal:
            raise DataError(message)

    pop, area = localities.geotype_population, localities.geotype_area
    total_pop = sum(pop.values())
    total_area = sum(area.values())
    if total_pop > 0:
        pop_share = {g: pop[g] / total_pop for g in Geotype}
    else:
        pop_share = {g: 0.0 for g in Geotype}
    area_share = {g: area[g] / total_area for g in Geotype}
    return GeotypeProfile(region=region.id, population_share=pop_share, area_share=area_share)


def allocate_enterprises(countries: dict[str, Country],
                         regions: dict[str, Region],
                         enterprise_counts: dict[tuple[str, str], float]
                         ) -> dict[str, dict[str, float]]:
    """{region id: {size class: count}}, in sorted region order: each
    country's per-size-class counts scaled by the region's share of the
    country population."""
    country_pop = {code: 0.0 for code in countries}
    for region in regions.values():
        country_pop[region.country] += region.population

    out = {}
    for region_id in sorted(regions):
        region = regions[region_id]
        total = country_pop[region.country]
        share = region.population / total if total > 0 else 0.0
        out[region_id] = {sc: enterprise_counts.get((region.country, sc), 0.0) * share
                          for sc in SIZE_CLASSES}
    return out


@dataclass
class GeoFrame:
    """Prepared socio-geographical inputs for one dataset, as plain numbers.

    Everything downstream (coverage weights, demand quantities) reads
    from here rather than re-deriving shares. regions and countries are
    the dataset's own, not copies. country_regions is each country's
    member region ids, sorted; a country without regions has no entry.
    premises[(region, geotype)] is the cell's households plus enterprise
    locations; enterprise_counts is allocate_enterprises' table.
    """

    countries: dict[str, Country]
    regions: dict[str, Region]
    country_regions: dict[str, list[str]]
    profiles: dict[str, GeotypeProfile]
    premises: dict[tuple[str, Geotype], float]
    enterprise_counts: dict[str, dict[str, float]]

    def region_premises(self, region_id: str) -> float:
        return sum(self.premises[(region_id, g)] for g in Geotype)


def build_frame(dataset) -> GeoFrame:
    """Assemble the GeoFrame from a loaded dataset, sharing its regions and
    leaving it as loaded. A cell's premises are the region's households
    and enterprise locations, each times the geotype's population share."""
    regions = dataset.regions
    enterprise_counts = allocate_enterprises(dataset.countries, regions, dataset.enterprises)

    country_regions: dict[str, list[str]] = {}
    profiles = {}
    premises = {}
    for region_id, counts in enterprise_counts.items():
        region = regions[region_id]
        country_regions.setdefault(region.country, []).append(region_id)
        profile = profiles[region_id] = decompose_region(region, dataset.localities.get(region_id))
        locations = sum(counts.values())
        for g, share in profile.population_share.items():
            premises[(region_id, g)] = region.households * share + locations * share
    return GeoFrame(
        countries=dataset.countries,
        regions=regions,
        country_regions=country_regions,
        profiles=profiles,
        premises=premises,
        enterprise_counts=enterprise_counts,
    )
