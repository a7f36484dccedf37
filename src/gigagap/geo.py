"""Socio-geographical reference frame.

Regions are opened up into localities, localities are classified into
five geotypes by degree of urbanisation and population density, and
household / enterprise premises are distributed over the geotypes.
All counts stay real-valued; rounding only happens when reports are
written out.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import DataError

log = logging.getLogger(__name__)

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


class Geotype(ModelEnum):
    """Settlement classes ordered from densest to sparsest."""

    URBAN = "urban"
    SUBURBAN = "suburban"
    SEMI_RURAL = "semi_rural"
    RURAL = "rural"
    EXTREMELY_RURAL = "extremely_rural"

    @property
    def order(self) -> int:
        return _GEOTYPE_ORDER[self]


_GEOTYPE_ORDER = {g: i for i, g in enumerate(Geotype)}

GEOTYPES_DENSEST_FIRST = tuple(Geotype)


class Degurba(ModelEnum):
    """Degree-of-urbanisation class reported for a locality."""

    URBAN = "urban"
    SUBURBAN = "suburban"
    RURAL = "rural"


class FixedTechChoice(ModelEnum):
    """Dominant fixed-network strategy of a country's market."""

    FTTH = "FTTH"
    FTTB_C = "FTTB_C"
    MIXED_URBAN_FTTH = "MIXED_URBAN_FTTH"


# Ordered coverage bands used to compare cable against fibre deployment.
COVERAGE_BAND_ORDER = ("<10", "10-25", "25-50", ">50")


@dataclass
class Locality:
    """LAU2-level settlement with its degree-of-urbanisation label."""

    id: str
    region: str
    population: float
    area_km2: float
    degurba: Degurba

    def __post_init__(self):
        if self.area_km2 <= 0:
            raise DataError(f"locality {self.id}: area must be positive, got {self.area_km2}")
        if self.population < 0:
            raise DataError(f"locality {self.id}: negative population {self.population}")

    @property
    def density(self) -> float:
        return self.population / self.area_km2


@dataclass
class Region:
    """NUTS3 statistical region.

    enterprise_counts is filled in when the frame is built: country
    totals per size class scaled by the region's population share.
    """

    id: str
    country: str
    population: float
    area_km2: float
    households: float
    enterprise_counts: dict[str, float] = field(default_factory=dict)

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

    @property
    def enterprise_locations(self) -> float:
        return sum(self.enterprise_counts.values())


@dataclass
class Country:
    """Country-level attributes shared by all of its regions."""

    code: str
    labour_index: float
    preparedness: "object"  # costs.PreparednessFactor; kept loose to avoid a cycle
    dominant_fixed_tech: FixedTechChoice
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


@dataclass
class GeotypeProfile:
    """Share of a region's population, area and premises per geotype.

    Shares sum to one except for the degenerate zero-population region,
    which keeps all-zero population and premises shares.
    """

    region: str
    population_share: dict[Geotype, float]
    area_share: dict[Geotype, float]
    premises_share: dict[Geotype, float]


@dataclass
class Premises:
    """Connectable premises of one region-geotype cell."""

    households: float
    enterprise_locations: float

    def __post_init__(self):
        if self.households < 0 or self.enterprise_locations < 0:
            raise DataError("premises counts must be non-negative")

    @property
    def total(self) -> float:
        return self.households + self.enterprise_locations


def classify_locality(locality: Locality) -> Geotype:
    """Map a locality to its geotype.

    Urban and suburban follow the degree-of-urbanisation label.  Rural
    localities are split by density: at least 100 inhabitants/km2 is
    semi rural, 10 to 100 rural, below 10 extremely rural.
    """
    if locality.degurba is Degurba.URBAN:
        return Geotype.URBAN
    if locality.degurba is Degurba.SUBURBAN:
        return Geotype.SUBURBAN
    d = locality.density
    if d >= SEMI_RURAL_MIN_DENSITY:
        return Geotype.SEMI_RURAL
    if d >= RURAL_MIN_DENSITY:
        return Geotype.RURAL
    return Geotype.EXTREMELY_RURAL


def decompose_region(region: Region, localities: list[Locality]) -> GeotypeProfile:
    """Aggregate a region's localities into geotype shares.

    Parameters
    ----------
    region : Region
    localities : list of Locality
        Must all belong to the region and be non-empty.

    Returns
    -------
    GeotypeProfile with population, area and premises shares per
    geotype. Premises follow population.
    """
    if not localities:
        raise DataError(f"region {region.id}: no localities to decompose")
    for loc in localities:
        if loc.region != region.id:
            raise DataError(f"locality {loc.id} does not belong to region {region.id}")

    pop = {g: 0.0 for g in Geotype}
    area = {g: 0.0 for g in Geotype}
    for loc in localities:
        g = classify_locality(loc)
        pop[g] += loc.population
        area[g] += loc.area_km2

    total_pop = sum(pop.values())
    total_area = sum(area.values())
    for name, have, want, rel in locality_sum_mismatches(region, total_pop, total_area):
        if rel > LOCALITY_SUM_TOLERANCE:
            raise DataError(
                f"region {region.id}: locality {name} sums to {have:.6g}, "
                f"region total is {want:.6g} (off by {rel:.1%}, "
                f"tolerance {LOCALITY_SUM_TOLERANCE:.0%})"
            )
        log.warning(
            "region %s: locality %s sums to %.6g vs region total %.6g (%.2f%% off)",
            region.id, name, have, want, 100 * rel,
        )

    if total_pop > 0:
        pop_share = {g: pop[g] / total_pop for g in Geotype}
    else:
        pop_share = {g: 0.0 for g in Geotype}
    area_share = {g: area[g] / total_area for g in Geotype}
    return GeotypeProfile(
        region=region.id,
        population_share=pop_share,
        area_share=area_share,
        premises_share=dict(pop_share),
    )


def locality_sum_mismatches(region: Region, loc_pop: float, loc_area: float):
    """(name, localities' sum, region total, relative gap) for population
    and area wherever the two differ by more than rounding."""
    for name, have, want in (("population", loc_pop, region.population),
                             ("area", loc_area, region.area_km2)):
        rel = abs(have - want) / abs(want) if want else 0.0
        if rel > 1e-9:
            yield name, have, want, rel


def distribute_premises(region: Region, profile: GeotypeProfile) -> dict[Geotype, Premises]:
    """Spread a region's households and enterprise locations over its
    geotypes proportionally to population share."""
    locations = region.enterprise_locations
    out = {}
    for g in Geotype:
        share = profile.premises_share[g]
        out[g] = Premises(
            households=region.households * share,
            enterprise_locations=locations * share,
        )
    return out


def allocate_enterprises(countries: dict[str, Country],
                         regions: dict[str, Region],
                         enterprise_counts: dict[tuple[str, str], float]) -> None:
    """Fill each region's enterprise_counts from country totals.

    Each country's per-size-class counts are scaled by the region's
    share of the country population. Mutates the regions in place.
    """
    country_pop = {code: 0.0 for code in countries}
    for region in regions.values():
        country_pop[region.country] += region.population

    for region_id in sorted(regions):
        region = regions[region_id]
        total = country_pop[region.country]
        share = region.population / total if total > 0 else 0.0
        region.enterprise_counts = {
            sc: enterprise_counts.get((region.country, sc), 0.0) * share
            for sc in SIZE_CLASSES
        }


@dataclass
class GeoFrame:
    """Prepared socio-geographical inputs for one dataset.

    Everything downstream (coverage weights, demand quantities) reads
    from here rather than re-deriving shares.
    """

    countries: dict[str, Country]
    regions: dict[str, Region]
    profiles: dict[str, GeotypeProfile]
    premises: dict[tuple[str, Geotype], Premises]
    # selected-enterprise bookkeeping needs per-class counts per cell
    enterprises: dict[tuple[str, Geotype, str], float]

    def region_premises(self, region_id: str) -> float:
        return sum(self.premises[(region_id, g)].total for g in Geotype)

    def country_regions(self, code: str) -> list[str]:
        return sorted(r for r, reg in self.regions.items() if reg.country == code)


def build_frame(dataset) -> GeoFrame:
    """Assemble the GeoFrame from a loaded dataset.

    The frame gets its own copies of the regions, so the dataset is left
    as loaded and can be prepared again."""
    regions = {r: replace(region) for r, region in dataset.regions.items()}
    allocate_enterprises(dataset.countries, regions, dataset.enterprises)

    by_region: dict[str, list[Locality]] = {r: [] for r in regions}
    for loc in dataset.localities:
        by_region[loc.region].append(loc)

    profiles = {}
    premises = {}
    enterprises = {}
    for region_id in sorted(regions):
        region = regions[region_id]
        profile = decompose_region(region, by_region[region_id])
        profiles[region_id] = profile
        for g, prem in distribute_premises(region, profile).items():
            premises[(region_id, g)] = prem
            for sc in SIZE_CLASSES:
                enterprises[(region_id, g, sc)] = (
                    region.enterprise_counts.get(sc, 0.0) * profile.premises_share[g]
                )
    return GeoFrame(
        countries=dataset.countries,
        regions=regions,
        profiles=profiles,
        premises=premises,
        enterprises=enterprises,
    )
