"""Random but valid synthetic datasets for property tests.

Coverage figures are feasible by construction: the national value is
drawn from the interior of the premises-weighted hull of the regional
bands, which the reconciliation can always reach. Enterprise counts
keep a realistic small-company-dominated mix and a large base, so the
capped scenario always selects a proper subset.
"""

import csv
import random
from enum import Enum
from pathlib import Path

from gigagap.coverage import PUBLISHED_BANDS, CoverageInterval, NationalFigure, TechClass
from gigagap.costs import PreparednessFactor
from gigagap.dataio import Dataset, default_cost_references, default_price_index
from gigagap.geo import (
    COVERAGE_BAND_ORDER,
    SIZE_CLASSES,
    Country,
    Degurba,
    FixedTechChoice,
    Geotype,
    LocalitySums,
    Region,
    classify,
)

VINTAGE = 2019
_CLASS_SHARES = (0.90, 0.05, 0.03, 0.015, 0.005)
_PREP_STEPS = (-0.10, 0.0, 0.10)


def _localities(rng: random.Random) -> LocalitySums:
    out = LocalitySums()
    for _ in range(rng.randint(3, 6)):
        kind = rng.random()
        if kind < 0.3:
            degurba, density = Degurba.URBAN, 10 ** rng.uniform(2.8, 3.8)
        elif kind < 0.6:
            degurba, density = Degurba.SUBURBAN, 10 ** rng.uniform(2.0, 3.0)
        else:
            degurba, density = Degurba.RURAL, 10 ** rng.uniform(0.3, 2.5)
        population = rng.uniform(2_000, 400_000)
        area = population / density
        out.add(population, area, classify(degurba, population / area))
    return out


def random_dataset(seed: int, n_countries: int = 3) -> Dataset:
    rng = random.Random(seed)
    countries: dict[str, Country] = {}
    regions: dict[str, Region] = {}
    localities: dict[str, LocalitySums] = {}
    enterprises: dict[tuple[str, str], float] = {}

    total_enterprises = rng.uniform(4.2e6, 8.0e6)
    country_weights = [rng.uniform(0.5, 1.5) for _ in range(n_countries)]
    weight_sum = sum(country_weights)

    for ci in range(n_countries):
        code = f"X{chr(ord('A') + ci)}"
        member_ids = []
        for ri in range(rng.randint(2, 4)):
            rid = f"{code}{ri:03d}"
            sums = localities[rid] = _localities(rng)
            population = sums.population
            regions[rid] = Region(id=rid, country=code, population=population,
                                  area_km2=sums.area_km2,
                                  households=population * rng.uniform(0.38, 0.50))
            member_ids.append(rid)

        countries[code] = Country(
            code=code,
            labour_index=rng.uniform(0.7, 1.4),
            preparedness=PreparednessFactor(
                country=code,
                geographic=rng.choice(_PREP_STEPS),
                housing=rng.choice(_PREP_STEPS),
                regulation=rng.choice(_PREP_STEPS),
            ),
            dominant_fixed_tech=rng.choice(list(FixedTechChoice)),
            road_km=rng.uniform(0, 15_000),
            rail_km=rng.choice([0.0, rng.uniform(0, 40_000)]),
            capital_region=member_ids[0],
            docsis_band=rng.choice(COVERAGE_BAND_ORDER),
            fttp_band=rng.choice(COVERAGE_BAND_ORDER),
        )

        country_total = total_enterprises * country_weights[ci] / weight_sum
        shares = [s * rng.uniform(0.8, 1.2) for s in _CLASS_SHARES]
        norm = sum(shares)
        for sc, share in zip(SIZE_CLASSES, shares):
            enterprises[(code, sc)] = country_total * share / norm

    intervals, national = _feasible_coverage(rng, countries, regions, enterprises)
    return Dataset(
        path=None,
        vintage=VINTAGE,
        countries=countries,
        regions=regions,
        localities=localities,
        enterprises=enterprises,
        coverage_intervals=intervals,
        coverage_national=national,
        cost_references=default_cost_references(),
        price_index=default_price_index(),
        cohesion={rid: rng.random() < 0.4 for rid in regions},
    )


def _feasible_coverage(rng, countries, regions, enterprises):
    """Bands per region plus a national figure inside the weighted hull."""
    country_pop = {c: 0.0 for c in countries}
    for r in regions.values():
        country_pop[r.country] += r.population

    def weight(r: Region) -> float:
        locations = sum(enterprises[(r.country, sc)] for sc in SIZE_CLASSES)
        return r.households + locations * r.population / country_pop[r.country]

    intervals = []
    national = []
    for code in countries:
        member = [r for r in regions.values() if r.country == code]
        for tech in TechClass:
            hull_lo = hull_hi = 0.0
            total_w = 0.0
            for r in member:
                low, high = rng.choice(PUBLISHED_BANDS[:-1])
                intervals.append(CoverageInterval(region=r.id, technology=tech,
                                                  low=low, high=high, vintage=VINTAGE))
                w = weight(r)
                hull_lo += w * low
                hull_hi += w * high
                total_w += w
            hull_lo /= total_w
            hull_hi /= total_w
            figure = hull_lo + rng.uniform(0.05, 0.95) * (hull_hi - hull_lo)
            national.append(NationalFigure(country=code, technology=tech,
                                           coverage=figure, vintage=VINTAGE))
    return intervals, national


# The degurba label written for a geotype's summed localities.
_LABELS = {Geotype.URBAN: "urban", Geotype.SUBURBAN: "suburban"}


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    return "" if value is None else str(value)


def write_dataset(ds: Dataset, path) -> None:
    """Write a dataset as its nine CSV files, floats as repr.

    Each region gets one locality row per non-empty geotype, holding that
    geotype's summed population and area. The sums keep their class: a
    class's joint density lies inside its members' density band."""
    localities = [(f"{rid}_{g.value}", rid, sums.geotype_population[g], sums.geotype_area[g],
                   _LABELS.get(g, "rural"))
                  for rid, sums in ds.localities.items() for g in Geotype
                  if sums.geotype_area[g] > 0]
    tables = {
        "regions.csv": (("id", "country", "population", "area_km2", "households"),
                        [(r.id, r.country, r.population, r.area_km2, r.households)
                         for r in ds.regions.values()]),
        "localities.csv": (("id", "region", "population", "area_km2", "degurba"), localities),
        "countries.csv": (
            ("code", "labour_index", "prep_geo", "prep_housing", "prep_regulation",
             "dominant_fixed_tech", "road_km", "rail_km", "capital_region", "docsis_band",
             "fttp_band"),
            [(c.code, c.labour_index, c.preparedness.geographic, c.preparedness.housing,
              c.preparedness.regulation, c.dominant_fixed_tech, c.road_km, c.rail_km,
              c.capital_region, c.docsis_band, c.fttp_band) for c in ds.countries.values()]),
        "enterprises.csv": (("country", "size_class", "count"),
                            [(code, sc, n) for (code, sc), n in ds.enterprises.items()]),
        "coverage_intervals.csv": (
            ("region", "technology", "band_low", "band_high", "vintage"),
            [(iv.region, iv.technology, iv.low, iv.high, iv.vintage)
             for iv in ds.coverage_intervals]),
        "coverage_national.csv": (
            ("country", "technology", "coverage", "vintage"),
            [(nf.country, nf.technology, nf.coverage, nf.vintage)
             for nf in ds.coverage_national]),
        "cost_references.csv": (
            ("action", "geotype", "granularity", "value_eur", "price_year", "source_id"),
            [(r.action, r.geotype, r.granularity, r.value_eur, r.price_year, r.source)
             for r in ds.cost_references]),
        "price_index.csv": (("year", "multiplier"), list(ds.price_index.items())),
        "cohesion.csv": (("region", "is_cohesion"), list(ds.cohesion.items())),
    }
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        with open(path / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_text(v) for v in row] for row in rows)
