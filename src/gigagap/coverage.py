"""Broadband coverage handling.

National operator statistics only pin regional coverage to interval
bands. A single scalar k per country and technology turns the bands
into point estimates: each region gets clamp(k * density, band), with
k solved exactly, by one scan over the breakpoints of the clamps, so
that the premises-weighted mean over the country matches the national
figure. Region values are then spread over geotypes densest-first.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from .errors import DataError, InfeasibleCoverageError
from .geo import GEOTYPES_DENSEST_FIRST, GeoFrame, Geotype, ModelEnum

log = logging.getLogger(__name__)

# Premises-weighted mean must reproduce the national figure this well.
RECONCILE_TOLERANCE = 1e-4

# Interval bands published with the coverage statistics.
PUBLISHED_BANDS = ((0.0, 0.35), (0.35, 0.65), (0.65, 0.95), (0.95, 1.0), (1.0, 1.0))


class TechClass(ModelEnum):
    """Access technologies tracked in the coverage data.

    FTTH_1G outranks FTTH_100M and DOCSIS_31 outranks DOCSIS_30 in
    delivered speed; the remaining classes are incomparable.
    """

    FTTH_100M = "FTTH_100M"
    FTTH_1G = "FTTH_1G"
    FTTB = "FTTB"
    FTTC_ADV_DSL = "FTTC_ADV_DSL"
    DOCSIS_30 = "DOCSIS_30"
    DOCSIS_31 = "DOCSIS_31"
    LTE = "LTE"
    FIVE_G = "FIVE_G"


@dataclass(slots=True)
class CoverageInterval:
    """Band constraint on one region's coverage for one technology."""

    region: str
    technology: TechClass
    low: float
    high: float
    vintage: int

    def __post_init__(self):
        if not (0.0 <= self.low <= 1.0 and 0.0 <= self.high <= 1.0):
            raise DataError(
                f"coverage interval {self.region}/{self.technology.value}: "
                f"bounds must lie in [0, 1]"
            )
        if self.low > self.high:
            raise DataError(
                f"coverage interval {self.region}/{self.technology.value}: "
                f"low {self.low} exceeds high {self.high}"
            )

    def widened(self, eps: float) -> "CoverageInterval":
        return CoverageInterval(
            region=self.region, technology=self.technology,
            low=max(0.0, self.low - eps), high=min(1.0, self.high + eps),
            vintage=self.vintage,
        )


@dataclass(slots=True)
class NationalFigure:
    """Country-level coverage share for one technology."""

    country: str
    technology: TechClass
    coverage: float
    vintage: int

    def __post_init__(self):
        if not 0.0 <= self.coverage <= 1.0:
            raise DataError(
                f"national coverage {self.country}/{self.technology.value}: "
                f"{self.coverage} outside [0, 1]"
            )


@dataclass
class CoverageState:
    """Point coverage per (region, geotype, technology)."""

    vintage: int
    entries: dict[tuple[str, Geotype, TechClass], float] = field(default_factory=dict)

    def get(self, region: str, geotype: Geotype, tech: TechClass) -> float:
        return self.entries.get((region, geotype, tech), 0.0)

    def footprint_over(self, region: str, geotype: Geotype, techs) -> float:
        """Best coverage over a set of technologies (0 when none present)."""
        entries = self.entries
        return max((entries.get((region, geotype, t), 0.0) for t in techs), default=0.0)


def disaggregate_regions(intervals: dict[str, CoverageInterval],
                         national: float,
                         densities: dict[str, float],
                         weights: dict[str, float]) -> dict[str, float]:
    """Turn interval-banded regional coverage into point estimates.

    m(k), the weighted mean of clamp(k * density, band), is piecewise
    linear and non-decreasing in k. One sorted scan over its breakpoints
    finds the smallest k with m(k) = national: 0 when national <= m(0),
    infinite (positive-density regions at their high edge, the rest at
    their low edge) when national >= m(inf).

    Parameters
    ----------
    intervals : region id -> CoverageInterval for one (country, technology)
    national : national coverage share to reconcile against
    densities : region id -> population density
    weights : region id -> premises count (weighting of the mean)

    Returns
    -------
    dict region id -> coverage in [0, 1], clamped to its band, with the
    premises-weighted mean matching the national figure.

    Raises
    ------
    InfeasibleCoverageError if no scalar k can reconcile the bands with
    the national figure.
    """
    regions = sorted(intervals)
    total_w = sum(weights[r] for r in regions)
    if not total_w > 0:
        raise DataError("cannot disaggregate coverage: total premises weight is zero")

    low_sum = sum(weights[r] * intervals[r].low for r in regions)
    high_sum = sum(weights[r] * (intervals[r].high if densities[r] > 0 else intervals[r].low)
                   for r in regions)
    infeasible = InfeasibleCoverageError(
        country="?", technology="?", national=national,
        feasible_low=low_sum / total_w, feasible_high=high_sum / total_w,
    )
    if not (infeasible.feasible_low - RECONCILE_TOLERANCE <= national
            <= infeasible.feasible_high + RECONCILE_TOLERANCE):
        raise infeasible

    target = national * total_w
    k = 0.0 if target <= low_sum else math.inf
    if low_sum < target < high_sum:
        breakpoints = []  # (k, slope change, regions entering or leaving)
        for r in regions:
            iv, d, grow = intervals[r], densities[r], weights[r] * densities[r]
            if grow > 0 and iv.low < iv.high:
                breakpoints.append((iv.low / d, grow, 1))
                breakpoints.append((iv.high / d, -grow, -1))
        breakpoints.sort()
        level, slope, inside, at = low_sum, 0.0, 0, 0.0
        for bk, dslope, dinside in breakpoints:
            reach = level + slope * (bk - at)
            if reach >= target:  # level < target, so slope > 0
                k = min(bk, at + (target - level) / slope)
                break
            level, at, inside = reach, bk, inside + dinside
            # a stretch with every region pinned is exactly flat
            slope = slope + dslope if inside else 0.0

    values = {r: (min(intervals[r].high, max(intervals[r].low, k * densities[r]))
                  if densities[r] > 0 else intervals[r].low) for r in regions}
    got = sum(weights[r] * values[r] for r in regions) / total_w
    if abs(got - national) > RECONCILE_TOLERANCE:
        raise infeasible
    return values


def spread_over_geotypes(region_coverage: float,
                         shares: dict[Geotype, float]) -> dict[Geotype, float]:
    """Spread a region-level coverage share over geotypes, filling the
    densest geotype first (market deployments saturate cities before
    moving outward).

    shares are the geotypes' shares of the region's premises; the
    mean of the per-geotype values weighted by them reproduces the
    region figure.
    """
    if not 0.0 <= region_coverage <= 1.0 + 1e-12:
        raise DataError(f"region coverage {region_coverage} outside [0, 1]")
    region_coverage = min(region_coverage, 1.0)
    out = {}
    cum = 0.0
    for g in GEOTYPES_DENSEST_FIRST:
        share = shares.get(g, 0.0)
        if share > 0:
            out[g] = min(1.0, max(0.0, (region_coverage - cum) / share))
        else:
            # empty geotype: inside the filled prefix counts as covered
            out[g] = 1.0 if region_coverage > 0 and region_coverage >= cum - 1e-12 else 0.0
        cum += share
    return out


def build_state(dataset, frame: GeoFrame, relax_intervals: float = 0.0) -> CoverageState:
    """Disaggregate every (country, technology) present in the dataset
    and spread the results over geotypes.

    Technologies absent from the input carry zero coverage; in the 2019
    baseline data that is the norm for 5G.
    """
    state = CoverageState(vintage=dataset.vintage)

    by_pair: dict[tuple[str, TechClass], dict[str, CoverageInterval]] = {}
    for iv in dataset.coverage_intervals:
        country = frame.regions[iv.region].country
        pair = by_pair.setdefault((country, iv.technology), {})
        pair[iv.region] = iv.widened(relax_intervals) if relax_intervals > 0 else iv

    national = {(nf.country, nf.technology): nf for nf in dataset.coverage_national}

    # Per-region inputs do not depend on the technology: derive them once.
    densities = {r: region.density for r, region in frame.regions.items()}
    weights = {r: frame.region_premises(r) for r in frame.regions}

    for (country, tech) in sorted(by_pair, key=lambda p: (p[0], p[1].value)):
        intervals = by_pair[(country, tech)]
        missing = [r for r in frame.country_regions[country] if r not in intervals]
        if missing:
            raise DataError(
                f"coverage intervals for {country}/{tech.value} missing regions: "
                + ", ".join(missing)
            )
        figure = national.get((country, tech))
        if figure is None:
            raise DataError(f"no national coverage figure for {country}/{tech.value}")
        try:
            points = disaggregate_regions(intervals, figure.coverage, densities, weights)
        except InfeasibleCoverageError as err:
            raise InfeasibleCoverageError(
                country=country, technology=tech.value, national=figure.coverage,
                feasible_low=err.feasible_low, feasible_high=err.feasible_high,
            ) from None
        for region_id in sorted(points):
            share = frame.profiles[region_id].population_share
            for g, value in spread_over_geotypes(points[region_id], share).items():
                state.entries[(region_id, g, tech)] = value
    return state
