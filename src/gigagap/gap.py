"""Investment gap computation.

Demand items are priced against the existing footprint. Within one
region-geotype cell every technology is assumed to cover the same
premises first (maximum overlap), so footprints nest and each premise
takes the cheapest admissible route: an upgrade of whatever already
passes it, or a new build. Targets are then composed into the overall
programme, expected operator investment is subtracted from the
cheapest units first, and the remainder is the public gap.
"""

from __future__ import annotations

import logging
import math
import statistics
from dataclasses import dataclass, replace

from . import coverage as cov
from . import geo
from . import targets as tg
from .costs import CostAction, CostTable
from .coverage import CapabilityTier, CoverageState, TechClass
from .errors import CostTableError, DataError
from .geo import GeoFrame, Geotype
from .targets import DemandItem, Scenario, Target, Unit

log = logging.getLogger(__name__)

_ACTION_ORDER = {a: i for i, a in enumerate(CostAction)}
_TARGET_ORDER = {t: i for i, t in enumerate(Target)}
_TOTAL_KEYS = {t: t.value.lower() for t in Target}  # T2_URBAN -> "t2_urban"

# Upgrade route offered by each already-deployed technology.
UPGRADE_ROUTES = {
    TechClass.FTTH_100M: CostAction.UPGRADE_FTTH_TO_1G,
    TechClass.FTTB: CostAction.UPGRADE_FTTB_TO_FTTH,
    TechClass.FTTC_ADV_DSL: CostAction.UPGRADE_FTTC_TO_FTTH,
    TechClass.DOCSIS_30: CostAction.UPGRADE_DOCSIS30_TO_31,
}

_GBPS1_TECHS = frozenset({TechClass.FTTH_1G, TechClass.DOCSIS_31})
# Fixed-network routes without the cable upgrade. _item_paths hands this
# and UPGRADE_ROUTES to every item, so neither may be mutated.
_FIXED_ROUTES = {t: a for t, a in UPGRADE_ROUTES.items() if t is not TechClass.DOCSIS_30}


@dataclass
class GapCell:
    """Investment needed for one (target, region, geotype, action)."""

    target: Target
    region: str
    geotype: Geotype
    unit: Unit
    action: CostAction
    quantity: float
    unit_cost_eur: float

    @property
    def investment_eur(self) -> float:
        return self.quantity * self.unit_cost_eur


@dataclass
class RunOptions:
    """Knobs that are not part of the scenario itself."""

    sharing_fraction: float = 0.0
    relax_intervals: float = 0.0
    threads: int = 1  # accepted for compatibility; pricing runs in one thread
    already_covered_road_fraction: float = 0.0
    already_covered_rail_fraction: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.relax_intervals) and self.relax_intervals >= 0):
            raise DataError(f"relax_intervals must be a finite number >= 0, "
                            f"got {self.relax_intervals}")


@dataclass
class OperatorInvestment:
    """Expected commercial investment over the planning horizon."""

    fixed_per_year_eur: float = 10.4e9
    wireless_per_year_eur: float = 22e9
    horizon_years: int = 6
    # Only part of fixed capex goes to new footprint the targets count.
    fixed_effective_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        for name in ("fixed_per_year_eur", "wireless_per_year_eur", "horizon_years"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DataError(f"operator {name} must be a finite number >= 0, got {value}")

    @property
    def fixed_pool_eur(self) -> float:
        return self.fixed_per_year_eur * self.horizon_years * self.fixed_effective_fraction

    @property
    def wireless_pool_eur(self) -> float:
        return self.wireless_per_year_eur * self.horizon_years


@dataclass
class OperatorResult:
    fixed_pool_eur: float
    wireless_pool_eur: float
    fixed_used_eur: float
    wireless_used_eur: float
    residual_gap_eur: float
    residual_by_country_eur: dict[str, float]
    clamped_eur: float = 0.0


@dataclass
class RegionSummary:
    """Per-region context carried along with the cells."""

    region: str
    country: str
    population: float
    households: float
    premises_total: float
    premises_to_cover: float
    cohesion: bool | None = None


@dataclass
class GapReport:
    """Result of one scenario run."""

    scenario: Scenario | None
    scenario_name: str
    vintage: int
    cells: list[GapCell]
    totals: dict[str, float]
    country_totals: dict[str, float]
    geotype_totals: dict[Geotype, float]
    regions: dict[str, RegionSummary]
    operator: OperatorResult | None = None

    @property
    def headline_total_eur(self) -> float:
        if "egs_premises_companies" in self.totals:
            return self.totals["egs_premises_companies"]
        return sum(self.totals.get(k, 0.0)
                   for k in ("t1", "t2_urban", "t2_transport", "t3", "t4"))


def _item_paths(item: DemandItem, country: geo.Country, scenario: Scenario):
    """Satisfying technologies, admissible upgrade routes and the new
    build action (the item's required action) for one demand item."""
    if item.target in (Target.T1, Target.T2_URBAN):
        return frozenset({TechClass.FIVE_G}), {}, item.required_action
    if item.target not in (Target.T3, Target.T4):
        raise DataError(f"no path rules for target {item.target}")

    if item.target is Target.T3 and item.geotype is Geotype.EXTREMELY_RURAL:
        # Enterprises out here need full fibre; cable does not count.
        return frozenset({TechClass.FTTH_1G}), _FIXED_ROUTES, item.required_action
    routes = (UPGRADE_ROUTES if country.cable_dominant and scenario.docsis_upgrade
              else _FIXED_ROUTES)
    if item.target is Target.T4 and item.required_action.wireless:
        # T4 served by 5G here, so existing 5G already meets it
        return _GBPS1_TECHS | {TechClass.FIVE_G}, routes, item.required_action
    return _GBPS1_TECHS, routes, item.required_action


def footprint_partition(state: CoverageState, region: str, geotype: Geotype,
                        satisfying, routes: dict, newbuild: CostAction,
                        table: CostTable, country_code: str):
    """Split the premises of one cell into disjoint action slices.

    Returns (satisfied_fraction, [(fraction, action, unit_cost), ...]).
    Footprints nest from the best-served premises outward, so the
    available routes for a slice are the technologies whose coverage
    reaches at least to its upper edge.
    """
    satisfied = state.footprint_over(region, geotype, satisfying)
    new_cost = table.unit_cost(newbuild, geotype, country_code)

    # Routes reaching past the satisfied footprint; no other can serve a slice.
    entries, adjusted = state.entries, table.adjusted
    reaching = []
    for tech, action in routes.items():
        reach = entries.get((region, geotype, tech), 0.0)
        if reach > satisfied:
            key = (action, geotype, country_code)
            if key not in adjusted:
                raise CostTableError([key])
            reaching.append((reach, adjusted[key], action))

    levels = sorted({min(1.0, reach) for reach, _, _ in reaching} | {1.0})
    slices = []
    prev = satisfied
    for level in levels:
        width = level - prev
        if width > 1e-15:
            best_cost, best_action = new_cost, newbuild
            for reach, c, action in reaching:
                if reach >= level and (c < best_cost or (
                        c == best_cost and _ACTION_ORDER[action] < _ACTION_ORDER[best_action])):
                    best_cost, best_action = c, action
            slices.append((width, best_action, best_cost))
        prev = level
    return satisfied, slices


def gap_for_item(item: DemandItem, state: CoverageState, table: CostTable,
                 frame: GeoFrame, scenario: Scenario,
                 options: RunOptions | None = None) -> list[GapCell]:
    """Price one demand item into zero or more gap cells.

    Transport items are priced per km. Premise items are reduced by the
    footprint that already satisfies the demand and split over the
    cheapest admissible routes.
    """
    options = options or RunOptions()
    country = frame.countries[frame.regions[item.region].country]

    if item.unit in (Unit.KM_ROAD, Unit.KM_RAIL):
        already = (options.already_covered_road_fraction if item.unit is Unit.KM_ROAD
                   else options.already_covered_rail_fraction)
        if not 0.0 <= already <= 1.0:
            raise DataError(f"already-covered fraction {already} outside [0, 1]")
        quantity = item.quantity * (1.0 - already)
        if quantity <= 0:
            return []
        unit_cost = table.unit_cost(item.required_action, None, country.code)
        return [GapCell(item.target, item.region, item.geotype, item.unit,
                        item.required_action, quantity, unit_cost)]

    satisfying, routes, newbuild = _item_paths(item, country, scenario)
    _, slices = footprint_partition(state, item.region, item.geotype,
                                    satisfying, routes, newbuild, table, country.code)
    by_action: dict[CostAction, tuple[float, float]] = {}
    for width, action, unit_cost in slices:
        qty, _ = by_action.get(action, (0.0, unit_cost))
        by_action[action] = (qty + item.quantity * width, unit_cost)
    cells = []
    for action in sorted(by_action, key=lambda a: _ACTION_ORDER[a]):
        quantity, unit_cost = by_action[action]
        if quantity > 0:
            cells.append(GapCell(item.target, item.region, item.geotype, item.unit,
                                 action, quantity, unit_cost))
    return cells


def _cells_for_items(items: list[DemandItem], state: CoverageState, table: CostTable,
                     frame: GeoFrame, scenario: Scenario, options: RunOptions) -> list[GapCell]:
    return [cell for item in items
            for cell in gap_for_item(item, state, table, frame, scenario, options)]


def dedup_t3_over_t4(items: list[DemandItem], scenario: Scenario) -> list[DemandItem]:
    """Remove T3 demand that composing with T4 already builds.

    Where T4 deploys fixed gigabit it passes every premise, so each
    enterprise location keeps one household-equivalent from T4 and T3
    retains only the equivalents beyond one per location. Where T4 goes
    wireless, T3 keeps its full fibre demand.
    """
    out = []
    for item in items:
        if item.target is not Target.T3:
            raise DataError("dedup_t3_over_t4 expects T3 items only")
        if scenario.t4_is_wireless(item.geotype):
            out.append(item)
            continue
        quantity = item.quantity - item.enterprise_locations
        if quantity > 0:
            out.append(replace(item, quantity=quantity))
    return out


def _sorted_cells(cells: list[GapCell]) -> list[GapCell]:
    return sorted(cells, key=lambda c: (
        _TARGET_ORDER[c.target], c.region, c.geotype.order,
        _ACTION_ORDER[c.action], c.unit.value,
    ))


def _total(cells: list[GapCell]) -> float:
    return sum(c.investment_eur for c in cells)


def compose_egs(standalone: dict[Target, list[GapCell]],
                t3_composed: list[GapCell],
                capitals: frozenset[str]) -> tuple[list[GapCell], dict[str, float]]:
    """Assemble the overall programme from per-target cells.

    T1 already covers the urban side of T2 inside capital regions, so
    those T2 cells drop out. The T3 cells passed in must already be
    deduplicated against T4. Every list passed in must be sorted as
    _sorted_cells sorts: the composed list is their concatenation in
    Target order, and each total sums its list in the order given.
    """
    t2_urban_kept = [c for c in standalone[Target.T2_URBAN] if c.region not in capitals]
    composed = (standalone[Target.T1] + t2_urban_kept + standalone[Target.T2_TRANSPORT]
                + t3_composed + standalone[Target.T4])

    totals = {_TOTAL_KEYS[t]: _total(standalone[t]) for t in Target}
    totals["t2_after_t1"] = _total(t2_urban_kept) + totals["t2_transport"]
    totals["t3_composed"] = _total(t3_composed)
    totals["egs_premises"] = totals["t1"] + totals["t2_after_t1"] + totals["t4"]
    totals["egs_premises_companies"] = totals["egs_premises"] + totals["t3_composed"]
    return composed, totals


def _households_total(cells: list[GapCell], regions: dict[str, RegionSummary]) -> float:
    """Composed total with premise cells scaled down to households only.

    T3 cells are excluded (they are the companies part); transport km
    are kept as is."""
    total = 0.0
    for c in cells:
        if c.target is Target.T3:
            continue
        if c.unit is Unit.PREMISES:
            summary = regions[c.region]
            ratio = (summary.households / summary.premises_total
                     if summary.premises_total > 0 else 1.0)
            total += c.investment_eur * ratio
        else:
            total += c.investment_eur
    return total


@dataclass
class PreparedInputs:
    """Scenario-independent pipeline inputs, reusable across runs."""

    frame: GeoFrame
    state: CoverageState
    table: CostTable
    # Read-only, as every report run from these inputs shares it; None: derived per run.
    regions: dict[str, RegionSummary] | None = None


def prepare_inputs(dataset, options: RunOptions | None = None) -> PreparedInputs:
    """Build the frame, coverage state, cost table and region summaries
    for a dataset."""
    from .costs import build_cost_table

    options = options or RunOptions()
    frame = geo.build_frame(dataset)
    state = cov.build_state(dataset, frame, options.relax_intervals)
    table = build_cost_table(dataset.cost_references, frame.countries,
                             dataset.price_index, options.sharing_fraction)
    return PreparedInputs(frame=frame, state=state, table=table,
                          regions=_region_summaries(dataset, frame, state))


_DEFAULT_OPERATOR = OperatorInvestment()


def run_scenario(dataset, scenario: Scenario, options: RunOptions | None = None,
                 scenario_name: str = "custom",
                 operator: OperatorInvestment | None = _DEFAULT_OPERATOR,
                 only_targets: set[Target] | None = None,
                 prepared: PreparedInputs | None = None) -> GapReport:
    """Full pipeline for one scenario: frame, coverage, costs, demands,
    cells, composition and operator subtraction.

    Passing operator=None skips the subtraction entirely and leaves
    report.operator unset."""
    options = options or RunOptions()
    if prepared is None:
        prepared = prepare_inputs(dataset, options)
    frame, state, table = prepared.frame, prepared.state, prepared.table
    demands = tg.build_demands(frame, scenario)

    standalone = {t: _sorted_cells(_cells_for_items(demands[t], state, table, frame,
                                                    scenario, options))
                  for t in Target if only_targets is None or t in only_targets}

    regions = prepared.regions or _region_summaries(dataset, frame, state)

    if only_targets is None:
        t3_composed = _sorted_cells(_cells_for_items(
            dedup_t3_over_t4(demands[Target.T3], scenario),
            state, table, frame, scenario, options))
        capitals = frozenset(c.capital_region for c in frame.countries.values())
        cells, totals = compose_egs(standalone, t3_composed, capitals)
        totals["egs_households"] = _households_total(cells, regions)
    else:
        # standalone is in Target order, so this concatenation is sorted
        cells = [c for target_cells in standalone.values() for c in target_cells]
        totals = {_TOTAL_KEYS[t]: _total(target_cells) for t, target_cells in standalone.items()}

    country_totals = {code: 0.0 for code in sorted(frame.countries)}
    geotype_totals = {g: 0.0 for g in Geotype}
    for c in cells:
        country_totals[frame.regions[c.region].country] += c.investment_eur
        geotype_totals[c.geotype] += c.investment_eur

    report = GapReport(
        scenario=scenario, scenario_name=scenario_name, vintage=dataset.vintage,
        cells=cells, totals=totals, country_totals=country_totals,
        geotype_totals=geotype_totals, regions=regions,
    )
    if operator is None:
        return report
    return subtract_operator_investment(report, operator)


def _region_summaries(dataset, frame: GeoFrame, state: CoverageState) -> dict[str, RegionSummary]:
    out = {}
    for region_id in sorted(frame.regions):
        region = frame.regions[region_id]
        to_cover = 0.0
        total = 0.0
        for g in Geotype:
            premises = frame.premises[(region_id, g)].total
            total += premises
            footprint = cov.effective_footprint(state, region_id, g, CapabilityTier.GBPS_1)
            to_cover += premises * (1.0 - footprint)
        out[region_id] = RegionSummary(
            region=region_id, country=region.country,
            population=region.population, households=region.households,
            premises_total=total, premises_to_cover=to_cover,
            cohesion=dataset.cohesion.get(region_id),
        )
    return out


def subtract_operator_investment(report: GapReport,
                                 operator: OperatorInvestment) -> GapReport:
    """Consume expected operator investment from the cheapest units up.

    Fixed-network capex can only pay for fixed cells, wireless capex
    for 5G cells. The marginal cell is consumed partially and exactly.
    """
    def consume(cells: list[GapCell], pool: float) -> tuple[float, dict[str, float]]:
        order = sorted(cells, key=lambda c: (
            c.unit_cost_eur, c.region, c.geotype.order,
            _TARGET_ORDER[c.target], _ACTION_ORDER[c.action]))
        left = pool
        used_by_region: dict[str, float] = {}
        for cell in order:
            if left <= 0:
                break
            take = min(cell.investment_eur, left)
            used_by_region[cell.region] = used_by_region.get(cell.region, 0.0) + take
            left -= take
        return pool - left, used_by_region

    fixed_cells = [c for c in report.cells if not c.action.wireless]
    wireless_cells = [c for c in report.cells if c.action.wireless]
    fixed_used, fixed_by_region = consume(fixed_cells, operator.fixed_pool_eur)
    wireless_used, wl_by_region = consume(wireless_cells, operator.wireless_pool_eur)

    used_by_country: dict[str, float] = {}
    for by_region in (fixed_by_region, wl_by_region):
        for region_id, amount in by_region.items():
            code = report.regions[region_id].country
            used_by_country[code] = used_by_country.get(code, 0.0) + amount

    clamped = 0.0
    residual_by_country = {}
    for code in sorted(report.country_totals):
        residual = report.country_totals[code] - used_by_country.get(code, 0.0)
        if residual < 0:
            clamped += -residual
            residual = 0.0
        residual_by_country[code] = residual
    if clamped > 0.01:  # float noise from full consumption stays quiet
        log.warning("operator subtraction clamped %.3g EUR of negative residuals", clamped)

    total = sum(c.investment_eur for c in report.cells)
    result = OperatorResult(
        fixed_pool_eur=operator.fixed_pool_eur,
        wireless_pool_eur=operator.wireless_pool_eur,
        fixed_used_eur=fixed_used,
        wireless_used_eur=wireless_used,
        residual_gap_eur=max(0.0, total - fixed_used - wireless_used),
        residual_by_country_eur=residual_by_country,
        clamped_eur=clamped,
    )
    return replace(report, operator=result)


@dataclass
class HistogramBucket:
    low: float
    high: float
    region_count: int
    population_share: float


@dataclass
class HistogramReport:
    buckets: list[HistogramBucket]
    le50_regions: int
    le50_population_share: float
    gt50_regions: int
    gt50_population_share: float


def histogram_gap_shares(report: GapReport) -> HistogramReport:
    """Bucket regions by the share of premises still lacking gigabit
    coverage, in 10% bands, with population shares per bucket."""
    total_pop = sum(r.population for r in report.regions.values())
    counts = [0] * 10
    pops = [0.0] * 10
    le50 = [0, 0.0]
    gt50 = [0, 0.0]
    for region_id in sorted(report.regions):
        summary = report.regions[region_id]
        share = (summary.premises_to_cover / summary.premises_total
                 if summary.premises_total > 0 else 0.0)
        idx = min(9, int(share * 10))
        counts[idx] += 1
        pops[idx] += summary.population
        side = le50 if share <= 0.5 else gt50
        side[0] += 1
        side[1] += summary.population
    buckets = [
        HistogramBucket(i / 10, (i + 1) / 10, counts[i],
                        pops[i] / total_pop if total_pop > 0 else 0.0)
        for i in range(10)
    ]
    return HistogramReport(
        buckets=buckets,
        le50_regions=le50[0],
        le50_population_share=le50[1] / total_pop if total_pop > 0 else 0.0,
        gt50_regions=gt50[0],
        gt50_population_share=gt50[1] / total_pop if total_pop > 0 else 0.0,
    )


class BreakdownDimension:
    GEOTYPE = "geotype"
    URBAN_RURAL = "urban_rural"
    COHESION = "cohesion"
    COUNTRY = "country"
    HOUSEHOLDS_VS_PREMISES = "households_vs_premises"

    ALL = (GEOTYPE, URBAN_RURAL, COHESION, COUNTRY, HOUSEHOLDS_VS_PREMISES)


def breakdown(report: GapReport, dimension: str) -> list[dict]:
    """Split the report's investment along one dimension.

    Returns a list of rows (dicts) with at least category, investment
    and share keys. The geotype dimension adds the premises gap and the
    average investment per premise."""
    total = sum(c.investment_eur for c in report.cells)

    def rows_from(grouper) -> list[dict]:
        inv: dict[str, float] = {}
        for c in report.cells:
            key = grouper(c)
            inv[key] = inv.get(key, 0.0) + c.investment_eur
        return [
            {"category": k, "investment_eur": v,
             "share": v / total if total > 0 else 0.0}
            for k, v in sorted(inv.items())
        ]

    if dimension == BreakdownDimension.GEOTYPE:
        rows = []
        for g in Geotype:
            cells = [c for c in report.cells if c.geotype is g]
            inv = sum(c.investment_eur for c in cells)
            premise_cells = [c for c in cells if c.unit is Unit.PREMISES]
            premises_gap = sum(c.quantity for c in premise_cells)
            premise_inv = sum(c.investment_eur for c in premise_cells)
            rows.append({
                "category": g.value,
                "investment_eur": inv,
                "share": inv / total if total > 0 else 0.0,
                "premises_gap": premises_gap,
                "eur_per_premise": premise_inv / premises_gap if premises_gap > 0 else 0.0,
            })
        return rows
    if dimension == BreakdownDimension.URBAN_RURAL:
        urban = {Geotype.URBAN, Geotype.SUBURBAN}
        return rows_from(lambda c: "urban" if c.geotype in urban else "rural")
    if dimension == BreakdownDimension.COUNTRY:
        return rows_from(lambda c: report.regions[c.region].country)
    if dimension == BreakdownDimension.COHESION:
        for region_id, summary in report.regions.items():
            if summary.cohesion is None:
                raise DataError(f"region {region_id} has no cohesion flag")
        return rows_from(lambda c: "cohesion" if report.regions[c.region].cohesion
                         else "non_cohesion")
    if dimension == BreakdownDimension.HOUSEHOLDS_VS_PREMISES:
        households = _households_total(report.cells, report.regions)
        premises = sum(c.investment_eur for c in report.cells if c.target is not Target.T3)
        everything = total
        return [
            {"category": "households", "investment_eur": households,
             "share": households / everything if everything > 0 else 0.0},
            {"category": "premises", "investment_eur": premises,
             "share": premises / everything if everything > 0 else 0.0},
            {"category": "premises_and_companies", "investment_eur": everything,
             "share": 1.0 if everything > 0 else 0.0},
        ]
    raise DataError(f"unknown breakdown dimension {dimension!r}")


@dataclass
class EvolutionReport:
    """Trend between two report vintages."""

    scenario_name: str
    points: list[tuple[int, float]]
    target_deltas_eur: dict[str, float]
    total_delta_eur: float
    slope_eur_per_year: float
    extrapolated_2025_eur: float
    zero_crossing_year: int | None
    countries_grown: dict[str, float]


def compare_vintages(report_a: GapReport, report_b: GapReport) -> EvolutionReport:
    """Fit the total gap over the two vintages and extrapolate.

    The fit is an ordinary least-squares line through (vintage, total)
    points; with two vintages that is the exact secant."""
    if report_a.vintage == report_b.vintage:
        raise DataError(f"both reports have vintage {report_a.vintage}; nothing to compare")
    if report_a.scenario is not None and report_b.scenario is not None \
            and report_a.scenario != report_b.scenario:
        raise DataError("reports were run under different scenarios")
    older, newer = sorted((report_a, report_b), key=lambda r: r.vintage)

    deltas = {}
    for key in sorted(set(older.totals) & set(newer.totals)):
        deltas[key] = newer.totals[key] - older.totals[key]
    points = [(older.vintage, older.headline_total_eur),
              (newer.vintage, newer.headline_total_eur)]
    fit = statistics.linear_regression([p[0] for p in points], [p[1] for p in points])
    crossing = None
    if fit.slope < 0:
        crossing = round(-fit.intercept / fit.slope)
    grown = {}
    for code in sorted(set(older.country_totals) & set(newer.country_totals)):
        delta = newer.country_totals[code] - older.country_totals[code]
        if delta > 0:
            grown[code] = delta
    return EvolutionReport(
        scenario_name=newer.scenario_name,
        points=points,
        target_deltas_eur=deltas,
        total_delta_eur=points[1][1] - points[0][1],
        slope_eur_per_year=fit.slope,
        extrapolated_2025_eur=fit.intercept + fit.slope * 2025,
        zero_crossing_year=crossing,
        countries_grown=grown,
    )
