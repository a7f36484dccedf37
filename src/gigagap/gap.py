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
from array import array
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field, replace
from functools import partial
from operator import attrgetter

from . import coverage as cov
from . import geo
from . import targets as tg
from .costs import _WIRELESS_ACTIONS, CostAction, CostTable, check_sharing
from .coverage import CoverageState, TechClass
from .errors import CostTableError, DataError
from .geo import _GEOTYPE_ORDER, GEOTYPES_DENSEST_FIRST, GeoFrame, Geotype
from .targets import (_EXTREMELY_RURAL, _PREMISES, _T1, _T2_TRANSPORT, _T2_URBAN, _T3, _T4,
                      DemandItem, Scenario, Target, Unit)

log = logging.getLogger(__name__)

_ACTION_ORDER = {a: i for i, a in enumerate(CostAction)}
_TARGET_ORDER = {t: i for i, t in enumerate(Target)}
_TOTAL_KEYS = {t: t.value.lower() for t in Target}  # T2_URBAN -> "t2_urban"

# A CellTable's codes index these. Unit codes follow the units' values,
# which order a report's cells.
_TARGETS, _ACTIONS = tuple(Target), tuple(CostAction)
_UNITS_BY_CODE = tuple(sorted(Unit, key=attrgetter("value")))
_UNIT_ORDER = {u: i for i, u in enumerate(_UNITS_BY_CODE)}

# Upgrade route offered by each already-deployed technology.
UPGRADE_ROUTES = {
    TechClass.FTTH_100M: CostAction.UPGRADE_FTTH_TO_1G,
    TechClass.FTTB: CostAction.UPGRADE_FTTB_TO_FTTH,
    TechClass.FTTC_ADV_DSL: CostAction.UPGRADE_FTTC_TO_FTTH,
    TechClass.DOCSIS_30: CostAction.UPGRADE_DOCSIS30_TO_31,
}

# Fixed-network routes without the cable upgrade.
_FIXED_ROUTES = {t: a for t, a in UPGRADE_ROUTES.items() if t is not TechClass.DOCSIS_30}
_NO_ROUTES: dict = {}

# Technologies that already satisfy an item. _item_paths returns only
# these constants and the three route dicts above, which it hands to
# every item, so none of them may be mutated.
_FIVE_G_ONLY = frozenset({TechClass.FIVE_G})
_FTTH_1G_ONLY = frozenset({TechClass.FTTH_1G})
_GIGABIT = frozenset({TechClass.FTTH_1G, TechClass.DOCSIS_31})
_GIGABIT_OR_5G = _GIGABIT | _FIVE_G_ONLY


@dataclass(slots=True)
class GapCell:
    """Investment needed for one (target, region, geotype, action).

    Read-only once built: a PreparedInputs holds one cell per row of its
    CellTable, and every stage and report run from it that has the row
    shares that cell."""

    target: Target
    region: str
    geotype: Geotype
    unit: Unit
    action: CostAction
    quantity: float
    unit_cost_eur: float
    investment_eur: float = field(init=False)

    def __post_init__(self):
        self.investment_eur = self.quantity * self.unit_cost_eur


@dataclass
class RunOptions:
    """What prepare_inputs reads besides the dataset: the knobs that are
    not part of the scenario itself."""

    sharing_fraction: float = 0.0
    relax_intervals: float = 0.0

    def __post_init__(self):
        check_sharing(self.sharing_fraction)
        if not (math.isfinite(self.relax_intervals) and self.relax_intervals >= 0):
            raise DataError(f"relax_intervals must be a finite number >= 0, "
                            f"got {self.relax_intervals}")


# Only part of fixed capex goes to new footprint the targets count.
FIXED_EFFECTIVE_FRACTION = 2.0 / 3.0


@dataclass
class OperatorInvestment:
    """Expected commercial investment over the planning horizon."""

    fixed_per_year_eur: float = 10.4e9
    wireless_per_year_eur: float = 22e9
    horizon_years: int = 6

    def __post_init__(self):
        for name in ("fixed_per_year_eur", "wireless_per_year_eur", "horizon_years"):
            value = getattr(self, name)
            if not value >= 0:  # NaN fails too; pools catch the infinities
                raise DataError(f"operator {name} must be a finite number >= 0, got {value}")
        for name in ("fixed_pool_eur", "wireless_pool_eur"):
            try:
                pool = getattr(self, name)
            except OverflowError:  # an int horizon_years beyond the float range
                pool = math.inf
            if not math.isfinite(pool):
                raise DataError(f"operator {name} (yearly figure times horizon_years) "
                                f"must be a finite number, got {pool}")

    @property
    def fixed_pool_eur(self) -> float:
        return self.fixed_per_year_eur * self.horizon_years * FIXED_EFFECTIVE_FRACTION

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


@dataclass(frozen=True)
class GroupFigures:
    """What a run's breakdowns show besides its geotype totals, summed by
    _derive in the same pass: per other breakdown dimension, each category
    that has a row and its investment (a country's is its country total);
    per geotype, premises quantity and premise investment; the run total.
    Every report of one run key shares it."""

    total: float
    categories: dict[str, dict[str, float]]
    premises_gap: dict[Geotype, float]
    premise_investment: dict[Geotype, float]


@dataclass
class GapReport:
    """Result of one scenario run. groups: set by run_scenario; None on a
    report built by hand or read back from a summary."""

    scenario: Scenario | None
    scenario_name: str
    vintage: int
    cells: list[GapCell]
    totals: dict[str, float]
    country_totals: dict[str, float]
    geotype_totals: dict[Geotype, float]
    regions: dict[str, RegionSummary]
    operator: OperatorResult | None = None
    groups: GroupFigures | None = None

    @property
    def headline_total_eur(self) -> float:
        if "egs_premises_companies" in self.totals:
            return self.totals["egs_premises_companies"]
        return sum(self.totals.get(k, 0.0)
                   for k in ("t1", "t2_urban", "t2_transport", "t3", "t4"))


def _item_paths(item: DemandItem, country: geo.Country, scenario: Scenario):
    """Satisfying technologies, admissible upgrade routes and the new
    build action (the item's required action) for one demand item.
    The first two are always module constants."""
    target = item.target
    if target is _T1 or target is _T2_URBAN:
        return _FIVE_G_ONLY, _NO_ROUTES, item.required_action
    if target is not _T3 and target is not _T4:
        raise DataError(f"no path rules for target {target}")

    if target is _T3 and item.geotype is _EXTREMELY_RURAL:
        # Enterprises out here need full fibre; cable does not count.
        return _FTTH_1G_ONLY, _FIXED_ROUTES, item.required_action
    routes = (UPGRADE_ROUTES if country.cable_dominant and scenario.docsis_upgrade
              else _FIXED_ROUTES)
    if target is _T4 and item.required_action in _WIRELESS_ACTIONS:
        # T4 served by 5G here, so existing 5G already meets it
        return _GIGABIT_OR_5G, routes, item.required_action
    return _GIGABIT, routes, item.required_action


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


def cost_ranking(table: CostTable) -> tuple[tuple, dict]:
    """Hashable weak order of every adjusted unit cost in the table, across
    actions, geotypes (None: per km) and countries, ties marked; and each
    cost key's position in that order, from the same sort.

    Costs are compared only through < and ==: by footprint_partition
    within one (geotype, country), and by _netting_order across all the
    cells of a run. So under two tables with the same ranking, the same
    cells get the same slices and the same netting order, and the
    positions (which the ranking determines) index the same cost keys."""
    ranked = sorted((cost, _ACTION_ORDER[key[0]], _GEOTYPE_ORDER.get(key[1], -1), key[2], key)
                    for key, cost in table.adjusted.items())
    ranking = tuple((entry[1:4], i > 0 and entry[0] == ranked[i - 1][0])
                    for i, entry in enumerate(ranked))
    return ranking, {entry[4]: i for i, entry in enumerate(ranked)}


def gap_for_item(item: DemandItem, state: CoverageState, table: CostTable,
                 frame: GeoFrame, scenario: Scenario,
                 partitions: dict | None = None) -> list[GapCell]:
    """Price one premise demand item into zero or more gap cells.

    The item is reduced by the footprint that already satisfies the
    demand and split over the cheapest admissible routes. That split
    depends only on the cell, its route rule, the state and the table, so
    it is kept in `partitions`, which _price creates for one pricing call
    and hands to every item it prices; with None it is computed for this
    item alone. Per-km transport items have no split: _price prices them.
    """
    country = frame.countries[frame.regions[item.region].country]
    satisfying, routes, newbuild = _item_paths(item, country, scenario)
    # _item_paths returns constants, and only the five-G-only rule has no
    # routes, so "routes is UPGRADE_ROUTES" tells the three route dicts apart.
    key = (item.region, item.geotype, satisfying, routes is UPGRADE_ROUTES, newbuild)
    if partitions is None:
        partitions = {}
    priced = partitions.get(key)
    if priced is None:
        _, slices = footprint_partition(state, item.region, item.geotype,
                                        satisfying, routes, newbuild, table, country.code)
        by_action: dict[CostAction, tuple[tuple[float, ...], float]] = {}
        for width, action, unit_cost in slices:
            widths, _ = by_action.get(action, ((), unit_cost))
            by_action[action] = (widths + (width,), unit_cost)
        # A tuple, not a list: most cells are fully satisfied, and they all
        # share the empty tuple.
        priced = partitions[key] = tuple(
            (action, unit_cost, widths)
            for action, (widths, unit_cost) in sorted(
                by_action.items(), key=lambda kv: _ACTION_ORDER[kv[0]]))

    cells = []
    for action, unit_cost, widths in priced:
        quantity = 0.0  # summed slice by slice, in slice order
        for width in widths:
            quantity += item.quantity * width
        if quantity > 0:
            cells.append(GapCell(item.target, item.region, item.geotype, item.unit,
                                 action, quantity, unit_cost))
    return cells


def dedup_t3_over_t4(items: list[DemandItem], scenario: Scenario) -> list[DemandItem]:
    """Remove T3 demand that composing with T4 already builds.

    Where T4 deploys fixed gigabit it passes every premise, so each
    enterprise location keeps one household-equivalent from T4 and T3
    retains only the equivalents beyond one per location. Where T4 goes
    wireless, T3 keeps its full fibre demand.
    """
    out = []
    for item in items:
        if item.target is not _T3:
            raise DataError("dedup_t3_over_t4 expects T3 items only")
        if scenario.t4_is_wireless(item.geotype):
            out.append(item)
            continue
        quantity = item.quantity - item.enterprise_locations
        if quantity > 0:
            out.append(DemandItem(item.target, item.region, item.geotype, item.unit,
                                  quantity, item.required_action, item.enterprise_locations))
    return out


# The pricing stage of the composed T3 list: T3 net of T4 (dedup_t3_over_t4).
T3_COMPOSED = "t3_composed"

# Pricing stage -> the Scenario fields that its rows read, besides
# the PreparedInputs. Its key in CellTable.stages is the stage and these
# fields' values: a field missing here would hand one scenario the cells of
# another.
PRICED_KEYS = {
    _T1: ("t1_quality",),
    _T2_URBAN: ("t2_quality",),
    _T2_TRANSPORT: ("t2_quality",),
    _T3: ("t3_tier", "docsis_upgrade"),
    _T4: ("t4_wireless", "docsis_upgrade"),
    T3_COMPOSED: ("t3_tier", "t4_wireless", "docsis_upgrade"),
}


@dataclass(eq=False)
class CellTable:
    """The distinct cells priced under one cost_ranking, as columns.

    One row per distinct cell (target, region, geotype, unit, action,
    quantity; its cost key follows from action, geotype and the region's
    country), appended as first priced and never changed. A row keeps
    small-int codes for the five identity fields, its quantity as the
    float first priced, its cost key's position in the ranking (positions,
    from cost_ranking), and its identity code. Region codes follow sorted
    region ids, unit codes the units' values and the others their enums'
    order, so identity codes (see _price) sort as a report's cells:
    target, region, geotype, action, unit.

    stages: PRICED_KEYS stage key -> its rows in that order. runs: ("run",
    a run's stage keys) -> its composed rows, then the indices into them
    of its fixed and of its wireless cells in netting order. Every
    PreparedInputs whose table ranks alike prices the rows at its own
    costs with one gather (_gather). countries, country_order (an index
    into the sorted country codes), cohesive (into _COHESION) and
    households_ratio: each region code's country and what _derive groups
    its rows by, from regions, the frame's RegionSummary per region id.
    """

    positions: dict
    frame: InitVar[GeoFrame]
    regions: InitVar[dict[str, RegionSummary]]
    region_ids: list[str] = field(init=False)
    region_codes: dict[str, int] = field(init=False)
    countries: list[str] = field(init=False)
    country_order: list[int] = field(init=False)
    cohesive: list[int] = field(init=False)
    households_ratio: list[float] = field(init=False)
    target: array = field(default_factory=partial(array, "B"))
    region: array = field(default_factory=partial(array, "I"))
    geotype: array = field(default_factory=partial(array, "B"))
    unit: array = field(default_factory=partial(array, "B"))
    action: array = field(default_factory=partial(array, "B"))
    quantity: list[float] = field(default_factory=list)
    rank: array = field(default_factory=partial(array, "I"))
    identity: array = field(default_factory=partial(array, "Q"))
    stages: dict = field(default_factory=dict)
    runs: dict = field(default_factory=dict)

    def __post_init__(self, frame: GeoFrame, regions: dict[str, RegionSummary]):
        self.region_ids = sorted(frame.regions)
        self.region_codes = {region: i for i, region in enumerate(self.region_ids)}
        summaries = [regions[region] for region in self.region_ids]
        self.countries = [s.country for s in summaries]
        order = {code: i for i, code in enumerate(sorted(frame.countries))}
        self.country_order = [order[code] for code in self.countries]
        self.cohesive = [int(bool(s.cohesion)) for s in summaries]
        self.households_ratio = [s.households / s.premises_total if s.premises_total > 0
                                 else 1.0 for s in summaries]


def _gather(prepared: PreparedInputs, table: CellTable, stage_rows: dict) -> None:
    """Give prepared a cell for each row of stage_rows (stage -> rows) that
    it holds none for, at prepared.table's costs: its costs in ranking
    order, gathered by each row's position, then one GapCell per row, whose
    investment is the row's entry in the investment column. Rows of stages
    that prepared never runs keep None."""
    cells, investment = prepared.cells, prepared.investment
    rows = sorted({row for rows in stage_rows.values() for row in rows if cells[row] is None})
    if not rows:
        return
    # Runs made in the order that first priced them gather one span of
    # rows each, which slices read fastest.
    lo, hi = rows[0], rows[-1] + 1
    span = hi - lo == len(rows)

    def column(values):
        return values[lo:hi] if span else map(values.__getitem__, rows)

    costs = list(map(prepared.table.adjusted.__getitem__, table.positions))
    for row, cell in zip(rows, map(
            GapCell, map(_TARGETS.__getitem__, column(table.target)),
            map(table.region_ids.__getitem__, column(table.region)),
            map(GEOTYPES_DENSEST_FIRST.__getitem__, column(table.geotype)),
            map(_UNITS_BY_CODE.__getitem__, column(table.unit)),
            map(_ACTIONS.__getitem__, column(table.action)), column(table.quantity),
            map(costs.__getitem__, column(table.rank)))):
        cells[row] = cell
        investment[row] = cell.investment_eur


def _price(prepared: PreparedInputs, table: CellTable, scenario: Scenario,
           missing: dict) -> None:
    """Price the missing stages (stage -> its key) into table, and their
    new rows' cells into prepared, which must hold an entry (a cell or
    None) for every row.

    Demands are built in one build_demands call; the composed T3 list
    comes from T3's demands. Per-km items take their action's unit cost;
    premise items go through gap_for_item, whose splits live for this
    call only: its stages share cells, but a later call prices only keys
    that no earlier call priced.
    """
    frame, unit_cost = prepared.frame, prepared.table.unit_cost
    demands = tg.build_demands(frame, scenario, {_T3 if s is T3_COMPOSED else s for s in missing})
    if T3_COMPOSED in missing:
        demands[T3_COMPOSED] = dedup_t3_over_t4(demands[_T3], scenario)
    args = (prepared.state, prepared.table, frame, scenario, {})
    cells, investment, positions = prepared.cells, prepared.investment, table.positions
    # The table's rows by quantity, and by (identity code, quantity) where an
    # earlier row of another identity has the same quantity: built for this
    # call only, as kept they would hold objects per row for the dataset's
    # lifetime.
    by_quantity, clashes, identity = {}, {}, table.identity
    for row, (code, quantity) in enumerate(zip(identity, table.quantity)):
        if by_quantity.setdefault(quantity, row) != row:
            clashes[code, quantity] = row
    codes, countries, nregions = table.region_codes, table.countries, len(table.region_ids)
    for stage, key in missing.items():
        rows = []
        for item in demands.pop(stage):
            region = codes[item.region]
            country, geotype, unit = countries[region], item.geotype, item.unit
            if unit is _PREMISES:
                priced = gap_for_item(item, *args)
                cost_geotype = geotype
            elif item.quantity <= 0:
                continue
            else:  # per km: one cell at the item's own action, no split
                action = item.required_action
                priced = (GapCell(item.target, item.region, geotype, unit, action,
                                  item.quantity, unit_cost(action, None, country)),)
                cost_geotype = None
            t, g, u = _TARGET_ORDER[item.target], _GEOTYPE_ORDER[geotype], _UNIT_ORDER[unit]
            item_code = (t * nregions + region) * len(GEOTYPES_DENSEST_FIRST) + g
            for cell in priced:
                a = _ACTION_ORDER[cell.action]
                code = (item_code * len(_ACTIONS) + a) * len(_UNITS_BY_CODE) + u
                row = by_quantity.get(cell.quantity)
                if row is not None and identity[row] != code:
                    row = clashes.get((code, cell.quantity))
                if row is None:
                    rank = positions[cell.action, cost_geotype, country]
                    row = len(cells)
                    if by_quantity.setdefault(cell.quantity, row) != row:
                        clashes[code, cell.quantity] = row
                    table.target.append(t)
                    table.region.append(region)
                    table.geotype.append(g)
                    table.unit.append(u)
                    table.action.append(a)
                    table.quantity.append(cell.quantity)
                    table.rank.append(rank)
                    identity.append(code)
                    cells.append(cell)
                    investment.append(cell.investment_eur)
                rows.append(row)
        table.stages[key] = array("I", sorted(rows, key=identity.__getitem__))


def compose_egs(standalone: dict[Target, Sequence[int]], t3_composed: Sequence[int],
                capitals: frozenset[int], region: Sequence[int]) -> array:
    """Assemble the overall programme from per-target rows of a CellTable:
    a new array, their concatenation in Target order.

    T1 already covers the urban side of T2 inside capital regions, so
    those T2 rows drop out (capitals: region codes; region: the table's
    region column). The T3 rows passed in must already be deduplicated
    against T4. Every sequence passed in must be in its stage's order.
    """
    return array("I", [*standalone[_T1],
                       *(r for r in standalone[_T2_URBAN] if region[r] not in capitals),
                       *standalone[_T2_TRANSPORT], *t3_composed, *standalone[_T4]])


def _composed_rows(table: CellTable, stage_rows: dict, frame: GeoFrame) -> array:
    """A run's rows in report order: its stages' rows in Target order, or
    compose_egs's programme when the run composes T3 net of T4."""
    standalone = dict(stage_rows)
    t3_composed = standalone.pop(T3_COMPOSED, None)
    if t3_composed is None:
        return array("I", [row for rows in standalone.values() for row in rows])
    capitals = frozenset(table.region_codes[c.capital_region] for c in frame.countries.values())
    return compose_egs(standalone, t3_composed, capitals, table.region)


# Sorted categories; _URBAN: each geotype code's index into _URBAN_RURAL.
_URBAN_RURAL, _COHESION = ("rural", "urban"), ("non_cohesion", "cohesion")
_URBAN = tuple(int(g in (Geotype.URBAN, Geotype.SUBURBAN)) for g in GEOTYPES_DENSEST_FIRST)


def _derive(table: CellTable, investment: list[float], stage_rows: dict, composed: array,
            frame: GeoFrame) -> tuple:
    """A run's totals, country and geotype totals, run total and
    GroupFigures, from its investment and code columns. The stage totals
    and the run total are sums over their rows; every grouped figure is
    added up with += in one pass over the composed rows, in row order."""
    by_country = [0.0] * len(frame.countries)
    by_geotype, premises_gap, premise_inv = ([0.0] * len(GEOTYPES_DENSEST_FIRST) for _ in range(3))
    by_urban, by_cohesion = [0.0, 0.0], [0.0, 0.0]
    households = premises = 0.0
    t3, per_premise, urban = _TARGET_ORDER[_T3], _UNIT_ORDER[_PREMISES], _URBAN
    country_order, cohesive, ratios = table.country_order, table.cohesive, table.households_ratio
    region, geotype, target, unit, quantity = (table.region, table.geotype, table.target,
                                               table.unit, table.quantity)
    for r in composed:
        amount, code, g = investment[r], region[r], geotype[r]
        by_country[country_order[code]] += amount
        by_geotype[g] += amount
        by_urban[urban[g]] += amount
        by_cohesion[cohesive[code]] += amount
        if unit[r] == per_premise:
            premises_gap[g] += quantity[r]
            premise_inv[g] += amount
            if target[r] != t3:
                premises += amount
                households += amount * ratios[code]
        elif target[r] != t3:
            premises += amount
            households += amount
    total = sum([investment[r] for r in composed])
    if not math.isfinite(total):
        raise DataError(f"the run's total investment overflows to {total}: some "
                        "quantity times its unit cost is too large for a float")

    def with_rows(sums: dict, of_row) -> dict:
        # A sum that no row was added to stays 0.0: only a zero sum needs
        # a look at the rows.
        return {k: v for k, v in sums.items() if v != 0 or any(of_row(r) == k for r in composed)}

    totals = {_TOTAL_KEYS[stage]: sum([investment[r] for r in rows])
              for stage, rows in stage_rows.items() if stage is not T3_COMPOSED}
    if T3_COMPOSED in stage_rows:
        t2_urban = _TARGET_ORDER[_T2_URBAN]
        totals["t2_after_t1"] = (sum([investment[r] for r in composed if target[r] == t2_urban])
                                 + totals["t2_transport"])
        totals["t3_composed"] = sum([investment[r] for r in stage_rows[T3_COMPOSED]])
        totals["egs_premises"] = totals["t1"] + totals["t2_after_t1"] + totals["t4"]
        totals["egs_premises_companies"] = totals["egs_premises"] + totals["t3_composed"]
        totals["egs_households"] = households
    country_totals = dict(zip(sorted(frame.countries), by_country))
    groups = GroupFigures(total, {
        BreakdownDimension.COUNTRY: with_rows(country_totals,
                                              lambda r: table.countries[region[r]]),
        BreakdownDimension.URBAN_RURAL: with_rows(dict(zip(_URBAN_RURAL, by_urban)),
                                                  lambda r: _URBAN_RURAL[urban[geotype[r]]]),
        BreakdownDimension.COHESION: with_rows(dict(zip(_COHESION, by_cohesion)),
                                               lambda r: _COHESION[cohesive[region[r]]]),
        BreakdownDimension.HOUSEHOLDS_VS_PREMISES: {  # households: egs_households if composed
            "households": households, "premises": premises, "premises_and_companies": total},
    }, premises_gap=dict(zip(GEOTYPES_DENSEST_FIRST, premises_gap)),
        premise_investment=dict(zip(GEOTYPES_DENSEST_FIRST, premise_inv)))
    return (totals, country_totals, dict(zip(GEOTYPES_DENSEST_FIRST, by_geotype)), total,
            groups)


@dataclass
class PreparedInputs:
    """Scenario-independent pipeline inputs, reusable across runs.

    frame, state, table and regions (None: derived per run) are read-only
    once prepared, as every report run from these inputs shares them.
    shared: the CellTable of every cost table that ranks alike;
    prepare_inputs makes it the dataset's ("cells", relax, cost_ranking)
    entry. cells and investment: per row of shared, one GapCell and its
    investment at this table's costs, or None for a row of a stage that no
    run from these inputs has read yet; the reports share the cells.
    store: ("run", a run's stage keys) -> _derive's totals, run total and
    GroupFigures at this table. options: those prepare_inputs used. Inputs
    built or replaced by hand (with dataclasses.replace too) start with
    empty, private store and cells, and shared None until their first run.
    """

    frame: GeoFrame
    state: CoverageState
    table: CostTable
    regions: dict[str, RegionSummary] | None = None
    store: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    shared: CellTable | None = field(default=None, init=False, compare=False, repr=False)
    cells: list[GapCell] = field(default_factory=list, init=False, compare=False, repr=False)
    investment: list[float] = field(default_factory=list, init=False, compare=False,
                                    repr=False)
    options: RunOptions | None = field(default=None, init=False, compare=False, repr=False)


def prepare_inputs(dataset, options: RunOptions | None = None) -> PreparedInputs:
    """Build the cost table for a dataset. The frame, coverage state and
    region summaries come from dataset.store, built on the first call with
    these relax_intervals; shared is its CellTable for the table's cost_ranking."""
    from .costs import build_cost_table

    options = options or RunOptions()
    store, relax = dataset.store, options.relax_intervals
    if ("base", relax) not in store:
        frame = geo.build_frame(dataset)
        state = cov.build_state(dataset, frame, relax)
        store["base", relax] = frame, state, _region_summaries(dataset, frame, state)
    frame, state, regions = store["base", relax]
    table = build_cost_table(dataset.cost_references, frame.countries,
                             dataset.price_index, options.sharing_fraction)
    prepared = PreparedInputs(frame=frame, state=state, table=table, regions=regions)
    ranking, positions = cost_ranking(table)
    shared = store.get(("cells", relax, ranking))
    if shared is None:
        shared = store["cells", relax, ranking] = CellTable(positions, frame, regions)
    prepared.shared = shared
    prepared.options = options
    return prepared


_DEFAULT_OPERATOR = OperatorInvestment()


def run_scenario(dataset, scenario: Scenario, options: RunOptions | None = None,
                 scenario_name: str = "custom",
                 operator: OperatorInvestment | None = _DEFAULT_OPERATOR,
                 only_targets: set[Target] | None = None,
                 prepared: PreparedInputs | None = None) -> GapReport:
    """Full pipeline for one scenario: frame, coverage, costs, demands,
    cells, composition and operator subtraction. Rows come from
    prepared.shared where an earlier run priced the same keys, and totals
    from prepared.store. options only prepare the inputs: with prepared
    given, they may be None or must equal those prepare_inputs built it with.

    Passing operator=None skips the subtraction entirely and leaves
    report.operator unset."""
    if prepared is None:
        prepared = prepare_inputs(dataset, options)
    elif options is not None and prepared.options is not None:
        for name in ("sharing_fraction", "relax_intervals"):
            given, built = getattr(options, name), getattr(prepared.options, name)
            if given != built:
                raise DataError(f"options {name} is {given}, but the prepared inputs "
                                f"were built with {built}")
    frame, table = prepared.frame, prepared.shared
    regions = prepared.regions or _region_summaries(dataset, frame, prepared.state)
    if table is None:
        table = prepared.shared = CellTable(cost_ranking(prepared.table)[1], frame, regions)
    stages = [t for t in Target if only_targets is None or t in only_targets]
    if only_targets is None:
        stages.append(T3_COMPOSED)
    keys = {stage: (stage, *(getattr(scenario, f) for f in PRICED_KEYS[stage]))
            for stage in stages}
    missing = {stage: key for stage, key in keys.items() if key not in table.stages}
    grow = len(table.quantity) - len(prepared.cells)  # rows other inputs priced
    prepared.cells += [None] * grow
    prepared.investment += [None] * grow
    if missing:
        _price(prepared, table, scenario, missing)

    stage_rows = {stage: table.stages[key] for stage, key in keys.items()}
    run_key = ("run", tuple(keys.values()))
    if run_key not in prepared.store:
        _gather(prepared, table, stage_rows)
    composed = (table.runs[run_key][0] if run_key in table.runs
                else _composed_rows(table, stage_rows, frame))
    cells = list(map(prepared.cells.__getitem__, composed))
    if run_key not in table.runs:
        table.runs[run_key] = (composed, *_netting_order(cells))
    if run_key not in prepared.store:
        prepared.store[run_key] = _derive(table, prepared.investment, stage_rows, composed,
                                          frame)
    totals, country_totals, geotype_totals, total, groups = prepared.store[run_key]

    report = GapReport(
        scenario=scenario, scenario_name=scenario_name, vintage=dataset.vintage,
        cells=cells, totals=dict(totals), country_totals=dict(country_totals),
        geotype_totals=dict(geotype_totals), regions=regions, groups=groups,
    )
    if operator is None:
        return report
    return subtract_operator_investment(report, operator, (*table.runs[run_key][1:], total))


def _region_summaries(dataset, frame: GeoFrame, state: CoverageState) -> dict[str, RegionSummary]:
    out = {}
    for region_id in sorted(frame.regions):
        region = frame.regions[region_id]
        to_cover = 0.0
        total = 0.0
        for g in GEOTYPES_DENSEST_FIRST:
            premises = frame.premises[(region_id, g)]
            total += premises
            footprint = state.footprint_over(region_id, g, _GIGABIT)
            to_cover += premises * (1.0 - footprint)
        out[region_id] = RegionSummary(
            region=region_id, country=region.country,
            population=region.population, households=region.households,
            premises_total=total, premises_to_cover=to_cover,
            cohesion=dataset.cohesion.get(region_id),
        )
    return out


def _netting_order(cells: Sequence[GapCell]) -> tuple[array, array]:
    """Indices into cells of the fixed and of the wireless cells, each in
    the order netting consumes them: cheapest unit first."""
    keys = [(c.unit_cost_eur, c.region, _GEOTYPE_ORDER[c.geotype],
             _TARGET_ORDER[c.target], _ACTION_ORDER[c.action]) for c in cells]
    order = sorted(range(len(cells)), key=keys.__getitem__)
    return (array("I", [i for i in order if cells[i].action not in _WIRELESS_ACTIONS]),
            array("I", [i for i in order if cells[i].action in _WIRELESS_ACTIONS]))


def subtract_operator_investment(report: GapReport, operator: OperatorInvestment,
                                 pools: tuple | None = None) -> GapReport:
    """Consume expected operator investment from the cheapest units up.

    Fixed-network capex can only pay for fixed cells, wireless capex
    for 5G cells. The marginal cell is consumed partially and exactly.
    pools: _netting_order(report.cells)'s two index arrays and the total
    of report.cells, as run_scenario keeps them; None sorts and sums
    report.cells here.
    """
    cells = report.cells

    def consume(order: array, pool: float) -> tuple[float, dict[str, float]]:
        left = pool
        used_by_region: dict[str, float] = {}
        for i in order:
            if left <= 0:
                break
            cell = cells[i]
            take = cell.investment_eur if cell.investment_eur < left else left
            used_by_region[cell.region] = used_by_region.get(cell.region, 0.0) + take
            left -= take
        return pool - left, used_by_region

    if pools is None:
        pools = (*_netting_order(cells), sum(c.investment_eur for c in cells))
    fixed_order, wireless_order, total = pools
    fixed_used, fixed_by_region = consume(fixed_order, operator.fixed_pool_eur)
    wireless_used, wl_by_region = consume(wireless_order, operator.wireless_pool_eur)

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
    average investment per premise. The rows format the geotype totals
    and report.groups, and read no cells: a report without groups raises
    DataError, as do an unknown dimension and, for cohesion, a region of
    report.regions without a cohesion flag."""
    if dimension not in BreakdownDimension.ALL:
        raise DataError(f"unknown breakdown dimension {dimension!r}")
    groups = report.groups
    if groups is None:
        raise DataError("the report has no breakdown figures: only run_scenario derives them")
    total = groups.total

    def row(category: str, amount: float) -> dict:
        return {"category": category, "investment_eur": amount,
                "share": amount / total if total > 0 else 0.0}

    if dimension == BreakdownDimension.GEOTYPE:
        rows = []
        for g in Geotype:
            premises_gap = groups.premises_gap[g]
            rows.append({**row(g.value, report.geotype_totals[g]),
                         "premises_gap": premises_gap,
                         "eur_per_premise": (groups.premise_investment[g] / premises_gap
                                             if premises_gap > 0 else 0.0)})
        return rows
    if dimension == BreakdownDimension.COHESION:
        for region_id, summary in report.regions.items():
            if summary.cohesion is None:
                raise DataError(f"region {region_id} has no cohesion flag")
    return [row(k, v) for k, v in sorted(groups.categories[dimension].items())]


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
    try:
        years = [float(year) for year, _ in points]
    except OverflowError:
        raise DataError("a vintage does not convert to a float") from None
    try:
        fit = statistics.linear_regression(years, [p[1] for p in points])
    except (ArithmeticError, ValueError) as err:
        raise DataError(f"no trend fits the two vintages: {err}") from None
    total_delta = points[1][1] - points[0][1]
    extrapolated = fit.intercept + fit.slope * 2025
    zero_year = -fit.intercept / fit.slope if fit.slope < 0 else 0.0
    grown = {}
    for code in sorted(set(older.country_totals) & set(newer.country_totals)):
        delta = newer.country_totals[code] - older.country_totals[code]
        if delta > 0:
            grown[code] = delta
    if not all(map(math.isfinite, (fit.slope, fit.intercept, extrapolated, zero_year,
                                   total_delta, *deltas.values(), *grown.values()))):
        raise DataError(f"the trend from vintage {older.vintage} to {newer.vintage} "
                        "is not finite")
    return EvolutionReport(
        scenario_name=newer.scenario_name,
        points=points,
        target_deltas_eur=deltas,
        total_delta_eur=total_delta,
        slope_eur_per_year=fit.slope,
        extrapolated_2025_eur=extrapolated,
        zero_crossing_year=round(zero_year) if fit.slope < 0 else None,
        countries_grown=grown,
    )
