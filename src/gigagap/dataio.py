"""Dataset loading, validation and report writing.

A dataset is a directory of nine CSV files. Validation is exhaustive:
every problem across every file is collected into one report instead
of stopping at the first. fixture_path names the bundled demo dataset,
which the tests also use.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field
from importlib import resources
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .costs import CostAction, CostReference, Granularity, PreparednessFactor, missing_cells
from .coverage import (PUBLISHED_BANDS, CoverageInterval, NationalFigure, TechClass)
from .errors import CostTableError, DataError, DatasetValidationError
from .geo import (_GEOTYPE_ORDER, SIZE_CLASSES, Country, Degurba, Geotype, LocalitySums, Region,
                  classify, locality_sum_verdicts)
from .targets import _FLAG_TEXT, Target, Unit

if TYPE_CHECKING:  # pragma: no cover
    from .gap import EvolutionReport, GapReport

log = logging.getLogger(__name__)

DATASET_FILES = (
    "regions.csv", "localities.csv", "countries.csv", "enterprises.csv",
    "coverage_intervals.csv", "coverage_national.csv", "cost_references.csv",
    "price_index.csv", "cohesion.csv",
)


def fixture_path() -> Path:
    """Directory of the bundled demo dataset."""
    return Path(str(resources.files("gigagap"))) / "data" / "fixture"


@dataclass
class ValidationEntry:
    severity: str  # "error" | "warning"
    file: str
    row: int
    message: str

    @property
    def where(self) -> str:
        return f"{self.file}:{self.row}" if self.row else self.file

    def __str__(self):
        return f"{self.severity.upper()} {self.where}: {self.message}"


@dataclass
class ValidationReport:
    dataset: str
    entries: list[ValidationEntry] = field(default_factory=list)

    def error(self, file: str, row: int, message: str) -> None:
        self.entries.append(ValidationEntry("error", file, row, message))

    def warning(self, file: str, row: int, message: str) -> None:
        self.entries.append(ValidationEntry("warning", file, row, message))

    @property
    def errors(self) -> list[ValidationEntry]:
        return [e for e in self.entries if e.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass
class Dataset:
    """Fully parsed and cross-checked model inputs.

    `localities` maps each region id to its localities' sums (count, totals
    and per-geotype population and area); no single locality is kept.
    Read-only once loaded. gap.prepare_inputs caches in `store`, while the
    dataset lives: ("base", relax) -> frame, coverage state and region
    summaries; ("cells", relax, cost ranking) -> a gap.CellTable, the
    distinct cells priced under that ranking as columns, with each stage
    key's rows and each run key's composed rows and netting order.
    dataclasses.replace makes a variant with an empty store.
    """

    path: Path | None
    vintage: int
    countries: dict[str, Country]
    regions: dict[str, Region]
    localities: dict[str, LocalitySums]
    enterprises: dict[tuple[str, str], float]
    coverage_intervals: list[CoverageInterval]
    coverage_national: list[NationalFigure]
    cost_references: list[CostReference]
    price_index: dict[int, float]
    cohesion: dict[str, bool]
    store: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def _parsed_rows(path: Path, report: ValidationReport, filename: str,
                 required: tuple[str, ...], parse, key=None, duplicate: str = "",
                 optional: tuple[str, ...] = ()):
    """Read and parse one CSV. Yields (row_number, value) pairs, skipping
    blank lines. parse takes a row's required fields, then its optional
    ones, positionally; an optional column the file or row lacks reads as "".
    Reported instead: a row that ends before the last required column, one
    whose parse raises DataError, and one whose key(value) repeats an
    earlier row's, as "duplicate " + duplicate.format(value). A byte that
    is not UTF-8, or a csv.Error, is one error and ends the file."""
    file = path / filename
    if not file.is_file():
        report.error(filename, 0, "file not found")
        return
    with open(file, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [c for c in required if c not in header]
            if missing:
                report.error(filename, 1, f"missing required columns: {', '.join(missing)}")
                return
            index = {col: i for i, col in enumerate(header)}
            if len(index) < len(header):
                for col in index:
                    if header.count(col) > 1:
                        report.error(filename, 1, f"column {col!r} appears more than once")
                return
            known = set(required) | set(optional)
            for col in header:
                if col not in known:
                    report.warning(filename, 1, f"ignoring unknown column {col!r}")
            need = 1 + max(index[c] for c in required)
            # An optional column the file lacks is read past its last column: then
            # every row, as any row not as wide as the header, is cut and padded.
            width = len(header)
            lacking = not index.keys() >= set(optional)
            fields = itemgetter(*(index.get(c, width) for c in required + optional))
            blanks = [""] * (width + 1)
            seen = set()
            for row in reader:
                if len(row) != width or lacking:
                    if not row:
                        continue
                    if len(row) < need:
                        report.error(filename, reader.line_num,
                                     f"expected {need} fields, got {len(row)}")
                        continue
                    row = row[:width] + blanks
                try:
                    value = parse(*fields(row))
                except DataError as err:
                    report.error(filename, reader.line_num, str(err))
                    continue
                if key is not None:
                    if (k := key(value)) in seen:
                        report.error(filename, reader.line_num,
                                     "duplicate " + duplicate.format(value))
                        continue
                    seen.add(k)
                yield reader.line_num, value
        except csv.Error as err:
            report.error(filename, reader.line_num, f"{err}; file not read further")
        except UnicodeDecodeError:  # its offset counts from the chunk that failed
            data = file.read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as err:  # + b"?": one piece per line up to its own
                report.error(filename, len((data[:err.start] + b"?").splitlines()),
                             f"byte {data[err.start]:#04x} is not UTF-8; file not read further")


def _parse_float(raw: str, what: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise DataError(f"{what}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{what}: not a finite number: {raw!r}")
    return value


def _parse_int(raw: str, what: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise DataError(f"{what}: not an integer: {raw!r}") from None


@functools.cache
def _members(enum_cls) -> dict:
    """{value: member} of one enum class. Loading looks values up here, and
    writing reads them from _values: both far cheaper than Enum's own."""
    return {member.value: member for member in enum_cls}


@functools.cache
def _values(enum_cls) -> dict:
    return {member: value for value, member in _members(enum_cls).items()}


def _parse_enum(raw: str, enum_cls, what: str):
    member = _members(enum_cls).get(raw)
    if member is None:
        valid = ", ".join(_members(enum_cls))
        raise DataError(f"{what}: {raw!r} is not one of {valid}")
    return member


# Raw degurba text -> class: the values and the aliases 1/2/3.
_DEGURBA = {"1": Degurba.URBAN, "2": Degurba.SUBURBAN, "3": Degurba.RURAL,
            **_members(Degurba)}


def _parse_degurba(raw: str) -> Degurba:
    member = _DEGURBA.get(raw)
    if member is None:
        key = raw.strip().lower()
        member = _DEGURBA.get(key) or _parse_enum(key, Degurba, "degurba")
    return member


def _parse_bool(raw: str, what: str) -> bool:
    flag = _FLAG_TEXT.get(raw.strip().lower())
    if flag is None:
        raise DataError(f"{what}: expected a boolean, got {raw!r}")
    return flag


def validate_dataset(path: str | Path) -> tuple[Dataset | None, ValidationReport]:
    """Parse and cross-check a dataset directory.

    Returns the dataset (None when there are errors) plus the full
    validation report with every error and warning found."""
    path = Path(path)
    report = ValidationReport(dataset=str(path))
    if not path.is_dir():
        report.error(str(path), 0, "dataset directory not found")
        return None, report

    countries, rejected_countries = _load_countries(path, report)
    regions, rejected = _load_regions(path, report, countries, rejected_countries)
    localities = _load_localities(path, report, regions, rejected)
    enterprises = _load_enterprises(path, report, countries, rejected_countries)
    intervals = _load_intervals(path, report, regions, rejected)
    national = _load_national(path, report, countries, rejected_countries)
    cost_refs = _load_cost_references(path, report)
    price_index = _load_price_index(path, report)
    cohesion = _load_cohesion(path, report, regions, rejected)

    _cross_checks(report, regions, rejected, localities, countries,
                  intervals, national, cost_refs, price_index, cohesion)

    vintages = sorted({iv.vintage for iv in intervals} | {nf.vintage for nf in national})
    if len(vintages) > 1:
        report.error("coverage_intervals.csv", 0,
                     f"mixed coverage vintages in one dataset: {vintages}")
    if not vintages:
        report.error("coverage_national.csv", 0, "dataset contains no coverage data")

    if not report.ok:
        return None, report
    dataset = Dataset(
        path=path, vintage=vintages[0], countries=countries, regions=regions,
        localities=localities, enterprises=enterprises,
        coverage_intervals=intervals, coverage_national=national,
        cost_references=cost_refs, price_index=price_index, cohesion=cohesion,
    )
    return dataset, report


def load_dataset(path: str | Path) -> Dataset:
    """Load a dataset directory: log its warnings, raise with the full report on errors."""
    dataset, report = validate_dataset(path)
    for entry in report.entries:
        if entry.severity == "warning":
            log.warning("%s: %s", entry.where, entry.message)
    if dataset is None:
        raise DatasetValidationError(report)
    return dataset


# Each loader's parse passes its record's fields positionally, in the order
# of the file's columns: keyword arguments cost more per row.

def _load_regions(path, report, countries,
                  rejected_countries) -> tuple[dict[str, Region], set[str]]:
    """The valid regions, and the ids of rows rejected for a bad field, an
    unknown country or a rejected one. A row elsewhere that names a
    rejected region or country is dropped without an error of its own:
    the rejected row's is enough."""
    named = set()

    def parse(id, country, population, area_km2, households):
        id, country = id.strip(), country.strip()
        named.add(id)
        region = Region(id, country, _parse_float(population, "population"),
                        _parse_float(area_km2, "area_km2"), _parse_float(households, "households"))
        if country not in countries and country not in rejected_countries:
            raise DataError(f"region {id} references unknown country {country}")
        return region

    out: dict[str, Region] = {}
    cols = ("id", "country", "population", "area_km2", "households")
    for lineno, region in _parsed_rows(path, report, "regions.csv", cols, parse,
                                       attrgetter("id"), "region id {0.id}"):
        if region.country in rejected_countries:
            continue
        if region.population == 0 and region.households > 0:
            report.warning("regions.csv", lineno,
                           f"region {region.id} has households but zero population")
        out[region.id] = region
    return out, named - out.keys()


def _load_localities(path, report, regions, rejected) -> dict[str, LocalitySums]:
    """Each known region's localities, classified and summed row by row."""
    def parse(id, region, population, area_km2, degurba):
        id = id.strip()
        population = _parse_float(population, "population")
        area_km2 = _parse_float(area_km2, "area_km2")
        degurba = _parse_degurba(degurba)
        if area_km2 <= 0:
            raise DataError(f"locality {id}: area must be positive, got {area_km2}")
        if population < 0:
            raise DataError(f"locality {id}: negative population {population}")
        return id, region.strip(), population, area_km2, classify(degurba, population / area_km2)

    out: dict[str, LocalitySums] = {}
    cols = ("id", "region", "population", "area_km2", "degurba")
    for lineno, (loc_id, region, population, area_km2, geotype) in _parsed_rows(
            path, report, "localities.csv", cols, parse, itemgetter(0), "locality id {0[0]}"):
        sums = out.get(region)
        if sums is None:
            if region not in regions:
                if region not in rejected:
                    report.error("localities.csv", lineno,
                                 f"locality {loc_id} references unknown region {region}")
                continue
            sums = out[region] = LocalitySums()
        sums.add(population, area_km2, geotype)
    return out


_PREP_COLUMNS = (("prep_geo", "geographic"), ("prep_housing", "housing"),
                 ("prep_regulation", "regulation"))


def _load_countries(path, report) -> tuple[dict[str, Country], set[str]]:
    """The valid countries, and the codes of rows rejected for a bad field."""
    named = set()

    def parse(code, labour_index, prep_geo, prep_housing, prep_regulation,
              road_km, rail_km, capital_region, docsis_band, fttp_band):
        code = code.strip()
        named.add(code)
        prep = PreparednessFactor(code, _parse_float(prep_geo, "prep_geo"),
                                  _parse_float(prep_housing, "prep_housing"),
                                  _parse_float(prep_regulation, "prep_regulation"))
        return Country(
            code, _parse_float(labour_index, "labour_index"), prep,
            _parse_float(road_km, "road_km"), _parse_float(rail_km, "rail_km"),
            capital_region.strip(), docsis_band.strip() or None, fttp_band.strip() or None)

    out: dict[str, Country] = {}
    cols = ("code", "labour_index", "prep_geo", "prep_housing", "prep_regulation",
            "road_km", "rail_km", "capital_region")
    for lineno, country in _parsed_rows(path, report, "countries.csv", cols, parse,
                                        attrgetter("code"), "country code {0.code}",
                                        optional=("docsis_band", "fttp_band")):
        for col, attr in _PREP_COLUMNS:
            v = getattr(country.preparedness, attr)
            if min(abs(v - s) for s in (-0.10, 0.0, 0.10)) > 1e-9:
                report.warning("countries.csv", lineno,
                               f"{col}={v} is not one of the usual -0.10/0/0.10 steps")
        out[country.code] = country
    return out, named - out.keys()


def _load_enterprises(path, report, countries,
                      rejected_countries) -> dict[tuple[str, str], float]:
    def parse(country, size_class, count):
        size_class = size_class.strip()
        if size_class not in SIZE_CLASSES:
            raise DataError(f"unknown size class {size_class!r}; expected one of "
                            + ", ".join(SIZE_CLASSES))
        count = _parse_float(count, "count")
        if count < 0:
            raise DataError(f"negative enterprise count {count}")
        return (country.strip(), size_class), count

    out = {}
    for lineno, (key, count) in _parsed_rows(
            path, report, "enterprises.csv", ("country", "size_class", "count"), parse,
            itemgetter(0), "enterprise row for {0[0][0]}/{0[0][1]}"):
        if key[0] not in countries:
            if key[0] not in rejected_countries:
                report.error("enterprises.csv", lineno,
                             f"enterprise counts reference unknown country {key[0]}")
            continue
        out[key] = count
    return out


def _load_intervals(path, report, regions, rejected) -> list[CoverageInterval]:
    """The intervals of known regions."""
    def parse(region, technology, band_low, band_high, vintage):
        return CoverageInterval(
            region.strip(), _parse_enum(technology.strip(), TechClass, "technology"),
            _parse_float(band_low, "band_low"), _parse_float(band_high, "band_high"),
            _parse_int(vintage, "vintage"))

    out = []
    cols = ("region", "technology", "band_low", "band_high", "vintage")
    for lineno, iv in _parsed_rows(path, report, "coverage_intervals.csv", cols, parse,
                                   attrgetter("region", "technology"),
                                   "interval for {0.region}/{0.technology.value}"):
        if iv.region not in regions:
            if iv.region not in rejected:
                report.error("coverage_intervals.csv", lineno,
                             f"interval references unknown region {iv.region}")
            continue
        if all(abs(iv.low - lo) > 1e-9 or abs(iv.high - hi) > 1e-9
               for lo, hi in PUBLISHED_BANDS):
            report.warning("coverage_intervals.csv", lineno,
                           f"band [{iv.low}, {iv.high}] is not one of the published bands")
        out.append(iv)
    return out


def _load_national(path, report, countries, rejected_countries) -> list[NationalFigure]:
    """The national figures of known countries."""
    def parse(country, technology, coverage, vintage):
        return NationalFigure(
            country.strip(), _parse_enum(technology.strip(), TechClass, "technology"),
            _parse_float(coverage, "coverage"), _parse_int(vintage, "vintage"))

    out = []
    cols = ("country", "technology", "coverage", "vintage")
    for lineno, nf in _parsed_rows(path, report, "coverage_national.csv", cols, parse,
                                   attrgetter("country", "technology"),
                                   "national figure for {0.country}/{0.technology.value}"):
        if nf.country not in countries:
            if nf.country not in rejected_countries:
                report.error("coverage_national.csv", lineno,
                             f"national figure references unknown country {nf.country}")
            continue
        out.append(nf)
    return out


def _load_cost_references(path, report) -> list[CostReference]:
    def parse(action, geotype, granularity, value_eur, price_year, source_id):
        geotype = geotype.strip()
        return CostReference(
            _parse_enum(action.strip(), CostAction, "action"),
            _parse_enum(geotype, Geotype, "geotype") if geotype else None,
            _parse_enum(granularity.strip(), Granularity, "granularity"),
            _parse_float(value_eur, "value_eur"), _parse_int(price_year, "price_year"),
            source_id.strip())

    cols = ("action", "geotype", "granularity", "value_eur", "price_year", "source_id")
    return [ref for _, ref in _parsed_rows(path, report, "cost_references.csv", cols, parse)]


def _load_price_index(path, report) -> dict[int, float]:
    def parse(year, multiplier):
        year = _parse_int(year, "year")
        multiplier = _parse_float(multiplier, "multiplier")
        if multiplier <= 0:
            raise DataError(f"multiplier must be positive: {multiplier}")
        return year, multiplier

    rows = _parsed_rows(path, report, "price_index.csv", ("year", "multiplier"), parse,
                        itemgetter(0), "year {0[0]}")
    return dict(value for _, value in rows)


def _load_cohesion(path, report, regions, rejected) -> dict[str, bool]:
    """The cohesion flags of known regions."""
    def parse(region, is_cohesion):
        return region.strip(), _parse_bool(is_cohesion, "is_cohesion")

    out = {}
    for lineno, (region, flag) in _parsed_rows(path, report, "cohesion.csv",
                                               ("region", "is_cohesion"), parse,
                                               itemgetter(0), "cohesion row for {0[0]}"):
        if region not in regions:
            if region not in rejected:
                report.error("cohesion.csv", lineno,
                             f"cohesion flag references unknown region {region}")
            continue
        out[region] = flag
    return out


def _cross_checks(report, regions, rejected, localities, countries,
                  intervals, national, cost_refs, price_index, cohesion) -> None:
    country_members: dict[str, set[str]] = {}
    for region in regions.values():
        country_members.setdefault(region.country, set()).add(region.id)

    for region_id in sorted(regions):
        sums = localities.get(region_id)
        if sums is None:
            report.error("localities.csv", 0, f"region {region_id} has no localities")
            continue
        for fatal, message in locality_sum_verdicts(regions[region_id], sums):
            (report.error if fatal else report.warning)("localities.csv", 0, message)

    for code in sorted(countries):
        country = countries[code]
        capital = country.capital_region
        if capital in rejected:
            continue
        if capital not in regions:
            report.error("countries.csv", 0,
                         f"country {code}: capital region {capital} not in regions.csv")
        elif regions[capital].country != code:
            report.error("countries.csv", 0,
                         f"country {code}: capital region {capital} belongs to "
                         f"{regions[capital].country}")

    pairs_with_intervals: dict[tuple[str, TechClass], set[str]] = {}
    for iv in intervals:
        pairs_with_intervals.setdefault(
            (regions[iv.region].country, iv.technology), set()).add(iv.region)
    national_pairs = {(nf.country, nf.technology) for nf in national}

    for pair in sorted(pairs_with_intervals, key=lambda p: (p[0], p[1].value)):
        country, tech = pair
        have = pairs_with_intervals[pair]
        missing = sorted(country_members[country] - have)
        if missing:
            report.error("coverage_intervals.csv", 0,
                         f"{country}/{tech.value}: intervals missing for regions "
                         + ", ".join(missing))
        if pair not in national_pairs:
            report.error("coverage_national.csv", 0,
                         f"{country}/{tech.value}: intervals present but no national figure")
    for pair in sorted(national_pairs - set(pairs_with_intervals),
                       key=lambda p: (p[0], p[1].value)):
        # A country whose capital was rejected may have lost its only region.
        if countries[pair[0]].capital_region not in rejected:
            report.error("coverage_intervals.csv", 0,
                         f"{pair[0]}/{pair[1].value}: national figure present but no intervals")

    # A rejected row's cell is not reported again as uncovered.
    if not any(e.file == "cost_references.csv" for e in report.errors):
        missing = missing_cells(cost_refs)
        if missing:
            report.error("cost_references.csv", 0, str(CostTableError(missing)))

    years_needed = {ref.price_year for ref in cost_refs}
    for year in sorted(years_needed - set(price_index)):
        report.error("price_index.csv", 0,
                     f"cost references use price year {year} but the index has no entry")

    for region_id in sorted(set(regions) - set(cohesion)):
        report.warning("cohesion.csv", 0, f"region {region_id} has no cohesion flag")


# ---------------------------------------------------------------------------
# report writing

def _write_csv(path: Path, header: list[str], rows: Iterable[Sequence]) -> Path:
    """Write one CSV, creating its directory. rows may be a generator, so
    that no list of row lists is built. csv.writer writes a float as its
    repr, so the text is lossless."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_json(path: Path, payload: dict) -> Path:
    """Write one JSON file, keys sorted at every level, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def summary_dict(report: "GapReport") -> dict:
    """The content of gap_summary.json. The histogram, region and operator
    blocks encode every field of HistogramReport, RegionSummary (less its
    region id, the block's key) and OperatorResult, so a field added to
    one of those dataclasses appears in the summary."""
    from .gap import BreakdownDimension, breakdown, histogram_gap_shares
    from .targets import scenario_to_fields

    scenario = {"name": report.scenario_name}
    if report.scenario is not None:
        scenario.update(scenario_to_fields(report.scenario))
    breakdowns = {}
    for dim in BreakdownDimension.ALL:
        try:
            breakdowns[dim] = breakdown(report, dim)
        except DataError:
            continue  # e.g. cohesion flags absent
    out = {
        "format": "gigagap-summary-v1",
        "scenario": scenario,
        "vintage": report.vintage,
        "totals_eur": report.totals,
        "country_totals_eur": report.country_totals,
        "geotype_totals_eur": {g.value: v for g, v in report.geotype_totals.items()},
        "regions": {rid: {k: v for k, v in vars(s).items() if k != "region"}
                    for rid, s in report.regions.items()},
        "histogram": asdict(histogram_gap_shares(report)),
        "breakdowns": breakdowns,
    }
    if report.operator is not None:
        out["operator"] = asdict(report.operator)
    return out


def write_reports(report: "GapReport", out_dir: str | Path) -> list[Path]:
    """Write gap_cells.csv, gap_summary.json, histogram.csv and a
    single-vintage evolution.json stub, creating out_dir. Output is
    byte-stable for identical inputs."""
    out_dir = Path(out_dir)
    summary = summary_dict(report)
    evo = {
        "format": "gigagap-evolution-v1",
        "scenario_name": report.scenario_name,
        "points": [{"vintage": report.vintage, "total_eur": report.headline_total_eur}],
        "note": "single vintage; run compare with a second summary for a trend",
    }
    target, geotype, action, unit = map(_values, (Target, Geotype, CostAction, Unit))
    return [
        _write_csv(
            out_dir / "gap_cells.csv",
            ["target", "region", "geotype", "action", "unit", "quantity",
             "unit_cost_eur", "investment_eur"],
            ((target[c.target], c.region, geotype[c.geotype], action[c.action], unit[c.unit],
              c.quantity, c.unit_cost_eur, c.investment_eur) for c in report.cells)),
        _write_json(out_dir / "gap_summary.json", summary),
        _write_csv(
            out_dir / "histogram.csv",
            ["bucket_low", "bucket_high", "region_count", "population_share"],
            [[b["low"], b["high"], b["region_count"], b["population_share"]]
             for b in summary["histogram"]["buckets"]]),
        _write_json(out_dir / "evolution.json", evo),
    ]


def write_cost_table(table, out_dir: str | Path) -> Path:
    """Dump base and fully adjusted unit costs for audit, creating out_dir."""
    action_value = _values(CostAction)
    geotype_value = {None: "", **_values(Geotype)}
    keys = sorted(table.adjusted, key=lambda k: (action_value[k[0]], geotype_value[k[1]], k[2]))
    rows = ((action_value[action], geotype_value[geotype], country,
             table.base[(action, geotype)], table.adjusted[(action, geotype, country)])
            for action, geotype, country in keys)
    return _write_csv(Path(out_dir) / "cost_table.csv",
                      ["action", "geotype", "country", "base_eur", "adjusted_eur"], rows)


def write_coverage_points(state, out_dir: str | Path) -> Path:
    """Dump the disaggregated coverage state for inspection, creating out_dir."""
    geotype_value, tech_value = _values(Geotype), _values(TechClass)
    keys = sorted(state.entries, key=lambda k: (k[0], _GEOTYPE_ORDER[k[1]], tech_value[k[2]]))
    rows = ((region, geotype_value[g], tech_value[t], state.entries[region, g, t])
            for region, g, t in keys)
    return _write_csv(Path(out_dir) / "coverage_point.csv",
                      ["region", "geotype", "technology", "coverage"], rows)


def evolution_dict(evolution: "EvolutionReport") -> dict:
    """The content of evolution.json: every EvolutionReport field, with
    each point as a {vintage, total_eur} object."""
    out = asdict(evolution)
    out["format"] = "gigagap-evolution-v1"
    out["points"] = [{"vintage": y, "total_eur": v} for y, v in evolution.points]
    return out


def report_from_summary(path: str | Path) -> "GapReport":
    """Rebuild enough of a report from gap_summary.json to compare
    vintages. Cells are not reconstructed. A file that is not a whole,
    well-formed gap summary raises DataError."""
    from .gap import GapReport, RegionSummary
    from .targets import scenario_from_fields

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or data.get("format") != "gigagap-summary-v1":
            raise DataError(f"{path}: not a gap summary file")
        sc = data.get("scenario", {})
        scenario = (scenario_from_fields(sc, f"{path}: scenario")
                    if "t1_quality" in sc else None)
        regions = {
            rid: RegionSummary(
                region=rid, country=r["country"], population=r["population"],
                households=r["households"], premises_total=r["premises_total"],
                premises_to_cover=r["premises_to_cover"], cohesion=r.get("cohesion"),
            ) for rid, r in data.get("regions", {}).items()
        }
        vintage = data["vintage"]
        if type(vintage) is not int:  # not bool, float or string
            raise DataError(f"{path}: vintage must be a JSON integer, got {vintage!r}")
        totals, country_totals = data.get("totals_eur", {}), data.get("country_totals_eur", {})
        if not all(type(v) in (int, float) and math.isfinite(v)  # not bool or string
                   for v in [*totals.values(), *country_totals.values()]):
            raise DataError(f"{path}: totals must be finite numbers")
        return GapReport(scenario=scenario, scenario_name=sc.get("name", "unknown"),
                         vintage=vintage, cells=[],
                         totals={k: float(v) for k, v in totals.items()},
                         country_totals={k: float(v) for k, v in country_totals.items()},
                         geotype_totals={}, regions=regions)
    except KeyError as err:
        raise DataError(f"{path}: gap summary lacks {err.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError, OverflowError, RecursionError) as err:
        raise DataError(f"{path}: malformed gap summary: {err}") from None
