"""Every input column the model reads changes an output.

For each column of the fixture's nine files, one hand-written, in-range
edit must change at least one byte of the six files `run` writes under
the baseline preset. A column the model demanded but never read
would fail here. Some columns matter only together with other data: a
second reference to the same cost cell for `granularity`, the other
coverage file for `vintage`. There the case supplies that data, and a
`given` that is valid on its own is applied to both sides of the
comparison. Columns that only name or document a row are listed in
NOT_MODEL_INPUTS, each with its reason.
"""

import csv
import shutil

import pytest

from gigagap import cli, dataio

OUTPUT_FILES = ("gap_cells.csv", "gap_summary.json", "histogram.csv",
                "evolution.json", "coverage_point.csv", "cost_table.csv")

NOT_MODEL_INPUTS = {
    ("localities.csv", "id"): "names a locality; the model reads localities only "
                              "as per-region sums, so an id need only be unique",
    ("cost_references.csv", "source_id"): "provenance of a cost figure",
}


def row(rows, **match):
    return next(r for r in rows if all(r[k] == v for k, v in match.items()))


def rename(tables, old, new):
    """Replace every field that equals old, in every file."""
    for rows in tables.values():
        for r in rows:
            for column, value in r.items():
                if value == old:
                    r[column] = new


def change(file, match, **values):
    """An edit that sets values in the row of file that match selects."""
    return lambda t: row(t[file], **match).update(values)


def exchange(file, column, a, b):
    """An edit that swaps column's values between the rows a and b select."""
    def edit(t):
        first, second = row(t[file], **a), row(t[file], **b)
        first[column], second[column] = second[column], first[column]
    return edit


def move_locality(t):
    # FR301_L4 joins FR201; the two regions' totals follow, as they must
    # match their localities' sums.
    row(t["localities.csv"], id="FR301_L4")["region"] = "FR201"
    row(t["regions.csv"], id="FR301").update(population="280000", area_km2="6900")
    row(t["regions.csv"], id="FR201").update(population="820000", area_km2="14100")


def all_vintages(t):
    for name in ("coverage_intervals.csv", "coverage_national.csv"):
        for r in t[name]:
            r["vintage"] = "2020"


def second_reference(t):
    t["cost_references.csv"].append(
        dict(action="FTTH_NEW", geotype="urban", granularity="LOCAL", value_eur="600",
             price_year="2019", source_id="local-study"))


# (file, column) -> (given or None, edit); each takes {file name: rows as dicts}.
FR, FR101 = {"code": "FR"}, {"id": "FR101"}
FTTH_URBAN = {"action": "FTTH_NEW", "geotype": "urban"}
CASES = {
    ("regions.csv", "id"): (None, lambda t: rename(t, "FR301", "FR399")),
    ("regions.csv", "country"): (None, change("regions.csv", {"id": "FR301"}, country="DE")),
    ("regions.csv", "population"): (None, change("regions.csv", FR101, population="2222000")),
    ("regions.csv", "area_km2"): (None, change("regions.csv", FR101, area_km2="106")),
    ("regions.csv", "households"): (None, change("regions.csv", FR101, households="1000000")),
    ("localities.csv", "region"): (None, move_locality),
    ("localities.csv", "population"): (
        None, change("localities.csv", {"id": "FR102_L3"}, population="250000")),
    ("localities.csv", "area_km2"): (
        None, change("localities.csv", {"id": "FR102_L3"}, area_km2="2450")),
    ("localities.csv", "degurba"): (
        None, change("localities.csv", {"id": "FR102_L2"}, degurba="urban")),
    ("countries.csv", "code"): (None, lambda t: rename(t, "CY", "CZ")),
    ("countries.csv", "labour_index"): (None, change("countries.csv", FR, labour_index="1.2")),
    ("countries.csv", "prep_geo"): (None, change("countries.csv", FR, prep_geo="0.10")),
    ("countries.csv", "prep_housing"): (None, change("countries.csv", FR, prep_housing="0.10")),
    ("countries.csv", "prep_regulation"): (
        None, change("countries.csv", FR, prep_regulation="0.10")),
    ("countries.csv", "road_km"): (None, change("countries.csv", FR, road_km="13000")),
    ("countries.csv", "rail_km"): (None, change("countries.csv", FR, rail_km="28000")),
    ("countries.csv", "capital_region"): (
        None, change("countries.csv", FR, capital_region="FR102")),
    ("countries.csv", "docsis_band"): (None, change("countries.csv", FR, docsis_band=">50")),
    ("countries.csv", "fttp_band"): (
        None, change("countries.csv", {"code": "DE"}, fttp_band=">50")),
    ("enterprises.csv", "country"): (
        None, exchange("enterprises.csv", "country", {"country": "FR", "size_class": "250+"},
                       {"country": "DE", "size_class": "250+"})),
    ("enterprises.csv", "size_class"): (
        None, exchange("enterprises.csv", "size_class", {"country": "FR", "size_class": "0-9"},
                       {"country": "FR", "size_class": "250+"})),
    ("enterprises.csv", "count"): (
        None, change("enterprises.csv", {"country": "FR", "size_class": "250+"}, count="4000")),
    ("coverage_intervals.csv", "region"): (
        None, exchange("coverage_intervals.csv", "region",
                       {"region": "FR101", "technology": "FTTH_100M"},
                       {"region": "FR201", "technology": "FTTH_100M"})),
    ("coverage_intervals.csv", "technology"): (
        None, exchange("coverage_intervals.csv", "technology",
                       {"region": "FR101", "technology": "DOCSIS_30"},
                       {"region": "FR101", "technology": "DOCSIS_31"})),
    ("coverage_intervals.csv", "band_low"): (
        None, change("coverage_intervals.csv", {"region": "FR201", "technology": "FTTH_1G"},
                     band_low="0.1")),
    ("coverage_intervals.csv", "band_high"): (
        None, change("coverage_intervals.csv", {"region": "FR101", "technology": "FTTH_1G"},
                     band_high="0.3")),
    # The other file's vintage has to follow: a dataset holds one vintage.
    ("coverage_intervals.csv", "vintage"): (None, all_vintages),
    ("coverage_national.csv", "country"): (
        None, exchange("coverage_national.csv", "country",
                       {"country": "FR", "technology": "FIVE_G"},
                       {"country": "CY", "technology": "FIVE_G"})),
    ("coverage_national.csv", "technology"): (
        None, exchange("coverage_national.csv", "technology",
                       {"country": "FR", "technology": "FTTH_1G"},
                       {"country": "FR", "technology": "DOCSIS_31"})),
    ("coverage_national.csv", "coverage"): (
        None, change("coverage_national.csv", {"country": "FR", "technology": "FTTH_1G"},
                     coverage="0.25")),
    ("coverage_national.csv", "vintage"): (None, all_vintages),
    ("cost_references.csv", "action"): (
        None, exchange("cost_references.csv", "action", FTTH_URBAN,
                       {"action": "FTTB_NEW", "geotype": "urban"})),
    ("cost_references.csv", "geotype"): (
        None, exchange("cost_references.csv", "geotype", FTTH_URBAN,
                       {"action": "FTTH_NEW", "geotype": "suburban"})),
    # Granularity weighs references to the same cell against each other.
    ("cost_references.csv", "granularity"): (
        second_reference,
        change("cost_references.csv", {"source_id": "local-study"}, granularity="NUTS2")),
    ("cost_references.csv", "value_eur"): (
        None, change("cost_references.csv", FTTH_URBAN, value_eur="600")),
    ("cost_references.csv", "price_year"): (
        None, change("cost_references.csv", FTTH_URBAN, price_year="2017")),
    ("price_index.csv", "year"): (
        None, exchange("price_index.csv", "year", {"year": "2017"}, {"year": "2019"})),
    ("price_index.csv", "multiplier"): (
        None, change("price_index.csv", {"year": "2019"}, multiplier="1.1")),
    ("cohesion.csv", "region"): (
        None, exchange("cohesion.csv", "region", {"region": "FR201"}, {"region": "FR301"})),
    ("cohesion.csv", "is_cohesion"): (
        None, change("cohesion.csv", {"region": "FR101"}, is_cohesion="true")),
}


def read_tables(path):
    tables = {}
    for name in dataio.DATASET_FILES:
        with open(path / name, newline="", encoding="utf-8") as fh:
            tables[name] = list(csv.DictReader(fh))
    return tables


def fixture_columns():
    out = set()
    for name in dataio.DATASET_FILES:
        with open(dataio.fixture_path() / name, newline="", encoding="utf-8") as fh:
            out.update((name, column) for column in next(csv.reader(fh)))
    return out


def run_outputs(tmp_path, tag, *edits) -> dict[str, bytes]:
    """The six baseline files of `run` on a fixture copy with the edits applied."""
    data, out = tmp_path / f"data-{tag}", tmp_path / f"out-{tag}"
    shutil.copytree(dataio.fixture_path(), data)
    tables = read_tables(data)
    for edit in edits:
        edit(tables)
    for name, rows in tables.items():
        with open(data / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    code = cli.main(["run", "--dataset", str(data), "--out", str(out)])
    assert code == 0, f"run on the {tag} copy exited {code}"
    return {name: (out / name).read_bytes() for name in OUTPUT_FILES}


@pytest.fixture(scope="module")
def fixture_outputs(tmp_path_factory):
    return run_outputs(tmp_path_factory.mktemp("inputs"), "fixture")


def test_every_fixture_column_has_a_case_or_a_reason():
    assert fixture_columns() == set(CASES) | set(NOT_MODEL_INPUTS)


@pytest.mark.parametrize("file, column", sorted(CASES), ids=lambda v: v)
def test_column_changes_an_output(file, column, fixture_outputs, tmp_path):
    given, edit = CASES[file, column]
    if given is None:
        before, after = fixture_outputs, run_outputs(tmp_path, "edited", edit)
    else:
        before = run_outputs(tmp_path, "given", given)
        after = run_outputs(tmp_path, "edited", given, edit)
    assert [name for name in OUTPUT_FILES if before[name] != after[name]]
