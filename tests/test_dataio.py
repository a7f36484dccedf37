import codecs
import csv
import json
import re
import shutil
from pathlib import Path

import pytest

import oracle
from gigagap import cli, dataio
from gigagap.coverage import TechClass
from gigagap.errors import DataError, DatasetValidationError
from gigagap.gap import run_scenario
from gigagap.geo import FixedTechChoice, Geotype
from gigagap.targets import SCENARIO_PRESETS


@pytest.fixture()
def broken_copy(fixture_dir, tmp_path):
    """Editable copy of the bundled fixture."""
    dest = tmp_path / "data"
    shutil.copytree(fixture_dir, dest)
    return dest


def edit_csv(path: Path, fn):
    rows = list(csv.reader(path.open(newline="", encoding="utf-8")))
    rows = fn(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# Every dataset file whose rows carry a key that must not repeat.
KEYED_FILES = tuple(f for f in dataio.DATASET_FILES if f != "cost_references.csv")


def errors_for(path) -> list[str]:
    _, report = dataio.validate_dataset(path)
    return [str(e) for e in report.errors]


class TestValidation:
    def test_fixture_is_clean(self, fixture_dir):
        ds, report = dataio.validate_dataset(fixture_dir)
        assert report.ok
        assert report.entries == []
        assert ds is not None
        assert ds.vintage == 2019
        assert len(ds.regions) == 9
        assert set(ds.countries) == {"FR", "DE", "CY"}

    def test_missing_file_reported(self, broken_copy):
        (broken_copy / "regions.csv").unlink()
        msgs = errors_for(broken_copy)
        assert any("regions.csv" in m and "not found" in m for m in msgs)

    def test_missing_column_reported(self, broken_copy):
        edit_csv(broken_copy / "regions.csv",
                 lambda rows: [[c for c in r[:1] + r[2:]] for r in rows])
        msgs = errors_for(broken_copy)
        assert any("regions.csv" in m and "missing required columns" in m for m in msgs)

    def test_unknown_column_is_warning_not_error(self, broken_copy):
        edit_csv(broken_copy / "regions.csv",
                 lambda rows: [r + (["mystery"] if i == 0 else ["1"])
                               for i, r in enumerate(rows)])
        ds, report = dataio.validate_dataset(broken_copy)
        assert ds is not None
        assert any("mystery" in str(w) for w in report.entries)
        assert report.ok

    def test_locality_referencing_unknown_region(self, broken_copy):
        edit_csv(broken_copy / "localities.csv",
                 lambda rows: rows + [["ZZ_L1", "ZZ999", "1000", "10", "rural"]])
        msgs = errors_for(broken_copy)
        assert any("ZZ999" in m for m in msgs)

    def test_unknown_region_names_its_line(self, broken_copy):
        def move(rows):
            rows[2][1] = "ZZ999"
            return rows
        edit_csv(broken_copy / "localities.csv", move)
        assert errors_for(broken_copy) == [
            "ERROR localities.csv:3: locality FR101_L2 references unknown region ZZ999",
            "ERROR localities.csv: region FR101: locality population sums to 1.2e+06 "
            "but the region total is 2.2e+06 (45.5% off)",
            "ERROR localities.csv: region FR101: locality area sums to 50 "
            "but the region total is 105 (52.4% off)",
        ]

    def test_interval_of_unknown_region_names_its_line(self, broken_copy):
        edit_csv(broken_copy / "coverage_intervals.csv",
                 lambda rows: rows + [["ZZ999", "FTTB", "0.0", "0.35", "2019"]])
        assert errors_for(broken_copy) == [
            "ERROR coverage_intervals.csv:74: interval references unknown region ZZ999"]

    def test_national_figure_of_unknown_country_names_its_line(self, broken_copy):
        edit_csv(broken_copy / "coverage_national.csv",
                 lambda rows: rows + [["ZZ", "FTTB", "0.5", "2019"]])
        assert errors_for(broken_copy) == [
            "ERROR coverage_national.csv:26: national figure references unknown country ZZ"]

    def test_enterprise_counts_of_unknown_country_name_their_line(self, broken_copy):
        edit_csv(broken_copy / "enterprises.csv", lambda rows: rows + [["ZZ", "0-9", "10"]])
        assert errors_for(broken_copy) == [
            "ERROR enterprises.csv:17: enterprise counts reference unknown country ZZ"]

    def test_cohesion_flag_of_unknown_region_names_its_line(self, broken_copy):
        edit_csv(broken_copy / "cohesion.csv", lambda rows: rows + [["ZZ999", "true"]])
        assert errors_for(broken_copy) == [
            "ERROR cohesion.csv:11: cohesion flag references unknown region ZZ999"]

    def test_region_of_unknown_country_names_its_line(self, broken_copy):
        def move(rows):
            rows[1][1] = "QQ"
            return rows
        edit_csv(broken_copy / "regions.csv", move)
        assert errors_for(broken_copy) == [
            "ERROR regions.csv:2: region FR101 references unknown country QQ"]

    @pytest.mark.parametrize("region, column, raw, message", [
        ("FR101", 4, "nan", "households: not a finite number: 'nan'"),
        ("FR101", 1, "QQ", "region FR101 references unknown country QQ"),
        # CY000 is its country's only region and its capital.
        ("CY000", 3, "0", "region CY000: area must be positive, got 0.0"),
        ("CY000", 1, "QQ", "region CY000 references unknown country QQ"),
    ], ids=["bad-field", "unknown-country", "only-region-bad-field",
            "only-region-unknown-country"])
    def test_one_bad_region_row_is_one_error(self, broken_copy, capsys, region, column, raw,
                                             message):
        # The rows that name the rejected region (localities, intervals, the
        # capital, cohesion) are dropped without errors of their own.
        rows = list(csv.reader((broken_copy / "regions.csv").open(newline="")))
        index = next(i for i, r in enumerate(rows) if r[0] == region)
        rows[index][column] = raw
        edit_csv(broken_copy / "regions.csv", lambda _: rows)
        assert errors_for(broken_copy) == [f"ERROR regions.csv:{index + 1}: {message}"]
        assert cli.main(["validate", "--dataset", str(broken_copy)]) == 1
        assert capsys.readouterr().out.endswith(f"FAILED: 1 error(s) in {broken_copy}\n")

    @pytest.mark.parametrize("filename", KEYED_FILES)
    def test_duplicate_region_id(self, broken_copy, filename):
        rows = list(csv.reader((broken_copy / filename).open(newline="")))
        edit_csv(broken_copy / filename, lambda rows: rows + [rows[1]])
        msgs = errors_for(broken_copy)
        where = f"{filename}:{len(rows) + 1}:"
        assert any(where in m and "duplicate" in m for m in msgs)

    @pytest.mark.parametrize("filename, blank_lines", [
        *(pytest.param(f, 0, id=f) for f in dataio.DATASET_FILES),
        pytest.param("localities.csv", 2, id="localities.csv-after-blank-lines"),
    ])
    def test_short_row_is_reported_with_its_line(self, broken_copy, filename, blank_lines):
        rows = list(csv.reader((broken_copy / filename).open(newline="")))
        edit_csv(broken_copy / filename, lambda rows: rows + [[]] * blank_lines + [["x"]])
        msgs = [m for m in errors_for(broken_copy) if "fields" in m]
        assert len(msgs) == 1
        line = len(rows) + blank_lines + 1
        assert re.fullmatch(rf"ERROR {filename}:{line}: expected \d+ fields, got 1", msgs[0])

    def test_quoted_newline_counts_as_a_line(self, broken_copy):
        # A quoted field may span lines; a row's number is its last line.
        rows = list(csv.reader((broken_copy / "localities.csv").open(newline="")))
        edit_csv(broken_copy / "localities.csv",
                 lambda rows: rows + [["ZZ\nL1", "FR101", "x", "10", "rural"], ["x"]])
        n = len(rows)
        assert errors_for(broken_copy) == [
            f"ERROR localities.csv:{n + 2}: population: not a number: 'x'",
            f"ERROR localities.csv:{n + 3}: expected 5 fields, got 1",
        ]

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("blank_lines", [0, 10_000], ids=["first-chunk", "later-chunk"])
    def test_byte_that_is_not_utf8_is_one_error_at_its_line(self, broken_copy, blank_lines, eol):
        # Blank lines push the bad row past the first chunk the reader decodes.
        path = broken_copy / "localities.csv"
        lines = path.read_bytes().splitlines()
        lines[-1:-1] = [b""] * blank_lines
        lines[-1] = b"\xff" + lines[-1]
        path.write_bytes(eol.join(lines) + eol)
        edit_csv(broken_copy / "enterprises.csv", lambda rows: rows + [["FR", "500+", "10"]])
        msgs = errors_for(broken_copy)
        assert [m for m in msgs if re.match(r"ERROR localities\.csv:\d+:", m)] == [
            f"ERROR localities.csv:{len(lines)}: byte 0xff is not UTF-8; file not read further"]
        assert any(m.startswith("ERROR enterprises.csv:") and "500+" in m for m in msgs)

    def test_byte_after_a_byte_order_mark_is_reported_at_its_line(self, broken_copy):
        # The line csv counts for a short last row is the line the byte check
        # names for a bad byte on that row: the mark shifts neither.
        path = broken_copy / "regions.csv"
        lines = path.read_bytes().splitlines()

        def regions_errors(last):
            path.write_bytes(codecs.BOM_UTF8 + b"\n".join(lines[:-1] + [last]) + b"\n")
            return [m for m in errors_for(broken_copy) if m.startswith("ERROR regions.csv:")]

        assert regions_errors(lines[-1].split(b",")[0]) == [
            f"ERROR regions.csv:{len(lines)}: expected 5 fields, got 1"]
        assert regions_errors(b"\xff" + lines[-1]) == [
            f"ERROR regions.csv:{len(lines)}: byte 0xff is not UTF-8; file not read further"]

    def test_field_over_the_csv_limit_is_one_error_at_its_line(self, broken_copy):
        path = broken_copy / "regions.csv"
        n = len(path.read_text(encoding="utf-8").splitlines())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("FR999," + "9" * 131_073 + ",1,1,1\nFR998,1,1,1,1\n")
        edit_csv(broken_copy / "enterprises.csv", lambda rows: rows + [["FR", "500+", "10"]])
        msgs = errors_for(broken_copy)
        assert [m for m in msgs if re.match(r"ERROR regions\.csv:\d+:", m)] == [
            f"ERROR regions.csv:{n + 1}: field larger than field limit (131072); "
            "file not read further"]
        assert any(m.startswith("ERROR enterprises.csv:") and "500+" in m for m in msgs)

    def test_optional_band_columns_may_end_early(self, broken_copy):
        def trim(rows):
            by_code = {r[0]: r for r in rows[1:]}
            by_code["DE"][:] = by_code["DE"][:9]    # ends before docsis_band
            by_code["CY"][:] = by_code["CY"][:10]   # ends before fttp_band
            return rows
        edit_csv(broken_copy / "countries.csv", trim)
        ds, report = dataio.validate_dataset(broken_copy)
        assert report.entries == []
        bands = {code: (c.docsis_band, c.fttp_band) for code, c in ds.countries.items()}
        assert bands == {"FR": ("25-50", "25-50"), "DE": (None, None), "CY": (">50", None)}

    def test_countries_with_docsis_band_only(self, broken_copy):
        # FR's row keeps its fttp_band field, past the header's last column.
        edit_csv(broken_copy / "countries.csv",
                 lambda rows: [r if r[0] == "FR" else r[:-1] for r in rows])
        ds, report = dataio.validate_dataset(broken_copy)
        assert report.entries == []
        assert {code: c.docsis_band for code, c in ds.countries.items()} == {
            "FR": "25-50", "DE": ">50", "CY": ">50"}
        assert all(c.fttp_band is None for c in ds.countries.values())

    def test_enum_fields_are_stripped_and_degurba_case_folded(self, broken_copy, dataset):
        spelled = {"urban": (" Urban ", "1", "URBAN"), "suburban": ("2", " suburban"),
                   "rural": ("RURAL", " 3 ", "rural ")}

        def respell(rows):
            for i, r in enumerate(rows[1:]):
                forms = spelled[r[4]]
                r[4] = forms[i % len(forms)]
            return rows
        edit_csv(broken_copy / "localities.csv", respell)
        edit_csv(broken_copy / "coverage_intervals.csv",
                 lambda rows: rows[:1] + [[r[0], f" {r[1]} "] + r[2:] for r in rows[1:]])
        edit_csv(broken_copy / "cost_references.csv",
                 lambda rows: rows[:1] + [[f"{r[0]} ", f" {r[1]}"] + r[2:] for r in rows[1:]])
        ds, report = dataio.validate_dataset(broken_copy)
        assert report.entries == []
        assert ds.localities == dataset.localities
        assert ds.coverage_intervals == dataset.coverage_intervals
        assert ds.cost_references == dataset.cost_references

    @pytest.mark.parametrize("filename, column, raw, message", [
        ("coverage_intervals.csv", 1, "lte",
         "technology: 'lte' is not one of FTTH_100M, FTTH_1G, FTTB, FTTC_ADV_DSL, "
         "DOCSIS_30, DOCSIS_31, LTE, FIVE_G"),
        ("coverage_national.csv", 1, "5G",
         "technology: '5G' is not one of FTTH_100M, FTTH_1G, FTTB, FTTC_ADV_DSL, "
         "DOCSIS_30, DOCSIS_31, LTE, FIVE_G"),
        ("localities.csv", 4, " Town ", "degurba: 'town' is not one of urban, suburban, rural"),
        ("localities.csv", 4, "4", "degurba: '4' is not one of urban, suburban, rural"),
        ("cost_references.csv", 1, "Urban",
         "geotype: 'Urban' is not one of urban, suburban, semi_rural, rural, extremely_rural"),
        ("countries.csv", 5, "ftth", "dominant_fixed_tech: 'ftth' is not one of "
         "FTTH, FTTB_C, MIXED_URBAN_FTTH"),
    ])
    def test_unknown_enum_value_lists_the_valid_ones(self, broken_copy, filename, column,
                                                     raw, message):
        rows = list(csv.reader((broken_copy / filename).open(newline="")))
        bad = rows[-1][:column] + [raw] + rows[-1][column + 1:]
        edit_csv(broken_copy / filename, lambda rows: rows + [bad])
        msgs = [m for m in errors_for(broken_copy) if m.startswith(f"ERROR {filename}:")]
        assert msgs == [f"ERROR {filename}:{len(rows) + 1}: {message}"]

    @pytest.mark.parametrize("filename, row, message", [
        ("localities.csv", ["ZZ_L9", "FR101", "many", "10", "town"],
         "population: not a number: 'many'"),
        ("coverage_intervals.csv", ["FR101", "5G", "low", "0.5", "2019"],
         "technology: '5G' is not one of FTTH_100M, FTTH_1G, FTTB, FTTC_ADV_DSL, "
         "DOCSIS_30, DOCSIS_31, LTE, FIVE_G"),
    ])
    def test_first_bad_field_of_a_row_is_reported(self, broken_copy, filename, row, message):
        rows = list(csv.reader((broken_copy / filename).open(newline="")))
        edit_csv(broken_copy / filename, lambda rows: rows + [row])
        assert errors_for(broken_copy) == [f"ERROR {filename}:{len(rows) + 1}: {message}"]

    def test_countries_without_optional_bands_validate(self, broken_copy):
        edit_csv(broken_copy / "countries.csv",
                 lambda rows: rows[:1] + [r[:-2] for r in rows[1:]])
        ds, report = dataio.validate_dataset(broken_copy)
        assert report.ok
        assert all(c.docsis_band is None and c.fttp_band is None
                   for c in ds.countries.values())

    def test_interval_band_low_above_high(self, broken_copy):
        def swap(rows):
            rows[1][2], rows[1][3] = "0.9", "0.1"
            return rows
        edit_csv(broken_copy / "coverage_intervals.csv", swap)
        msgs = errors_for(broken_copy)
        assert any("coverage_intervals.csv" in m for m in msgs)

    def test_unknown_size_class(self, broken_copy):
        edit_csv(broken_copy / "enterprises.csv",
                 lambda rows: rows + [["FR", "500+", "10"]])
        msgs = errors_for(broken_copy)
        assert any("size class" in m for m in msgs)

    def test_negative_enterprise_count(self, broken_copy):
        edit_csv(broken_copy / "enterprises.csv",
                 lambda rows: rows + [["CY", "0-9", "-5"]])
        msgs = errors_for(broken_copy)
        assert msgs

    def test_capital_region_must_exist(self, broken_copy):
        def retarget(rows):
            for r in rows[1:]:
                if r[0] == "CY":
                    r[8] = "CY777"
            return rows
        edit_csv(broken_copy / "countries.csv", retarget)
        msgs = errors_for(broken_copy)
        assert any("CY777" in m for m in msgs)

    def test_missing_national_figure_for_interval_pair(self, broken_copy):
        edit_csv(broken_copy / "coverage_national.csv",
                 lambda rows: [r for r in rows if not (r[0] == "CY" and r[1] == "LTE")])
        msgs = errors_for(broken_copy)
        assert any("CY" in m and "LTE" in m for m in msgs)

    def test_interval_missing_region_of_country(self, broken_copy):
        edit_csv(broken_copy / "coverage_intervals.csv",
                 lambda rows: [r for r in rows
                               if not (r[0] == "FR101" and r[1] == "FIVE_G")])
        msgs = errors_for(broken_copy)
        assert any("FR101" in m for m in msgs)

    def test_price_year_not_covered(self, broken_copy):
        edit_csv(broken_copy / "price_index.csv",
                 lambda rows: [rows[0], rows[2]])  # drop 2017, keep 2019
        edit_csv(broken_copy / "cost_references.csv",
                 lambda rows: rows[:1] + [rows[1][:4] + ["2017"] + rows[1][5:]] + rows[2:])
        msgs = errors_for(broken_copy)
        assert any("price" in m.lower() for m in msgs)

    def test_locality_population_sum_off_by_more_than_two_percent(self, broken_copy):
        def inflate(rows):
            for r in rows[1:]:
                if r[0] == "CY000_L1":
                    r[2] = str(float(r[2]) + 100_000)
            return rows
        edit_csv(broken_copy / "localities.csv", inflate)
        msgs = errors_for(broken_copy)
        assert any("CY000" in m for m in msgs)

    @pytest.mark.parametrize("raw", ["nan", "inf", " -Infinity ", "1e999"])
    def test_non_finite_household_count_rejected(self, broken_copy, raw):
        def poison(rows):
            rows[1][4] = raw
            return rows
        edit_csv(broken_copy / "regions.csv", poison)
        ds, report = dataio.validate_dataset(broken_copy)
        assert ds is None
        msgs = [str(e) for e in report.errors]
        assert f"ERROR regions.csv:2: households: not a finite number: {raw!r}" in msgs

    def test_multiple_faults_all_reported(self, broken_copy):
        (broken_copy / "cohesion.csv").unlink()
        edit_csv(broken_copy / "enterprises.csv",
                 lambda rows: rows + [["FR", "500+", "10"]])
        edit_csv(broken_copy / "localities.csv",
                 lambda rows: rows + [["ZZ_L1", "ZZ999", "1000", "10", "rural"]])
        msgs = errors_for(broken_copy)
        assert len(msgs) >= 3
        assert len({m.split(":", 1)[0] for m in msgs}) >= 3  # distinct files

    def test_load_dataset_raises_with_report_attached(self, broken_copy):
        (broken_copy / "regions.csv").unlink()
        with pytest.raises(DatasetValidationError) as err:
            dataio.load_dataset(broken_copy)
        assert err.value.report.errors

    def test_missing_dataset_directory(self, tmp_path):
        _, report = dataio.validate_dataset(tmp_path / "nowhere")
        assert not report.ok


_DEGURBA_ALIASES = {"1": "urban", "2": "suburban", "3": "rural"}


def brute_force_fold(path) -> dict:
    """region -> (count, population, area, {geotype: population}, {geotype: area})
    of localities.csv, read with the csv module, classified by the oracle and
    summed in row order."""
    out = {}
    with open(path / "localities.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            pop, area = float(row["population"]), float(row["area_km2"])
            degurba = row["degurba"].strip().lower()
            geotype = oracle.classify(pop, area, _DEGURBA_ALIASES.get(degurba, degurba))
            count, total_pop, total_area, by_pop, by_area = out.get(row["region"]) or (
                0, 0.0, 0.0, dict.fromkeys(oracle.GEOTYPES, 0.0),
                dict.fromkeys(oracle.GEOTYPES, 0.0))
            by_pop[geotype] += pop
            by_area[geotype] += area
            out[row["region"]] = (count + 1, total_pop + pop, total_area + area,
                                  by_pop, by_area)
    return out


def folded(localities) -> dict:
    """The loader's records in brute_force_fold's shape."""
    return {region: (sums.count, sums.population, sums.area_km2,
                     {g.value: v for g, v in sums.geotype_population.items()},
                     {g.value: v for g, v in sums.geotype_area.items()})
            for region, sums in localities.items()}


class TestLocalityFold:
    """The loader's per-region sums equal a brute-force fold exactly."""

    def test_fixture(self, fixture_dir, dataset):
        assert folded(dataset.localities) == brute_force_fold(fixture_dir)

    def test_edge_rows(self, tmp_path):
        (tmp_path / "localities.csv").write_text(
            "id,region,population,area_km2,degurba\n"
            "E1,R1,1000,10,rural\n"       # density exactly 100: semi rural
            "E2,R1,100,10,rural\n"        # density exactly 10: rural
            "E3,R1,0.1,1,1\n"             # the three urban rows sum in row order
            "E4,R1,0.2,1,1\n"
            "E5,R1,0.3,1,1\n"
            "E6,R2,50,3,2\n"
            "E7,R2,999,10,3\n"            # density 99.9: rural
            "E8,R2,0,4,rural\n"           # zero population: extremely rural
            "E9,R2,0,0.5,3\n")
        report = dataio.ValidationReport(dataset=str(tmp_path))
        localities = dataio._load_localities(tmp_path, report, {"R1", "R2"}, set())
        assert report.entries == []
        assert folded(localities) == brute_force_fold(tmp_path)
        r1, r2 = localities["R1"], localities["R2"]
        assert r1.geotype_population[Geotype.SEMI_RURAL] == 1000.0
        assert r1.geotype_population[Geotype.RURAL] == 100.0
        assert r1.geotype_population[Geotype.URBAN] == (0.1 + 0.2) + 0.3
        assert r2.geotype_population[Geotype.SUBURBAN] == 50.0
        assert r2.geotype_population[Geotype.RURAL] == 999.0
        assert r2.geotype_area[Geotype.EXTREMELY_RURAL] == 4.5
        assert (r1.count, r2.count) == (5, 4)


class TestBundledTables:
    def test_default_cost_references_cover_every_cell(self):
        refs = dataio.default_cost_references()
        assert len(refs) == 49
        from gigagap.costs import required_cells
        covered = {(r.action, r.geotype) for r in refs}
        assert covered == set(required_cells())

    def test_default_price_index_is_neutral(self):
        assert dataio.default_price_index() == {2019: 1.0}

    def test_eu_tables_have_28_countries(self):
        assert len(dataio.eu_preparedness_table()) == 28
        assert len(dataio.eu_transport_table()) == 28
        assert len(dataio.eu_tech_choices()) == 28
        assert len(dataio.eu_cable_fibre_bands()) == 28

    def test_transport_spot_values(self):
        table = dataio.eu_transport_table()
        assert table["FR"] == (12_797.0, 28_364.0)
        assert table["CY"][1] == 0.0
        assert table["MT"][1] == 0.0

    def test_tech_choice_spot_values(self):
        choices = dataio.eu_tech_choices()
        assert choices["DE"] is FixedTechChoice.FTTB_C
        assert choices["FR"] is FixedTechChoice.FTTH
        assert choices["NL"] is FixedTechChoice.MIXED_URBAN_FTTH

    def test_cable_bands_make_germany_cable_dominant(self):
        bands = dataio.eu_cable_fibre_bands()
        from gigagap.geo import COVERAGE_BAND_ORDER
        docsis, fttp = bands["DE"]
        assert COVERAGE_BAND_ORDER.index(docsis) > COVERAGE_BAND_ORDER.index(fttp)


@pytest.fixture(scope="module")
def written_outputs(dataset, tmp_path_factory):
    report = run_scenario(dataset, SCENARIO_PRESETS["baseline"],
                          scenario_name="baseline")
    out = tmp_path_factory.mktemp("out")
    paths = dataio.write_reports(report, out)
    return report, out, paths


class TestOutputs:
    def test_all_four_files_written(self, written_outputs):
        _, out, paths = written_outputs
        assert [p.name for p in paths] == ["gap_cells.csv", "gap_summary.json",
                                           "histogram.csv", "evolution.json"]
        assert all(p.exists() for p in paths)

    def test_gap_cells_round_trip_exactly(self, written_outputs):
        report, out, _ = written_outputs
        rows = list(csv.DictReader((out / "gap_cells.csv").open()))
        assert len(rows) == len(report.cells)
        for row, cell in zip(rows, report.cells):
            assert row["target"] == cell.target.value
            assert row["geotype"] == cell.geotype.value
            assert float(row["quantity"]) == cell.quantity
            assert float(row["unit_cost_eur"]) == cell.unit_cost_eur
            assert float(row["investment_eur"]) == cell.investment_eur

    def test_summary_totals_round_trip_exactly(self, written_outputs):
        report, out, _ = written_outputs
        payload = json.loads((out / "gap_summary.json").read_text())
        assert payload["format"] == "gigagap-summary-v1"
        assert payload["totals_eur"] == report.totals
        assert payload["operator"]["residual_gap_eur"] == report.operator.residual_gap_eur

    def test_single_run_evolution_stub(self, written_outputs):
        report, out, _ = written_outputs
        payload = json.loads((out / "evolution.json").read_text())
        assert payload["points"] == [{"vintage": report.vintage,
                                      "total_eur": report.headline_total_eur}]
        assert "note" in payload

    def test_report_from_summary_rebuilds_comparable_report(self, written_outputs):
        report, out, _ = written_outputs
        again = dataio.report_from_summary(out / "gap_summary.json")
        assert again.totals == report.totals
        assert again.vintage == report.vintage
        assert again.scenario == report.scenario
        assert {r: s.country for r, s in again.regions.items()} == \
               {r: s.country for r, s in report.regions.items()}

    def test_report_from_summary_rejects_other_format(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DataError, match="not a gap summary"):
            dataio.report_from_summary(bad)

    def test_cost_table_csv(self, dataset, prepared, tmp_path):
        path = dataio.write_cost_table(prepared.table, tmp_path)
        rows = list(csv.DictReader(path.open()))
        by_key = {(r["action"], r["geotype"], r["country"]): float(r["adjusted_eur"])
                  for r in rows}
        from gigagap.costs import CostAction
        want = prepared.table.unit_cost(CostAction.FTTH_NEW, Geotype.URBAN, "FR")
        assert by_key[("FTTH_NEW", "urban", "FR")] == want

    def test_coverage_point_csv(self, dataset, prepared, tmp_path):
        path = dataio.write_coverage_points(prepared.state, tmp_path)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == len(prepared.state.entries)
        sample = rows[0]
        key = (sample["region"], Geotype(sample["geotype"]),
               TechClass[sample["technology"]])
        assert float(sample["coverage"]) == prepared.state.entries[key]

    def test_written_files_are_byte_stable(self, dataset, tmp_path):
        report = run_scenario(dataset, SCENARIO_PRESETS["baseline"],
                              scenario_name="baseline")
        a, b = tmp_path / "a", tmp_path / "b"
        dataio.write_reports(report, a)
        dataio.write_reports(report, b)
        for name in ("gap_cells.csv", "gap_summary.json", "histogram.csv",
                     "evolution.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
