import codecs
import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gigagap import cli
from gigagap.targets import Quality, Scenario, T3Tier, T4WirelessScope

OUTPUT_FILES = ("gap_cells.csv", "gap_summary.json", "histogram.csv",
                "evolution.json", "coverage_point.csv", "cost_table.csv")


def gigagap(*args, env=None):
    merged = os.environ.copy()
    merged.pop("GIGAGAP_DATA", None)
    if env:
        merged.update(env)
    return subprocess.run([sys.executable, "-m", "gigagap", *args],
                          capture_output=True, text=True, env=merged)


def headline(out_dir) -> float:
    payload = json.loads((Path(out_dir) / "gap_summary.json").read_text())
    return payload["totals_eur"]["egs_premises_companies"]


@pytest.fixture(scope="module")
def baseline_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("base_out")
    proc = gigagap("run", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out, proc


class TestValidate:
    def test_bundled_fixture_passes(self):
        proc = gigagap("validate")
        assert proc.returncode == 0
        assert proc.stdout.startswith("OK: 9 regions, 3 countries")

    def test_missing_path_is_environment_error(self):
        proc = gigagap("validate", "--dataset", "/nonexistent/nowhere")
        assert proc.returncode == 2
        assert "does not exist" in proc.stderr

    def test_broken_dataset_lists_errors_and_fails(self, fixture_dir, tmp_path):
        broken = tmp_path / "data"
        shutil.copytree(fixture_dir, broken)
        (broken / "enterprises.csv").unlink()
        proc = gigagap("validate", "--dataset", str(broken))
        assert proc.returncode == 1
        assert "FAILED" in proc.stdout
        assert "enterprises.csv" in proc.stdout

    def test_short_row_fails_without_traceback(self, fixture_dir, tmp_path):
        broken = tmp_path / "data"
        shutil.copytree(fixture_dir, broken)
        with open(broken / "regions.csv", "a", encoding="utf-8") as fh:
            fh.write("FR999\n")
        proc = gigagap("validate", "--dataset", str(broken))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert re.search(r"regions\.csv:\d+: expected 5 fields, got 1", proc.stdout)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unreadable_csv_fails_without_traceback(self, fixture_dir, tmp_path, command):
        broken = tmp_path / "data"
        shutil.copytree(fixture_dir, broken)
        with open(broken / "regions.csv", "ab") as fh:
            fh.write(b"\xff")
        out = ("--out", str(tmp_path / "out")) if command == "run" else ()
        proc = gigagap(command, "--dataset", str(broken), *out)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert re.search(r"regions\.csv:\d+: byte 0xff is not UTF-8",
                         proc.stdout + proc.stderr)

    def test_byte_order_mark_reads_as_the_clean_copy(self, fixture_dir, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start the file with EF BB BF.
        clean, marked = tmp_path / "clean", tmp_path / "marked"
        for copy in (clean, marked):
            shutil.copytree(fixture_dir, copy)
        path = marked / "regions.csv"
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        want = gigagap("validate", "--dataset", str(clean))
        got = gigagap("validate", "--dataset", str(marked))
        assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, want.stderr)
        assert want.returncode == 0

    def test_repeated_column_is_an_error(self, fixture_dir, tmp_path):
        broken = tmp_path / "data"
        shutil.copytree(fixture_dir, broken)
        path = broken / "regions.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        # The second "households" copy holds the real counts, the first zeros.
        assert lines[0].endswith(",households")
        lines = [lines[0] + ",households"] + [
            "{0},0,{1}".format(*line.rsplit(",", 1)) for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = gigagap("validate", "--dataset", str(broken))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "ERROR regions.csv:1: column 'households' appears more than once" in (
            proc.stdout.splitlines())

    def test_locality_sum_mismatch_within_tolerance_prints_once(self, fixture_dir, tmp_path):
        # The FR101 copy of TestRun's warns-once test: 0.55 % off, within tolerance.
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        path = data / "localities.csv"
        text = path.read_text(encoding="utf-8")
        assert "FR101_L1,FR101,1200000," in text
        path.write_text(text.replace("FR101_L1,FR101,1200000,", "FR101_L1,FR101,1212100,"),
                        encoding="utf-8")
        proc = gigagap("validate", "--dataset", str(data))
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in (proc.stdout + proc.stderr).splitlines() if "FR101" in line]
        assert len(lines) == 1, (proc.stdout, proc.stderr)
        assert lines[0].startswith("WARNING localities.csv: region FR101")
        assert "off by 0.55%" in lines[0]
        assert lines[0] in proc.stdout.splitlines()


class TestRun:
    def test_invalid_dataset_lists_errors_and_fails(self, fixture_dir, tmp_path):
        broken = tmp_path / "data"
        shutil.copytree(fixture_dir, broken)
        with open(broken / "regions.csv", "a", encoding="utf-8") as fh:
            fh.write("FR999\n")
        line = len((broken / "regions.csv").read_text(encoding="utf-8").splitlines())
        proc = gigagap("run", "--dataset", str(broken), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"ERROR regions.csv:{line}: expected 5 fields, got 1" in proc.stderr
        assert proc.stderr.rstrip().endswith("dataset validation failed with 1 error(s)")

    def test_baseline_run_writes_all_outputs(self, baseline_out):
        out, proc = baseline_out
        for name in OUTPUT_FILES:
            assert (out / name).exists(), name
        assert "scenario: baseline" in proc.stdout
        assert "EGS premises and companies" in proc.stdout

    def test_summary_prints_billions_with_one_decimal(self, baseline_out):
        _, proc = baseline_out
        for line in proc.stdout.splitlines():
            if line.startswith("T1 capitals 5G"):
                amount = line.split()[-1]
                assert re.fullmatch(r"-?\d+\.\d", amount)
                break
        else:
            pytest.fail("missing T1 summary row")

    def test_min_headline_below_baseline(self, baseline_out, tmp_path):
        out_min = tmp_path / "min"
        proc = gigagap("run", "--scenario", "min", "--out", str(out_min))
        assert proc.returncode == 0, proc.stderr
        assert headline(out_min) <= headline(baseline_out[0])

    def test_scenario_config_file(self, tmp_path):
        config = tmp_path / "custom.scenario"
        config.write_text(
            "t1_quality = nominal\nt2_quality = nominal\n"
            "t3_tier = one_million\nt4_wireless = extremely_rural_only\n"
            "docsis_upgrade = true\n")
        out = tmp_path / "out"
        proc = gigagap("run", "--scenario", str(config), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "scenario: custom" in proc.stdout

    @pytest.mark.parametrize("mistake, message", [
        ("docsis_upgrade = true\nsharing = 0.12\n", "line 6: unknown key 'sharing'"),
        ("docsis_upgrade = true\ndocsis_upgrade = false\n",
         "line 6: docsis_upgrade is given more than once"),
        ("docsis_upgrade = maybe\n", "docsis_upgrade must be true, 1, yes, false, 0 or no"),
    ], ids=["unknown-key", "repeated-key", "bad-flag"])
    def test_scenario_config_mistake_is_domain_error(self, tmp_path, mistake, message):
        config = tmp_path / "custom.scenario"
        config.write_text(
            "t1_quality = nominal\nt2_quality = nominal\n"
            "t3_tier = one_million\nt4_wireless = extremely_rural_only\n" + mistake)
        out = tmp_path / "out"
        proc = gigagap("run", "--scenario", str(config), "--out", str(out))
        assert proc.returncode == 1
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_scenario_config_with_byte_order_mark(self, tmp_path):
        text = ("t1_quality = guaranteed\nt2_quality = nominal\n"
                "t3_tier = one_million\nt4_wireless = all_three_rural\n"
                "docsis_upgrade = false\n")
        clean, marked = tmp_path / "clean.cfg", tmp_path / "marked.cfg"
        clean.write_text(text, encoding="utf-8")
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        scenario, name = cli._resolve_scenario(str(marked))
        assert (scenario, name) == (cli._resolve_scenario(str(clean))[0], "marked")
        assert scenario == Scenario(Quality.GUARANTEED, Quality.NOMINAL, T3Tier.ONE_MILLION,
                                    T4WirelessScope.ALL_THREE_RURAL, docsis_upgrade=False)

    def test_scenario_config_not_utf8_is_domain_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"t1_quality = nominal\xff\n")
        proc = gigagap("run", "--scenario", str(config), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "is not UTF-8 text" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_scenario_is_domain_error(self, tmp_path):
        proc = gigagap("run", "--scenario", "nope", "--out", str(tmp_path / "x"))
        assert proc.returncode == 1
        assert "neither a preset" in proc.stderr

    def test_target_filter(self, tmp_path):
        out = tmp_path / "t1"
        proc = gigagap("run", "--targets", "t1,t2b", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        with open(out / "gap_cells.csv", newline="") as fh:
            targets = {row["target"] for row in csv.DictReader(fh)}
        assert targets == {"T1", "T2_TRANSPORT"}
        payload = json.loads((out / "gap_summary.json").read_text())
        assert set(payload["totals_eur"]) == {"t1", "t2_transport"}

    def test_unknown_target_is_domain_error(self, tmp_path):
        proc = gigagap("run", "--targets", "t9", "--out", str(tmp_path / "x"))
        assert proc.returncode == 1
        assert "unknown target" in proc.stderr

    def test_missing_dataset_is_environment_error(self, tmp_path):
        proc = gigagap("run", "--dataset", "/nonexistent", "--out", str(tmp_path / "x"))
        assert proc.returncode == 2

    def test_dataset_from_environment_variable(self, fixture_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        proc = gigagap("validate", env={"GIGAGAP_DATA": str(data)})
        assert proc.returncode == 0
        assert proc.stdout.startswith("OK")

    def test_sharing_reduces_headline(self, baseline_out, tmp_path):
        out = tmp_path / "shared"
        proc = gigagap("run", "--sharing", "0.12", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert headline(out) < headline(baseline_out[0])

    def test_no_operator_omits_operator_block(self, tmp_path):
        out = tmp_path / "noop"
        proc = gigagap("run", "--no-operator", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "gap_summary.json").read_text())
        assert "operator" not in payload
        assert "residual public gap" not in proc.stdout

    def test_operator_overrides_change_residual(self, baseline_out, tmp_path):
        out = tmp_path / "op"
        proc = gigagap("run", "--operator-fixed-per-year", "1e8",
                       "--operator-wireless-per-year", "1e8", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "gap_summary.json").read_text())
        base = json.loads((baseline_out[0] / "gap_summary.json").read_text())
        # per-year 1e8 over 6 years, two thirds effective
        assert payload["operator"]["fixed_pool_eur"] == pytest.approx(4e8)
        assert payload["operator"]["residual_gap_eur"] > \
            base["operator"]["residual_gap_eur"]

    def test_bad_sharing_fails_before_loading(self, fixture_dir, tmp_path):
        # The dataset is broken, so an error about it would show the load ran.
        broken = tmp_path / "data"
        shutil.copytree(fixture_dir, broken)
        with open(broken / "regions.csv", "a", encoding="utf-8") as fh:
            fh.write("FR999\n")
        for args in (["--sharing", "0.5"], ["--sharing=0.5"], ["--sharing", "nan"]):
            proc = gigagap("run", *args, "--dataset", str(broken),
                           "--out", str(tmp_path / "out"))
            assert proc.returncode == 1, args
            assert "Traceback" not in proc.stderr
            assert re.search(r"sharing fraction \S+ outside \[0, 0\.12\]", proc.stderr), args
            assert "ERROR regions.csv" not in proc.stderr
            assert not (tmp_path / "out").exists()

    def test_relax_intervals_accepted(self, tmp_path):
        out = tmp_path / "relax"
        proc = gigagap("run", "--relax-intervals", "0.01", "--out", str(out))
        assert proc.returncode == 0, proc.stderr

    def test_locality_sum_mismatch_within_tolerance_warns_once(self, fixture_dir, tmp_path):
        # FR101's localities sum to 2,200,000 people; 12,100 more is 0.55 % off.
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        path = data / "localities.csv"
        text = path.read_text(encoding="utf-8")
        assert "FR101_L1,FR101,1200000," in text
        path.write_text(text.replace("FR101_L1,FR101,1200000,", "FR101_L1,FR101,1212100,"),
                        encoding="utf-8")
        proc = gigagap("run", "--dataset", str(data), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stderr.splitlines() if "FR101" in line]
        assert len(lines) == 1, proc.stderr
        assert "off by 0.55%" in lines[0]

    def test_overflowing_investment_is_domain_error(self, fixture_dir, tmp_path):
        # A finite unit cost whose product with a quantity is not.
        data = tmp_path / "data"
        shutil.copytree(fixture_dir, data)
        path = data / "cost_references.csv"
        text = path.read_text(encoding="utf-8")
        assert "\nFTTH_NEW,urban,EU,561," in text
        path.write_text(text.replace("\nFTTH_NEW,urban,EU,561,", "\nFTTH_NEW,urban,EU,1e308,"),
                        encoding="utf-8")
        proc = gigagap("run", "--dataset", str(data), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "total investment overflows" in proc.stderr
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--operator-fixed-per-year", "nan"),
    ("--operator-wireless-per-year", "-1e9"),
    ("--horizon-years", "-3"),
    ("--relax-intervals", "-0.5"),
    # pools over the horizon that are not finite floats
    ("--operator-fixed-per-year", "1e308"),
    pytest.param("--horizon-years", "1" + "0" * 400, id="--horizon-years-401-digits"),
])
def test_bad_run_option_is_domain_error(tmp_path, flag, value):
    # both spellings, since argparse reads a bare "-1e9" as an option
    for args in ([f"{flag}={value}"], [flag, value]):
        proc = gigagap("run", *args, "--out", str(tmp_path / "x"))
        assert proc.returncode == 1, args
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("args", [
    ("run", "--out", "{file}"),
    ("run", "--out", "{file}/sub"),
    ("compare", "{dir}", "{dir}"),
], ids=["out-is-a-file", "out-under-a-file", "summary-is-a-directory"])
def test_environment_error_exits_2_without_traceback(tmp_path, args):
    file = tmp_path / "file"
    file.write_text("")
    proc = gigagap(*(arg.format(file=file, dir=tmp_path) for arg in args))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, baseline_out, tmp_path):
        out2 = tmp_path / "again"
        proc = gigagap("run", "--out", str(out2))
        assert proc.returncode == 0, proc.stderr
        for name in OUTPUT_FILES:
            assert (baseline_out[0] / name).read_bytes() == (out2 / name).read_bytes()

    def test_hash_seed_does_not_change_output(self, tmp_path):
        outs = []
        for seed in ("0", "4242"):
            outs.append(tmp_path / f"hashseed{seed}")
            proc = gigagap("run", "--out", str(outs[-1]), env={"PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
        for name in OUTPUT_FILES:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_thread_count_is_byte_identical(self, baseline_out, tmp_path):
        out8 = tmp_path / "threads8"
        proc = gigagap("run", "--threads", "8", "--out", str(out8))
        assert proc.returncode == 0, proc.stderr
        for name in OUTPUT_FILES:
            assert (baseline_out[0] / name).read_bytes() == (out8 / name).read_bytes()


# sha256 of each output file of `gigagap run --scenario S` on the fixture,
# as written by CPython 3.10 and 3.11. Any change to these bytes must be
# deliberate, and then the digests are updated with it.
GOLDEN_DIGESTS = {
    "baseline": {
        "gap_cells.csv": "3f4af4de3ecbd4bbdf0666cb5a6fb2d1809649563905a9620fb00bc3b498e871",
        "gap_summary.json": "0ed8b1c5a42a833dcf47767d5982f14a8601340aeb208b8e7a2d7acd26ca30fb",
        "histogram.csv": "a4f36e504441c0e4453e0e7f064345d865e33e38dca2e4c01d80b3f14153396e",
        "evolution.json": "b7eecef041ea1f6e09d95e485f4226adc5e963d4e76cbc346140483ee5add2d3",
        "coverage_point.csv": "22da68daa44e8dd90ff52ce48b5f6356c4e51dc36c1c8111e02d4bb850f0b070",
        "cost_table.csv": "328748dbee1f524a0ccf1e778fc564557acf32369d60679cecad23adcf9a327e",
    },
    "max": {
        "gap_cells.csv": "cb5a14dae8f3e7bf441fa2370511277ecd3465c1256b87607cd9008d2a0a0827",
        "gap_summary.json": "0de75274844005bb9dc888a3ae8187d4eda2c8545a166ce497e08138364e698b",
        "histogram.csv": "a4f36e504441c0e4453e0e7f064345d865e33e38dca2e4c01d80b3f14153396e",
        "evolution.json": "d00c28b1815f7d82405540369533a5022fc2020aa4de5792de7d8af33380125f",
        "coverage_point.csv": "22da68daa44e8dd90ff52ce48b5f6356c4e51dc36c1c8111e02d4bb850f0b070",
        "cost_table.csv": "328748dbee1f524a0ccf1e778fc564557acf32369d60679cecad23adcf9a327e",
    },
    "min": {
        "gap_cells.csv": "dfab6291061173be6a014ff5327ec322d1b80f1d449830b326a8625307cd4086",
        "gap_summary.json": "9c60c3b59cab52cf9d6de73e04ac8e62ee9f2f8dd4f9314dad5263bed1df27ec",
        "histogram.csv": "a4f36e504441c0e4453e0e7f064345d865e33e38dca2e4c01d80b3f14153396e",
        "evolution.json": "11001804e5171607844f4fd37fa96f74363f430da053f0c9540c58b332003166",
        "coverage_point.csv": "22da68daa44e8dd90ff52ce48b5f6356c4e51dc36c1c8111e02d4bb850f0b070",
        "cost_table.csv": "328748dbee1f524a0ccf1e778fc564557acf32369d60679cecad23adcf9a327e",
    },
}


@pytest.mark.xfail(sys.version_info >= (3, 12), strict=True,
                   reason="sum() over floats is compensated from CPython 3.12 on, "
                          "which moves the last digits of 4 of the 6 files")
@pytest.mark.parametrize("scenario", sorted(GOLDEN_DIGESTS))
def test_fixture_outputs_match_golden_digests(tmp_path, scenario):
    proc = gigagap("run", "--scenario", scenario, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in OUTPUT_FILES}
    assert digests == GOLDEN_DIGESTS[scenario]


@pytest.fixture(scope="module")
def later_vintage_out(fixture_dir, tmp_path_factory):
    """Same fixture relabeled as a 2021 coverage vintage."""
    data = tmp_path_factory.mktemp("data2021")
    for item in Path(fixture_dir).iterdir():
        shutil.copy(item, data / item.name)
    for name in ("coverage_intervals.csv", "coverage_national.csv"):
        rows = list(csv.reader((data / name).open(newline="")))
        vintage_col = rows[0].index("vintage")
        for row in rows[1:]:
            row[vintage_col] = "2021"
        with open(data / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    out = tmp_path_factory.mktemp("out2021")
    proc = gigagap("run", "--dataset", str(data), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


class TestCompare:
    def test_identical_summaries_print_zero_deltas_and_fail(self, baseline_out):
        summary = str(baseline_out[0] / "gap_summary.json")
        proc = gigagap("compare", summary, summary)
        assert proc.returncode == 1
        assert "nothing to compare" in proc.stderr
        assert re.search(r"t1: (-)?0\.0 bEUR", proc.stdout)

    def test_two_vintages_print_trend(self, baseline_out, later_vintage_out, tmp_path):
        proc = gigagap("compare",
                       str(baseline_out[0] / "gap_summary.json"),
                       str(later_vintage_out / "gap_summary.json"),
                       "--out", str(tmp_path / "evo"))
        assert proc.returncode == 0, proc.stderr
        assert "vintage 2019" in proc.stdout
        assert "vintage 2021" in proc.stdout
        assert "slope:" in proc.stdout
        assert "gap closes around:" in proc.stdout
        payload = json.loads((tmp_path / "evo" / "evolution.json").read_text())
        assert payload["format"] == "gigagap-evolution-v1"
        assert [p["vintage"] for p in payload["points"]] == [2019, 2021]

    @pytest.mark.parametrize("later, first_total, later_total", [
        (2020, 1e308, 0.0), (2020, 0.0, 1e308), (10**400, 1.0, 2.0),
    ], ids=["crossing-overflows", "extrapolation-is-nan", "vintage-beyond-float"])
    def test_trend_that_is_not_finite_is_domain_error(self, baseline_out, tmp_path, capsys,
                                                      later, first_total, later_total):
        summary = json.loads((baseline_out[0] / "gap_summary.json").read_text())
        paths = []
        for i, (vintage, total) in enumerate(((2019, first_total), (later, later_total))):
            summary["vintage"] = vintage
            summary["totals_eur"]["egs_premises_companies"] = total
            paths.append(tmp_path / f"summary-{i}.json")
            paths[-1].write_text(json.dumps(summary))
        out = tmp_path / "evo"
        assert cli.main(["compare", *map(str, paths), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_missing_summary_file_is_environment_error(self, tmp_path):
        proc = gigagap("compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
        assert proc.returncode == 2

    @pytest.mark.parametrize("content", [
        '{"format": "gigagap-summary-v1", "vintage": 20',
        '{"format": "gigagap-summary-v1"}',
        '{"format": "gigagap-summary-v1", "vintage": 2019, "totals_eur": {"t1": "lots"}}',
        '{"format": "gigagap-summary-v1", "vintage": 2019, "scenario": {'
        '"t1_quality": "superb", "t2_quality": "nominal", "t3_tier": "all_enterprises", '
        '"t4_wireless": "extremely_rural_only", "docsis_upgrade": true}}',
        '["gigagap-summary-v1"]',
        '{"format": "gigagap-summary-v1", "vintage": true}',
        '{"format": "gigagap-summary-v1", "vintage": Infinity}',
        '{"format": "gigagap-summary-v1", "vintage": 2021, "totals_eur": {"t1": NaN}}',
        '{"format": "gigagap-summary-v1", "vintage": 2021, "country_totals_eur": {"FR": Infinity}}',
        '{"format": "gigagap-summary-v1", "vintage": 2021, "totals_eur": '
        '{"egs_premises_companies": true}}',
        '{"format": "gigagap-summary-v1", "vintage": 2021, "country_totals_eur": {"FR": false}}',
        '{"format": "gigagap-summary-v1", "vintage": 2021, "totals_eur": {"t1": "12"}}',
        '{"format": "gigagap-summary-v1", "vintage": 2021, "totals_eur": {"t1": 1' + "0" * 400 + '}}',
    ], ids=["truncated", "missing-key", "bad-total", "bad-enum", "not-an-object",
            "bool-vintage", "infinite-vintage", "nan-total", "infinite-country-total",
            "bool-total", "bool-country-total", "string-total", "huge-integer-total"])
    def test_malformed_summary_is_domain_error(self, baseline_out, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        good = str(baseline_out[0] / "gap_summary.json")
        for args in ((str(bad), good), (good, str(bad))):
            proc = gigagap("compare", *args)
            assert proc.returncode == 1
            assert "Traceback" not in proc.stderr
            assert str(bad) in proc.stderr
