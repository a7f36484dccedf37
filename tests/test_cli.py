import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


class TestRun:
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

    def test_relax_intervals_accepted(self, tmp_path):
        out = tmp_path / "relax"
        proc = gigagap("run", "--relax-intervals", "0.01", "--out", str(out))
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flag, value", [
    ("--operator-fixed-per-year", "nan"),
    ("--operator-wireless-per-year", "-1e9"),
    ("--horizon-years", "-3"),
    ("--relax-intervals", "-0.5"),
])
def test_bad_run_option_is_domain_error(tmp_path, flag, value):
    # both spellings, since argparse reads a bare "-1e9" as an option
    for args in ([f"{flag}={value}"], [flag, value]):
        proc = gigagap("run", *args, "--out", str(tmp_path / "x"))
        assert proc.returncode == 1, args
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")
        assert not (tmp_path / "x").exists()


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
    ], ids=["truncated", "missing-key", "bad-total", "bad-enum", "not-an-object"])
    def test_malformed_summary_is_domain_error(self, baseline_out, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        good = str(baseline_out[0] / "gap_summary.json")
        for args in ((str(bad), good), (good, str(bad))):
            proc = gigagap("compare", *args)
            assert proc.returncode == 1
            assert "Traceback" not in proc.stderr
            assert str(bad) in proc.stderr
