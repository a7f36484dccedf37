"""Seeded EU-scale synthetic dataset, written as the nine CSVs.

The make-up follows ``tests/datagen.py`` scaled to EU size: the 28
countries of the package's bundled EU-28 tables, 48 regions each, 63
localities per region and 8 coverage technologies. Each country's road
and rail km, preparedness steps, dominant fixed technology and DOCSIS
and fibre bands are read from those tables; regions, localities,
enterprises and coverage are drawn from the seed. Coverage is feasible
by construction: every national figure lies strictly inside the
premises-weighted hull of its regional bands. Floats are written with
``repr`` so they read back bit for bit.

The generator imports nothing from the package; it reads the bundled
EU-28 tables as files, and copies the cost references and price index
from the bundled defaults.

    python perfbench/datagen.py SEED OUT_DIR [CORRUPTED_DIR]

writes the dataset to OUT_DIR and, if given, one corrupted copy per
entry of CORRUPTIONS under CORRUPTED_DIR. The benchmark runs it as a
child process, so that its own peak memory stays small: a child's peak
RSS as the kernel reports it is at least that of the process that
started it.
"""

from __future__ import annotations

import csv
import random
import shutil
import sys
from pathlib import Path

REGIONS_PER_COUNTRY = 48
LOCALITIES_PER_REGION = 63
VINTAGE = 2019

TECHNOLOGIES = ("FTTH_100M", "FTTH_1G", "FTTB", "FTTC_ADV_DSL",
                "DOCSIS_30", "DOCSIS_31", "LTE", "FIVE_G")
SIZE_CLASSES = ("0-9", "10-19", "20-49", "50-249", "250+")
# Published bands minus the degenerate (1, 1), as in tests/datagen.py.
BANDS = ((0.0, 0.35), (0.35, 0.65), (0.65, 0.95), (0.95, 1.0))
_CLASS_SHARES = (0.90, 0.05, 0.03, 0.015, 0.005)

DEFAULTS_DIR = Path("src") / "gigagap" / "data" / "defaults"
EU28_DIR = Path("src") / "gigagap" / "data" / "eu28"


def eu28_countries(root: Path) -> dict[str, dict[str, str]]:
    """The bundled EU-28 tables merged into one row per country code."""
    merged: dict[str, dict[str, str]] = {}
    for name in ("transport.csv", "preparedness.csv", "tech_choices.csv",
                 "cable_fibre.csv"):
        with open(root / EU28_DIR / name, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                merged.setdefault(row["country"], {}).update(row)
    return merged


def generate(seed: int, root: Path) -> dict:
    """Return the dataset as rows per file name (header first)."""
    rng = random.Random(seed)
    eu28 = eu28_countries(root)
    countries, regions, localities, enterprises = [], [], [], []
    cohesion, intervals, national = [], [], []

    total_enterprises = rng.uniform(20e6, 26e6)
    weights = [rng.uniform(0.5, 1.5) for _ in eu28]
    weight_sum = sum(weights)

    for ci, (code, ref) in enumerate(eu28.items()):
        member = []  # (region id, population, households)
        for ri in range(REGIONS_PER_COUNTRY):
            rid = f"{code}{ri:03d}"
            pop = area = 0.0
            for li in range(LOCALITIES_PER_REGION):
                kind = rng.random()
                if kind < 0.3:
                    degurba, density = "urban", 10 ** rng.uniform(2.8, 3.8)
                elif kind < 0.6:
                    degurba, density = "suburban", 10 ** rng.uniform(2.0, 3.0)
                else:
                    degurba, density = "rural", 10 ** rng.uniform(0.3, 2.5)
                lpop = 10 ** rng.uniform(2.3, 4.3)
                larea = lpop / density
                localities.append((f"{rid}_L{li}", rid, lpop, larea, degurba))
                pop += lpop
                area += larea
            households = pop * rng.uniform(0.38, 0.50)
            regions.append((rid, code, pop, area, households))
            cohesion.append((rid, "true" if rng.random() < 0.4 else "false"))
            member.append((rid, pop, households))

        countries.append((
            code, rng.uniform(0.7, 1.4),
            float(ref["geographic"]), float(ref["housing"]), float(ref["regulation"]),
            ref["dominant_fixed_tech"], float(ref["road_km"]), float(ref["rail_km"]),
            member[0][0], ref["docsis_band"], ref["fttp_band"],
        ))

        country_total = total_enterprises * weights[ci] / weight_sum
        shares = [s * rng.uniform(0.8, 1.2) for s in _CLASS_SHARES]
        norm = sum(shares)
        counts = [country_total * s / norm for s in shares]
        for sc, n in zip(SIZE_CLASSES, counts):
            enterprises.append((code, sc, n))

        # Coverage weight is premises: households plus enterprise
        # locations spread by population share.
        country_pop = sum(p for _, p, _ in member)
        locations = sum(counts)
        for tech in TECHNOLOGIES:
            hull_lo = hull_hi = total_w = 0.0
            for rid, pop, households in member:
                low, high = rng.choice(BANDS)
                intervals.append((rid, tech, low, high, VINTAGE))
                w = households + locations * pop / country_pop
                hull_lo += w * low
                hull_hi += w * high
                total_w += w
            hull_lo /= total_w
            hull_hi /= total_w
            figure = hull_lo + rng.uniform(0.05, 0.95) * (hull_hi - hull_lo)
            national.append((code, tech, figure, VINTAGE))

    return {
        "regions.csv": [("id", "country", "population", "area_km2", "households")]
        + regions,
        "localities.csv": [("id", "region", "population", "area_km2", "degurba")]
        + localities,
        "countries.csv": [("code", "labour_index", "prep_geo", "prep_housing",
                           "prep_regulation", "dominant_fixed_tech", "road_km",
                           "rail_km", "capital_region", "docsis_band", "fttp_band")]
        + countries,
        "enterprises.csv": [("country", "size_class", "count")] + enterprises,
        "coverage_intervals.csv": [("region", "technology", "band_low", "band_high",
                                    "vintage")] + intervals,
        "coverage_national.csv": [("country", "technology", "coverage", "vintage")]
        + national,
        "cohesion.csv": [("region", "is_cohesion")] + cohesion,
    }


def _cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_rows(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def write_dataset(tables: dict, out_dir: Path, root: Path) -> None:
    """Write the generated tables plus the bundled default cost data."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, rows in tables.items():
        write_rows(out_dir / name, rows)
    for name in ("cost_references.csv", "price_index.csv"):
        shutil.copyfile(root / DEFAULTS_DIR / name, out_dir / name)


# Corrupted copies for the validate workload: (name, file, edit, fault).
# Each edit takes the file's rows (header first) and returns new rows.
def _unknown_region(rows):
    rows = list(rows)
    rows[5] = (rows[5][0], "ZZ999") + tuple(rows[5][2:])
    return rows


def _locality_sum(rows):
    rows = list(rows)
    rid, code, pop, area, households = rows[7]
    rows[7] = (rid, code, pop * 1.05, area, households)
    return rows


def _band_inverted(rows):
    rows = list(rows)
    region, tech, _, _, vintage = rows[3]
    rows[3] = (region, tech, 0.65, 0.35, vintage)
    return rows


def _nan_households(rows):
    rows = list(rows)
    rid, code, pop, area, _ = rows[2]
    rows[2] = (rid, code, pop, area, float("nan"))
    return rows


CORRUPTIONS = (
    ("unknown-region", "localities.csv", _unknown_region, None),
    ("locality-sum", "regions.csv", _locality_sum, None),
    ("band-inverted", "coverage_intervals.csv", _band_inverted, None),
    ("nan-households", "regions.csv", _nan_households,
     "dataio._parse_float accepts non-finite values, so a nan household "
     "count passes validation"),
)


def write_corrupted(tables: dict, clean_dir: Path, out_root: Path) -> None:
    """One copy of the clean directory per corruption, each with one file edited."""
    for name, filename, edit, _fault in CORRUPTIONS:
        target = out_root / name
        shutil.copytree(clean_dir, target)
        write_rows(target / filename, [tables[filename][0]] + edit(tables[filename][1:]))


if __name__ == "__main__":
    seed, out_dir = int(sys.argv[1]), Path(sys.argv[2])
    root = Path(__file__).resolve().parent.parent
    tables = generate(seed, root)
    write_dataset(tables, out_dir, root)
    if len(sys.argv) > 3:
        write_corrupted(tables, out_dir, Path(sys.argv[3]))
