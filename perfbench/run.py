"""Stage-by-stage benchmark of gigagap on a seeded EU-scale dataset.

    python3 perfbench/run.py --workload eu-run --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the package is taken from
./src, the oracle from ./tests/oracle.py). The last line of standard
output is one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, measured with tracing
off; with --trace 1 they are the per-layer ones plus the tracing
overhead. See perfbench/README.md for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import datagen  # noqa: E402
from reference import HostClock  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402

CHILD_TIMEOUT_S = 120.0  # a hung child fails the run well inside 180 s
RUN_SETUP_REPS = 2
RUN_MIN_ROUNDS = 2  # so op_s and variant_s are medians of at least two runs
VALIDATE_SETUP_REPS = 5
SWEEP_SETUP_REPS = 3

SWEEP_PRESETS = ("baseline", "max", "min")
SWEEP_SHARING = (0.0, 0.06, 0.12)
# "default" is the model's own operator assumption. "fixed-ample" gives
# a fixed pool larger than every fixed cell together and a wireless pool
# that runs out partway, so each pool is seen both exhausted and not.
SWEEP_OPERATORS = (
    ("default", {}),
    ("fixed-ample", {"fixed_per_year_eur": 1e12, "wireless_per_year_eur": 2e9}),
)


class Bench:
    """State of one benchmark invocation: work directory and tallies."""

    def __init__(self, work: Path, seconds: float):
        self.work = work
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.expected_failures: Counter[str] = Counter()

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """Run a child to completion: (exit code, wall s, peak RSS MB)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, stdout=out,
                                    stderr=subprocess.STDOUT, cwd=ROOT, env=env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def gigagap(self, args: list[str], log: Path, traced: bool = False):
        """One CLI call: (exit code, wall s, peak RSS MB, per-layer result)."""
        trace_path = log.with_suffix(".trace.json")
        argv = ([str(HERE / "child.py"), "cli", str(trace_path), "--"] if traced
                else ["-m", "gigagap"]) + args
        code, wall, rss = self.spawn(argv, log)
        traced_result = {}
        if traced and trace_path.is_file():
            traced_result = json.loads(trace_path.read_text(encoding="utf-8"))
        return code, wall, rss, traced_result

    def op(self, ok: bool, what: str, expected_fault: str | None = None) -> None:
        """Count one operation; a failure with a known cause is named."""
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if expected_fault:
            self.expected_failures[f"{what}: {expected_fault}"] += 1
        else:
            self.errors.append(f"operation failed: {what}")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(op_s: float, variant_s: float, setup_s: float, rss_mb: float,
                factor: float, ops: int, measured_s: float) -> dict:
    """Metrics from wall times, which `factor` scales to the reference host
    speed (see reference.py); ops_per_s is `ops` over `measured_s`."""
    print(f"host speed factor {factor:.4f}: wall times are scaled by it")
    return {
        "op_s": _metric(op_s * factor, "s"),
        "variant_s": _metric(variant_s * factor, "s"),
        "ops_per_s": _metric(ops / (measured_s * factor), "1/s"),
        "setup_s": _metric(setup_s * factor, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def _layer_output(layers: dict, import_s: float, overhead_s: float) -> dict:
    out = {name: _metric(layers.get(name, 0.0), unit) for name, unit in LAYER_UNITS.items()}
    out["cli.import_s"] = _metric(import_s, "s")
    out["trace.overhead_s"] = _metric(overhead_s, "s")
    return out


def _median_layers(samples: list[dict]) -> dict:
    return {name: statistics.median(s.get(name, 0.0) for s in samples)
            for name in LAYER_UNITS}


def _make_dataset(bench: Bench, seed: int, corrupted: bool = False) -> Path:
    """Generate the dataset in a child process (see datagen.py for why)."""
    data = bench.work / "data"
    argv = [str(HERE / "datagen.py"), str(seed), str(data)]
    if corrupted:
        argv.append(str(bench.work / "corrupt"))
    code, _, _ = bench.spawn(argv, bench.work / "datagen.log")
    if code != 0:
        raise RuntimeError(f"dataset generation exited {code}")
    return data


def _rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


# ---------------------------------------------------------------------------
# eu-run: gigagap run --threads 1 and --threads 2

def _run_args(data: Path, out: Path, threads: int) -> list[str]:
    return ["run", "--dataset", str(data), "--out", str(out), "--threads", str(threads)]


def workload_run(bench: Bench, seed: int, trace: bool) -> dict:
    data = _make_dataset(bench, seed)
    w = bench.work
    clock = None if trace else HostClock()

    # Set-up: the first runs, each on a fresh copy of the dataset.
    setup = []
    for i in range(1 if trace else RUN_SETUP_REPS):
        copy = shutil.copytree(data, w / f"setup{i}")
        code, wall, _, _ = bench.gigagap(_run_args(copy, w / f"setup{i}-out", 1),
                                         w / f"setup{i}.log")
        if code != 0:
            bench.errors.append(f"set-up run {i} exited {code}")
        setup.append(wall)
        if clock:
            clock.sample()

    runs = {1: [], 2: []}  # untraced wall times
    rss, traced_t1_walls, traced_t1, traced_t2, imports = [], [], [], [], []
    measured, rounds = 0.0, 0
    while rounds < RUN_MIN_ROUNDS or measured < bench.seconds:
        # One round: (untraced --threads 1 when tracing,) --threads 1, --threads 2.
        rounds += 1
        if trace:
            code, wall, _, _ = bench.gigagap(_run_args(data, w / "untraced", 1),
                                             w / "untraced.log")
            bench.op(code == 0, "run --threads 1 (untraced)")
            runs[1].append(wall)
            measured += wall
        for threads in (1, 2):
            out = w / f"t{threads}"
            shutil.rmtree(out, ignore_errors=True)
            code, wall, peak, traced = bench.gigagap(_run_args(data, out, threads),
                                                     w / f"t{threads}.log", traced=trace)
            if not trace:
                runs[threads].append(wall)
                rss.append(peak)
                clock.sample()
            elif threads == 1:
                traced_t1_walls.append(wall)
                imports.append(traced.get("import_s", float("nan")))
                traced_t1.append(traced.get("layers", {}))
            else:
                traced_t2.append(traced.get("layers", {}))
            bench.op(code == 0, f"run --threads {threads}")
            measured += wall
        differ = checks.identical_outputs(w / "t1", w / "t2")
        if differ:
            bench.errors.append("--threads 1 and --threads 2 outputs differ or are missing: "
                                + ", ".join(differ))

    # The oracle runs in this process only after the timed children: a
    # child's peak RSS as the kernel reports it includes this process's.
    want = checks.oracle_totals(ROOT, data, ["baseline"], CACHE)["baseline"]
    bench.errors.extend(checks.check_run_output(w / "t1", want))

    if trace:
        layers = _median_layers(traced_t1)
        for name in ("parallel.ordered_map_s", "parallel.items"):
            layers[name] = statistics.median(s.get(name, 0.0) for s in traced_t2)
        overhead = statistics.median(traced_t1_walls) - statistics.median(runs[1])
        return _layer_output(layers, statistics.median(imports), overhead)
    return _end_to_end(statistics.median(runs[1]), statistics.median(runs[2]),
                       statistics.median(setup), max(rss), clock.factor(),
                       len(runs[1]) + len(runs[2]), sum(runs[1]) + sum(runs[2]))


# ---------------------------------------------------------------------------
# eu-sweep: load once, prepare per sharing value, run_scenario per point

def workload_sweep(bench: Bench, seed: int, trace: bool) -> dict:
    data = _make_dataset(bench, seed)
    w = bench.work
    operators = [name for name, _ in SWEEP_OPERATORS]
    grid = len(SWEEP_PRESETS) * len(SWEEP_SHARING) * len(operators)
    config = {
        "dataset": str(data), "presets": SWEEP_PRESETS, "sharing": SWEEP_SHARING,
        "operators": SWEEP_OPERATORS, "setup_reps": 1 if trace else SWEEP_SETUP_REPS,
        "seconds": bench.seconds, "trace": trace,
    }
    (w / "sweep.json").write_text(json.dumps(config), encoding="utf-8")
    result_path = w / "sweep-result.json"
    code, _, rss = bench.spawn([str(HERE / "child.py"), "sweep", str(w / "sweep.json"),
                                str(result_path)], w / "sweep.log")
    if code != 0 or not result_path.is_file():
        for _ in range(grid):
            bench.op(False, "sweep point")
        bench.errors.append(f"sweep child exited {code}; see its log for the traceback")
        return {}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    for _ in result["points"]:
        bench.op(True, "sweep point")
    for _ in result.get("traced_point_times", []):
        bench.op(True, "sweep point (traced)")

    oracle = checks.oracle_totals(ROOT, data, SWEEP_PRESETS, CACHE)
    for r in range(len(result["points"]) // grid):
        bench.errors.extend(checks.check_sweep(
            result["points"][r * grid:(r + 1) * grid], oracle,
            SWEEP_PRESETS, SWEEP_SHARING, operators))

    # A round is the grid points plus the prepare_inputs calls between them.
    points, prepares = result["point_times"], iter(result["prepare_times"])
    round_s = (sum(result["prepare_times"]) + sum(points)) / result["rounds"]
    if trace:
        overhead = (sum(result["traced_prepare_times"]) + sum(result["traced_point_times"])
                    - round_s)
        return _layer_output(result["layers"], result["import_s"], overhead)
    # The points are 18 different scenarios, so op_s is their mean, not
    # the median of one repeated operation. variant_s is the median time
    # of a further sharing value: its prepare_inputs and its points.
    per_value = len(SWEEP_PRESETS) * len(operators)
    further = [next(prepares) + sum(points[i:i + per_value])
               for i in range(0, len(points), per_value)
               if i // per_value % len(SWEEP_SHARING)]
    return _end_to_end(statistics.fmean(points), statistics.median(further),
                       statistics.median(result["setup_times"]), rss, result["factor"],
                       len(points), round_s * result["rounds"])


# ---------------------------------------------------------------------------
# eu-validate: gigagap validate on the clean directory and corrupted copies

def workload_validate(bench: Bench, seed: int, trace: bool) -> dict:
    data = _make_dataset(bench, seed, corrupted=True)
    w = bench.work
    corrupted = [(name, w / "corrupt" / name, fault)
                 for name, _file, _edit, fault in datagen.CORRUPTIONS]
    ok_line = (f"OK: {_rows(data / 'regions.csv')} regions, "
               f"{_rows(data / 'countries.csv')} countries, "
               f"{_rows(data / 'localities.csv')} localities")

    clock = None if trace else HostClock()

    def validate(directory: Path, name: str, traced: bool = False):
        """(exit code, wall s, peak RSS MB, output, traced result)"""
        log = w / f"validate-{name}{'-traced' if traced else ''}.log"
        code, wall, peak, result = bench.gigagap(["validate", "--dataset", str(directory)],
                                                 log, traced=traced)
        return code, wall, peak, log.read_text(encoding="utf-8", errors="replace"), result

    # Set-up: the first validate calls, each on a fresh copy.
    setup = []
    for i in range(1 if trace else VALIDATE_SETUP_REPS):
        code, wall, _, text, _ = validate(shutil.copytree(data, w / f"setup{i}"), f"setup{i}")
        if code != 0 or ok_line not in text:
            bench.errors.append(f"set-up validate {i} exited {code}")
        setup.append(wall)
    if clock:
        clock.sample()

    clean, broken, rss = [], [], []  # untraced wall times
    traced_clean, traced_layers, imports = [], [], []
    measured = 0.0
    while not measured or measured < bench.seconds:
        # One round: the clean directory before each corrupted copy; when
        # tracing, the same eight calls again under the tracer.
        for traced in (False, True) if trace else (False,):
            for name, directory, fault in corrupted:
                code, clean_wall, peak, text, result = validate(data, "clean", traced)
                bench.op(code == 0 and ok_line in text, "validate clean")
                if traced:
                    traced_clean.append(clean_wall)
                    imports.append(result.get("import_s", float("nan")))
                    traced_layers.append(result.get("layers", {}))
                else:
                    rss.append(peak)
                code, broken_wall, peak, text, _ = validate(directory, name, traced)
                # Exit 0 on a copy with a known, unmended fault is that fault.
                bench.op(code == 1 and "FAILED" in text, f"validate {name}",
                         fault if code == 0 else None)
                measured += clean_wall + broken_wall
                if not traced:
                    clean.append(clean_wall)
                    broken.append(broken_wall)
                    rss.append(peak)
                if clock:
                    clock.sample()

    if trace:
        overhead = statistics.median(traced_clean) - statistics.median(clean)
        return _layer_output(_median_layers(traced_layers), statistics.median(imports),
                             overhead)
    return _end_to_end(statistics.median(clean), statistics.median(broken),
                       statistics.median(setup), max(rss), clock.factor(),
                       len(clean) + len(broken), sum(clean) + sum(broken))


WORKLOADS = {"eu-run": workload_run, "eu-sweep": workload_sweep,
             "eu-validate": workload_validate}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/gigagap/__init__.py", "tests/oracle.py",
                           str(datagen.DEFAULTS_DIR / "cost_references.csv"),
                           str(datagen.EU28_DIR / "transport.csv"))
               if not (ROOT / p).is_file()]
    if missing:
        print("error: run from a gigagap source checkout; missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2

    # A terminated run still stops its child and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(work, args.seconds)
    try:
        metrics = WORKLOADS[args.workload](bench, args.seed, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    for what, n in sorted(bench.expected_failures.items()):
        print(f"expected failure ({n}x), known fault: {what}")
    for problem in bench.errors:
        print(f"ERROR: {problem}")
    print(json.dumps({"correct": not bench.errors, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
