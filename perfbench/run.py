#!/usr/bin/env python3
"""The depctx benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports ``depctx`` from
``src/`` and the sentence templates from ``tools/make_fixtures.py``, and
exits with status 2 when they are missing. Inputs are made from ``--seed``
by a child process, in a temporary directory under ``.perfbench_work/``,
which is removed at the end. One caller drives the program in a closed loop: passes of the workload
run back to back for about ``--seconds`` (at least one pass), each with
fresh cache and output directories, and each metric is the median over
passes. Times are corrected for CPU contention from other tenants of the
host; see ``clock.py``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics of the traced ones
and the tracing overhead, and writes the spans to ``.perfbench_out/``. The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from clock import Calibrator

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("search-smoke", "train-paper", "extract-corpus")
SETUP_REPEATS = 9
# Each fresh interpreter takes about 0.1 s, so a shorter speed measurement
# around it keeps set-up cheap.
SETUP_CALIBRATION_S = 0.1

# Program set-up as a user pays it, in a fresh interpreter: import depctx,
# load the experiment file, construct the Experiment.
SETUP_CODE = """
import sys
from time import perf_counter
start = perf_counter()
sys.path.insert(0, sys.argv[1])
from depctx import pipeline
pipeline.Experiment(pipeline.load_experiment_config(sys.argv[2]))
print(perf_counter() - start)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: write the inputs into this directory and print their facts,
    # so that generating them never counts in the measured process's memory.
    parser.add_argument("--prepare-in", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def _blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, asked of the library."""
    import ctypes

    maps = _read(Path("/proc/self/maps"))
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def context_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.partition(":")[2].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "type") != "Instruction":
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        head = _read(ROOT / ".git" / head[5:])
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "commit": head,
        "wait_s": "not applicable: no layer has a queue",
    }


def measure_setup(config_path: Path, calibrator: Calibrator) -> list[float]:
    """Raw set-up seconds of each fresh interpreter."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds.append(float(done.stdout))
        calibrator.measure(SETUP_CALIBRATION_S)
    return seconds


def prepare(args, workdir: Path) -> tuple[Path, dict]:
    """Writes the inputs in a child process; returns the experiment file and
    the input facts."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--prepare-in", str(workdir)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    prepared = json.loads(done.stdout.splitlines()[-1])
    return Path(prepared["config"]), prepared["facts"]


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [SRC / "depctx" / "__init__.py", ROOT / "tools" / "make_fixtures.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a depctx source checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    # load_experiment_config lets this variable replace cache_dir, which would
    # turn a cold run into a warm one; child processes inherit the removal.
    os.environ.pop("DEPCTX_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    import inputs
    import workloads
    from depctx import pipeline
    from tracing import Tracer

    logging.getLogger("depctx").setLevel(logging.ERROR)
    skips = workloads.SkipCounter()
    conllu_log = logging.getLogger("depctx.conllu")
    conllu_log.setLevel(logging.WARNING)
    conllu_log.propagate = False
    conllu_log.addHandler(skips)

    def make_workload(workdir):
        return workloads.WORKLOADS[args.workload](
            inputs.load_fixture_module(ROOT), workdir, args.seed, skips
        )

    if args.prepare_in:
        workload = make_workload(Path(args.prepare_in))
        config_path = workload.prepare()
        print(json.dumps({"config": str(config_path), "facts": workload.facts}))
        return 0

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = make_workload(workdir)
        config_path, workload.facts = prepare(args, workdir)
        cfg = pipeline.load_experiment_config(config_path)
        calibrator = Calibrator()
        calibrator.measure(SETUP_CALIBRATION_S)
        setup_s = measure_setup(config_path, calibrator)

        plain, traced, layer_runs, span_dumps = [], [], [], []
        checks: dict[str, tuple[bool, str]] = {}
        attempted = failed = 0
        peak_rss_mb = 0.0
        start = perf_counter()
        i = 0
        while True:
            tracer = Tracer() if args.trace and i % 2 else None
            pass_dir = workdir / f"pass{i}"
            pass_cfg = replace(
                cfg, cache_dir=str(pass_dir / "cache"), out_dir=str(pass_dir / "out")
            )
            undo = tracer.install(workloads.trace_targets()) if tracer else None
            skipped = skips.count
            try:
                result = workload.run_pass(pass_cfg, workloads.Stopwatch(calibrator, tracer))
            except Exception:
                traceback.print_exc()
                attempted += 1
                failed += 1
                break
            finally:
                if undo:
                    undo()
                shutil.rmtree(pass_dir, ignore_errors=True)
            attempted += result.operations
            pass_checks = result.checks
            if tracer:
                metrics, span_checks = workloads.layer_metrics(tracer, skips.count - skipped)
                metrics["trace.wall_s"] = sum(result.wall)
                metrics["pipeline.warm_s"] = result.warm
                layer_runs.append(metrics)
                pass_checks += span_checks
                span_dumps.append([s.as_dict() for s in tracer.spans])
                traced.append(result)
            else:
                plain.append(result)
            if i == 0:
                # Later passes reuse a heap the first one fragmented; the
                # first pass's peak is the one every run measures alike.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for name, ok, detail in pass_checks:
                if checks.get(name, (True, ""))[0]:
                    checks[name] = (ok, detail)
            i += 1
            # Start another pass only if it should end within --seconds, as
            # long as the minimum of passes (one of each kind) is met.
            elapsed = perf_counter() - start
            if elapsed * (i + 1) / i > args.seconds and (not args.trace or i >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def median(values):
        return statistics.median(values) if values else 0.0

    factor = calibrator.factor

    def wall(runs):
        return median([sum(r.wall) for r in runs]) * factor

    if args.trace:
        names = layer_runs[0] if layer_runs else {}
        metrics = {name: median([run[name] for run in layer_runs]) for name in names}
        if layer_runs:
            metrics["pipeline.warm_s"] *= factor
        metrics["trace.overhead_s"] = wall(traced) - wall(plain)
        SPANS.mkdir(exist_ok=True)
        spans_path = SPANS / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(span_dumps), encoding="utf-8")
    else:
        metrics = {
            "wall_s": wall(plain),
            "setup_s": median(setup_s) * factor,
            "peak_rss_mb": peak_rss_mb,
            "items_per_s": median([r.items / r.item_step for r in plain]) / factor,
        }

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    # A failed pass may leave metrics unmeasured; the result then says so.
    undeclared = set(metrics) - set(units)
    if undeclared or (set(units) - set(metrics) and not failed):
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1
    metrics = {name: metrics.get(name, 0.0) for name in units}
    runs = plain + traced
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(runs)} operations={attempted} failed={failed}")
    print("context " + json.dumps(context_facts()))
    print("facts " + json.dumps({
        **workload.facts, **(runs[-1].facts if runs else {}),
        "raw_wall_s": median([sum(r.wall) for r in plain]),
        "warm_s": median([r.warm for r in plain]) * factor,
        "contention_factor": factor,
    }))
    if args.trace:
        print(f"spans {spans_path.relative_to(ROOT)}")
        traced_wall = metrics["trace.wall_s"] or 1.0
        ingest = metrics["conllu.self_s"] + metrics["extraction.self_s"]
        print(f"share of traced wall_s: sgns.train {metrics['sgns.train.busy_s'] / traced_wall:.3f}, "
              f"conllu+extraction {ingest / traced_wall:.3f}")
    for name, (ok, detail) in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name} ({detail})")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    correct = bool(runs) and failed == 0 and all(ok for ok, _ in checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
