"""End-to-end benchmark: four workloads through the public entry points.

Usage (from the repository root)::

    python benchmarks/e2e/run.py --seed 0                        # all workloads
    python benchmarks/e2e/run.py --seed 0 --workload hooi-svd
    python benchmarks/e2e/run.py --seed 0 --trace trace.jsonl    # per-layer run
    python benchmarks/e2e/run.py --seed 0 --out runs.jsonl       # keep records

Each workload runs in its own process with the BLAS pinned to one thread.
Every metric is printed as ``workload metric value unit``; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` or ``--trace PATH`` makes the traced run,
which reports the per-layer metrics and writes a span file (to PATH, or
under ``.e2e_bench/``). ``--out`` appends one JSON record per workload run,
with provenance, for ``compare.py``. The exit code is 0 only when every
output check passed.

``--seconds`` belongs to the benchmark's command-line interface, with
``run_seconds`` of ``BENCHMARK.json`` as its value; leave it at that
default. Records carry the run length and ``compare.py`` refuses runs of
different lengths, because the number of timed solves, and with it the
tail, depends on it.

When both ``hoqri-kernel`` and ``hoqri-process`` run, the runner also
checks that they reach the same fit (:data:`FIT_PAIRS`).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORK_DIR = ROOT / ".e2e_bench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Pinned before NumPy loads; set-up children and process workers inherit it.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import stats  # noqa: E402

#: Workloads that solve the same input and must reach the same fit: the
#: process backend against the serial baseline.
FIT_PAIRS = (("hoqri-process", "hoqri-kernel"),)
#: Relative tolerance between the fits of such a pair.
FIT_RTOL = 1e-9


def _fail(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path} not found")
    return json.loads(path.read_text())


def parse_args(argv, benchmark: dict) -> argparse.Namespace:
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"])
    )
    parser.add_argument("--trace", default="0", help="0, 1 or a span-file path")
    parser.add_argument("--out", type=Path, help="append run records here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.workload = args.workload or names
    return args


def trace_path(arg: str, workload: str, seed: int):
    """Span-file path for ``--trace ARG``, or ``None`` for an untraced run."""
    if arg == "0":
        return None
    if arg == "1":
        return WORK_DIR / f"trace-{workload}-seed{seed}.jsonl"
    return Path(arg).resolve()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def run_one(args, benchmark: dict) -> int:
    """Measure one workload in this process."""
    (name,) = args.workload
    tmp = WORK_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    # Service spools and multiprocessing scratch stay inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    traced = trace_path(args.trace, name, args.seed)
    section = "per_layer" if traced is not None else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark[section]}
    tally = stats.Tally()
    cfg = workloads.WORKLOADS[name]
    tensors = cfg.inputs(args.seed)
    record = {
        "workload": name,
        "traced": traced is not None,
        "seconds": args.seconds,
        "input_hash": workloads.input_hash(tensors),
        "provenance": provenance(args.seed),
    }
    metrics = {}
    try:
        if traced is not None:
            import layers

            outcome = layers.run_traced(
                name, cfg, tensors, args.seed, seconds=args.seconds, workdir=tmp,
                tally=tally, trace_path=traced,
            )  # fmt: skip
        else:
            outcome = workloads.run_workload(
                cfg, tensors, args.seed, seconds=args.seconds, workdir=tmp,
                tally=tally,
            )  # fmt: skip
        if set(outcome.metrics) != set(units):
            raise RuntimeError(
                f"{name} emitted {sorted(outcome.metrics)}, "
                f"BENCHMARK.json names {sorted(units)}"
            )
        metrics = outcome.metrics
        record["details"] = outcome.details
    except Exception:  # reported as a failed run, never as numbers
        tally.record(False, traceback.format_exc())
    finally:
        workloads.stop_resource_tracker()
        shutil.rmtree(tmp, ignore_errors=True)

    for failure in tally.failures:
        print(f"{name}: FAILED {failure}", file=sys.stderr)
    record.update(
        metrics=metrics,
        attempted=tally.attempted,
        failed=tally.failed,
        failed_share=tally.failed_share,
    )
    if args.out is not None:
        with args.out.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, default=str) + "\n")
    for metric, value in metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    print(f"{name} failed_share {tally.failed_share:.6g} ratio")
    if "details" in record:
        print(f"{name} details {json.dumps(record['details'], default=str)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


def check_fits(tally: stats.Tally, fits: dict) -> None:
    """The :data:`FIT_PAIRS` whose workloads both ran reach the same fit."""
    for a, b in FIT_PAIRS:
        if a in fits and b in fits:
            rel = abs(fits[a] - fits[b]) / max(abs(fits[b]), 1e-300)
            tally.record(rel <= FIT_RTOL, f"{a} fit differs from {b}'s by {rel:.3e}")


def run_all(args) -> int:
    """Each workload in a fresh subprocess, so none warms another's caches."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    fits = {}
    for name in args.workload:
        trace = args.trace
        if trace not in ("0", "1"):
            path = Path(trace)
            trace = str(path.with_name(f"{path.stem}.{name}{path.suffix}"))
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", trace,
        ]  # fmt: skip
        if args.out is not None:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        for line in lines[:-1]:
            print(line, flush=True)
            if line.startswith(f"{name} details "):
                fit = json.loads(line.split(" ", 2)[2]).get("fit")
                if fit is not None:
                    fits[name] = fit
        merged["correct"] &= bool(result["correct"]) and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    tally = stats.Tally()
    check_fits(tally, fits)
    for failure in tally.failures:
        print(f"run.py: FAILED {failure}", file=sys.stderr)
    merged["correct"] &= tally.failed == 0
    merged["attempted"] += tally.attempted
    merged["failed"] += tally.failed
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no repro sources under {ROOT / 'src'}")
    benchmark = load_benchmark()
    args = parse_args(argv, benchmark)
    if args.out is not None:
        args.out = args.out.resolve()
    if len(args.workload) == 1:
        return run_one(args, benchmark)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
