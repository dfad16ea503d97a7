"""Tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``. The smoke
tests call each workload function directly on small inputs; they check the
harness, not performance.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import layers
import run
import stats
import workloads
from repro.data import random_sparse_symmetric

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_NAMES = {m["name"] for m in BENCHMARK["end_to_end"]}
LAYER_NAMES = {m["name"] for m in BENCHMARK["per_layer"]}

SMALL = {
    "hoqri": workloads.DecompWorkload("unused", "hoqri", rank=3, iterations=2),
    "hooi": workloads.DecompWorkload("unused", "hooi", rank=3, iterations=2),
    "process": workloads.DecompWorkload(
        "unused", "hoqri", rank=3, iterations=2, execution="process"
    ),
    "serve": workloads.ServeWorkload(
        tensors=((3, 30, 120), (3, 40, 150), (4, 30, 100), (5, 20, 60)),
        clients=2,
        iterations=2,
    ),
}


def _small_tensors(cfg):
    if isinstance(cfg, workloads.ServeWorkload):
        return cfg.inputs(seed=3)
    return [random_sparse_symmetric(4, 40, 300, seed=3)]


# -- percentile rule ---------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 501))
    assert stats.tail(values) == (490.0, 98.0)
    for n in range(100, 700, 7):
        xs = [float(v) for v in range(n)]
        value, pct = stats.tail(xs)
        assert sum(x > value for x in xs) == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)
        assert pct >= 90.0


def test_tail_of_small_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    xs = [float(v) for v in range(99)]
    assert stats.tail(xs) == (98.0, 100.0)
    with pytest.raises(ValueError):
        stats.tail([])


def test_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, med, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / med)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


# -- failure counting --------------------------------------------------------


def test_failed_share_counts_failed_operations_and_checks():
    tally = stats.Tally()
    assert tally.failed_share == 0.0
    assert tally.record(True, "solve")
    assert not tally.record(False, "check")
    tally.record(True, "check")
    tally.record(False, "job")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_share == 0.5
    assert tally.failures == ["check", "job"]


# -- compare.py --------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.3, 10.4, 10.2, 10.3], "lower", "same"),
        ([10.0, 10.1, 9.9, 10.0], [11.5, 11.6, 11.4, 11.5], "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0], [8.5, 8.6, 8.4, 8.5], "lower", "better"),
        ([10.0, 10.1, 9.9, 10.0], [8.5, 8.6, 8.4, 8.5], "higher", "worse"),
        ([10.0, 10.1, 9.9, 10.0], [11.5, 11.6, 11.4, 11.5], "higher", "better"),
        ([6.0, 14.0, 8.0, 12.0], [10.0, 10.1, 9.9, 10.0], "lower", "unresolved"),
        ([6.0, 14.0, 8.0, 12.0], [5.0, 5.5, 4.0, 5.9], "lower", "better"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.10) == expected


def test_compare_gives_no_verdict_without_bound():
    assert compare.verdict([1.0], [5.0], "lower", None) == "-"


def _record(workload, seed, input_hash, seconds=15, **metrics):
    return {
        "workload": workload,
        "seconds": seconds,
        "input_hash": input_hash,
        "provenance": {"seed": seed, "nproc": 2, "platform": "p"},
        "failed": 0,
        "metrics": metrics,
    }


def _write(tmp_path, a, b):
    paths = []
    for name, records in (("a", a), ("b", b)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        paths.append(str(path))
    return paths


def test_compare_refuses_changed_inputs(tmp_path):
    a = [_record("hoqri-kernel", 0, "aaa", latency_p50_s=1.0)]
    b = [_record("hoqri-kernel", 0, "bbb", latency_p50_s=1.0)]
    assert compare.conflicts(a, b) == ["input hashes differ for ('hoqri-kernel', 0)"]
    assert compare.conflicts(a, a) == []
    assert compare.main(_write(tmp_path, a, b)) == 2


def test_compare_refuses_runs_of_different_lengths(tmp_path):
    a = [_record("hoqri-kernel", 0, "aaa", seconds=15, latency_p50_s=1.0)]
    b = [_record("hoqri-kernel", 0, "aaa", seconds=30, latency_p50_s=1.0)]
    assert compare.conflicts(a, b) == ["run lengths differ: [15, 30] s"]
    assert compare.main(_write(tmp_path, a, b)) == 2
    assert compare.main(_write(tmp_path, a, a)) == 0


def test_runner_checks_process_fit_against_serial():
    fits = {"hoqri-kernel": 0.25, "hoqri-process": 0.25 * (1 + 1e-12)}
    tally = stats.Tally()
    run.check_fits(tally, fits)
    assert (tally.attempted, tally.failed) == (1, 0)
    run.check_fits(tally, {**fits, "hoqri-process": 0.2501})
    assert (tally.attempted, tally.failed) == (2, 1)
    run.check_fits(tally, {"hoqri-process": 0.2501})  # nothing to pair with
    assert tally.attempted == 2


@pytest.mark.parametrize("cfg", [workloads.WORKLOADS["hoqri-kernel"], SMALL["serve"]])
def test_inputs_keep_the_pattern_and_draw_values_from_the_seed(cfg):
    seed0, again, seed1 = cfg.inputs(0), cfg.inputs(0), cfg.inputs(1)
    assert workloads.input_hash(seed0) == workloads.input_hash(again)
    assert workloads.input_hash(seed0) != workloads.input_hash(seed1)
    for t0, t1 in zip(seed0, seed1):
        assert np.array_equal(t0.indices, t1.indices)
        assert not np.array_equal(t0.values, t1.values)


# -- BENCHMARK.json and the harness ------------------------------------------


def test_benchmark_json_follows_its_schema():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOADS)
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Each small workload measured once, untraced and traced."""
    out = {}
    for key, cfg in SMALL.items():
        tensors = _small_tensors(cfg)
        workdir = tmp_path_factory.mktemp(key)
        tally = stats.Tally()
        if isinstance(cfg, workloads.ServeWorkload):
            plain = workloads.run_serve(
                cfg, tensors, 3, seconds=1.0, workdir=workdir, tally=tally,
                setup_samples=(1, 1), min_replays=3,
            )  # fmt: skip
        else:
            plain = workloads.run_decomp(
                cfg, tensors[0], seconds=0.1, workdir=workdir, tally=tally,
                setup_samples=(1, 1),
            )  # fmt: skip
        traced = layers.run_traced(
            key, cfg, tensors, 3, seconds=1.0, workdir=workdir, tally=tally,
            trace_path=workdir / "trace.jsonl",
        )  # fmt: skip
        out[key] = (plain, traced, tally)
    return out


@pytest.mark.parametrize("key", list(SMALL))
def test_workload_smoke_passes_every_check(smoke, key):
    plain, traced, tally = smoke[key]
    assert tally.failed == 0, tally.failures
    assert tally.attempted > 0
    assert all(v > 0 for v in plain.metrics.values())
    assert plain.details["samples"] >= 1


@pytest.mark.parametrize("key", list(SMALL))
def test_harness_emits_exactly_the_named_metrics(smoke, key):
    plain, traced, _tally = smoke[key]
    assert set(plain.metrics) == E2E_NAMES
    assert set(traced.metrics) == LAYER_NAMES


def test_trace_file_is_readable_by_repro_obs(smoke):
    _plain, traced, _tally = smoke["hoqri"]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs", "summarize", traced.details["trace"]],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr


def test_job_stream_is_seeded_and_keeps_its_mix():
    cfg = SMALL["serve"]
    tensors = cfg.inputs(seed=3)
    first = [s.config_key() for s, _ in zip(workloads.job_stream(cfg, tensors, 3), range(75))]
    again = [s.config_key() for s, _ in zip(workloads.job_stream(cfg, tensors, 3), range(75))]
    assert first == again
    # Three blocks of 25: 20 fresh specs (8 s3ttmc, 9 hoqri, 3 hooi) and
    # 5 repeats of earlier ones each.
    fresh = [key[0] for key in dict.fromkeys(first)]
    assert len(fresh) == 60
    assert [fresh.count(k) for k in ("s3ttmc", "hoqri", "hooi")] == [24, 27, 9]
    # Another seed submits the same kinds, ranks and repeats in the same
    # order, with other kernel factors.
    other = [s.config_key() for s, _ in zip(workloads.job_stream(cfg, tensors, 4), range(75))]
    assert [(k[0], k[1]) for k in other] == [(k[0], k[1]) for k in first]
    assert other != first


def test_run_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the harness, the command exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e",
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "hoqri-kernel",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
