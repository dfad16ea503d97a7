"""The benchmark's four workloads: their inputs, one untraced measurement of
each, and the output checks every run makes.

Every workload goes through the entry points a user calls: ``hoqri`` /
``hooi`` from ``repro.decomp`` under an ``ExecContext``, and
``repro.serve.DecompositionService``. Inputs come from the seed through
``repro.data``; the program only ever receives the generated tensors.

The seed draws values only. Every workload keeps its sparsity patterns
(the ``repro.data`` tensors at :data:`PATTERN_SEED`) and, for the service,
the order of its job stream; the seed scales the tensors' values and draws
the factors of kernel jobs. Accounted memory, the lattice and the work of
every solve and job depend on the structure alone, so ``peak_mib`` repeats
across seeds and the run-to-run spread of the timings is the machine's, not
the input's.

Set-up time is measured in fresh interpreters (``cold_start.py``): a sample
is the time to import ``repro`` plus the first solve (one iteration) or, for
the service, the first job of each kind. Lazy work such as plan building,
kernel compilation and worker spawn lands there and nowhere else.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

import stats
from repro.baselines.css_ttmc import css_s3ttmc
from repro.core.s3ttmc import s3ttmc
from repro.data import load_dataset, random_sparse_symmetric
from repro.decomp import hooi, hoqri, random_init
from repro.formats.ucoo import SparseSymmetricTensor
from repro.parallel.executor import parallel_s3ttmc
from repro.runtime import ExecContext, MemoryBudget
from repro.serve import DecompositionService, JobSpec, JobStatus
from repro.verify.oracles import ALLCLOSE_RTOL

#: ``seed=`` of every decomposition solve: identical solves must agree bitwise.
SOLVE_SEED = 1
#: Process workers for parallel workloads; with the BLAS pinned to one thread
#: this fills a 2-core machine without oversubscribing it.
N_WORKERS = 2
#: Fewest timed solves a decomposition run makes, however long they take.
MIN_SOLVES = 3
#: Non-zeros in the sub-tensor the production kernel is checked on against
#: the independent CSS baseline.
CSS_CHECK_NNZ = 256
ORTHONORMALITY_TOL = 1e-8
#: Seed of the structure every ``--seed`` shares: the sparsity patterns
#: and the order of the served job stream.
PATTERN_SEED = 0
#: Range of the seeded weights the tensors' values are scaled by.
WEIGHT_RANGE = (0.5, 1.5)
#: Distinct served specs replayed by calling hooi/hoqri/s3ttmc directly.
MIN_REPLAYS = 20
#: Set-up samples per run: at least the first, at most the second; between
#: them, samples are added while they have taken less than
#: :data:`SETUP_BUDGET_S` in all (one interpreter start varies by 20-30%).
SETUP_SAMPLES = (3, 5)
SETUP_BUDGET_S = 8.0
#: Seconds the service runs the job stream before measuring.
SERVE_WARMUP_S = 2.0
MIB = float(2**20)

COLD_START = Path(__file__).resolve().parent / "cold_start.py"


@dataclass(frozen=True)
class DecompWorkload:
    """One decomposition per solve on a ``repro.data`` stand-in."""

    dataset: str
    algorithm: str  # "hoqri" | "hooi"
    rank: int
    iterations: int
    execution: str = "serial"  # "serial" | "process"

    def inputs(self, seed: int) -> List[SparseSymmetricTensor]:
        base = load_dataset(self.dataset, seed=PATTERN_SEED)
        return [reweighted(base, np.random.default_rng(seed))]


def reweighted(base: SparseSymmetricTensor, rng) -> SparseSymmetricTensor:
    """``base``'s pattern, with its values scaled by weights from ``rng``."""
    weights = rng.uniform(*WEIGHT_RANGE, size=base.unnz)
    return SparseSymmetricTensor(
        base.order, base.dim, base.indices, base.values * weights, assume_canonical=True
    )


#: ``(order, dim, unnz)`` of the served tensors. Higher orders get fewer
#: non-zeros so that no single job dominates the mix.
SERVE_TENSORS = (
    (3, 200, 2000), (3, 400, 3000), (3, 600, 4000), (3, 800, 4000),
    (4, 200, 1500), (4, 400, 2000), (4, 600, 2500), (4, 800, 3000),
    (5, 200, 1000), (5, 400, 1000), (5, 600, 1500), (5, 800, 2000),
)  # fmt: skip

#: Submissions per block of the job stream: 40% kernel calls, 45% HOQRI and
#: 15% HOOI among fresh specs, and one submission in five repeats one of the
#: recent fresh specs (a cache hit, or a coalesced duplicate while in flight).
_BLOCK = ("s3ttmc",) * 8 + ("hoqri",) * 9 + ("hooi",) * 3 + ("repeat",) * 5
_REPEAT_WINDOW = 20
_S3TTMC_RANKS = (4, 8)
_DECOMP_RANKS = (3, 4)
#: Fresh decomposition specs get seeds from here up, so none aliases another.
_JOB_SEED_BASE = 1000


@dataclass(frozen=True)
class ServeWorkload:
    """A closed loop of tenants against one in-process service."""

    tensors: Tuple[Tuple[int, int, int], ...] = SERVE_TENSORS
    clients: int = 4
    pool_size: int = 2
    iterations: int = 5

    def inputs(self, seed: int) -> List[SparseSymmetricTensor]:
        rng = np.random.default_rng(seed)
        return [
            reweighted(random_sparse_symmetric(order, dim, unnz, seed=PATTERN_SEED + k), rng)
            for k, (order, dim, unnz) in enumerate(self.tensors)
        ]


Workload = Union[DecompWorkload, ServeWorkload]

#: The workloads by the names later changes refer to them by.
WORKLOADS: Dict[str, Workload] = {
    "hoqri-kernel": DecompWorkload("contact-school", "hoqri", rank=8, iterations=5),
    "hooi-svd": DecompWorkload("trivago-clicks", "hooi", rank=4, iterations=1),
    "hoqri-process": DecompWorkload(
        "contact-school", "hoqri", rank=8, iterations=5, execution="process"
    ),
    "serve-mixed": ServeWorkload(),
}


@dataclass
class Outcome:
    """What one measurement run of a workload produced."""

    metrics: Dict[str, float]
    details: Dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def input_hash(tensors: Sequence[SparseSymmetricTensor]) -> str:
    """Harness-side digest of the generated indices and values."""
    digest = hashlib.blake2b(digest_size=16)
    for t in tensors:
        digest.update(f"{t.order}/{t.dim}/{t.unnz};".encode())
        digest.update(np.ascontiguousarray(t.indices, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(t.values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def save_tensors(path: Path, tensors: Sequence[SparseSymmetricTensor]) -> None:
    arrays = {}
    for k, t in enumerate(tensors):
        arrays[f"shape{k}"] = np.array([t.order, t.dim])
        arrays[f"indices{k}"] = t.indices
        arrays[f"values{k}"] = t.values
    np.savez(path, **arrays)


def load_tensors(path: Path) -> List[SparseSymmetricTensor]:
    with np.load(path) as data:
        count = sum(1 for key in data.files if key.startswith("shape"))
        return [
            SparseSymmetricTensor(
                int(data[f"shape{k}"][0]),
                int(data[f"shape{k}"][1]),
                data[f"indices{k}"],
                data[f"values{k}"],
                assume_canonical=True,
            )
            for k in range(count)
        ]


def workload_to_json(cfg: Workload) -> str:
    kind = "serve" if isinstance(cfg, ServeWorkload) else "decomp"
    return json.dumps({"kind": kind, **dataclasses.asdict(cfg)})


def workload_from_json(text: str) -> Workload:
    spec = json.loads(text)
    if spec.pop("kind") == "serve":
        spec["tensors"] = tuple(tuple(t) for t in spec["tensors"])
        return ServeWorkload(**spec)
    return DecompWorkload(**spec)


def stop_resource_tracker() -> None:
    """Join the multiprocessing resource tracker if this process started one
    (shared-memory segments register with it), so that no process started
    by the benchmark outlives it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def setup_inputs(cfg: Workload, tensors: Sequence[SparseSymmetricTensor]):
    """The tensors a cold start touches: the workload's own, or for the
    service the largest tensor of each order."""
    if isinstance(cfg, DecompWorkload):
        return list(tensors)
    largest: Dict[int, SparseSymmetricTensor] = {}
    for t in tensors:
        if t.order not in largest or t.unnz >= largest[t.order].unnz:
            largest[t.order] = t
    return [largest[order] for order in sorted(largest)]


def cold_start(cfg: Workload, tensors: Sequence[SparseSymmetricTensor]) -> None:
    """What a fresh process does first: one solve of one iteration, or one
    service answering one job of each kind."""
    if isinstance(cfg, ServeWorkload):
        asyncio.run(_cold_service(cfg, tensors))
        return
    ctx = new_context(cfg)
    with ctx:
        solve(cfg, tensors[0], ctx, iterations=1)


async def _cold_service(cfg: ServeWorkload, tensors) -> None:
    rng = np.random.default_rng(0)
    kinds = ("s3ttmc", "hoqri", "hooi")
    specs = [
        _fresh_spec(cfg, kinds[k % 3], t, 0, _JOB_SEED_BASE + k, rng)
        for k, t in enumerate(tensors)
    ]
    async with DecompositionService(pool_size=cfg.pool_size) as service:
        job_ids = [await service.submit(spec) for spec in specs]
        for job_id in job_ids:
            await service.result(job_id)


def measure_setup(
    cfg: Workload,
    tensors: Sequence[SparseSymmetricTensor],
    *,
    samples: Tuple[int, int] = SETUP_SAMPLES,
    workdir: Path,
    tally: stats.Tally,
) -> List[float]:
    """Set-up seconds of cold starts, each in a fresh interpreter that
    inherits this process's pinned environment; ``samples`` is the
    ``(fewest, most)`` of them (see :data:`SETUP_SAMPLES`)."""
    fewest, most = samples
    path = workdir / "setup-inputs.npz"
    save_tensors(path, setup_inputs(cfg, tensors))
    seconds: List[float] = []
    try:
        for k in range(most):
            if k >= fewest and sum(seconds) >= SETUP_BUDGET_S:
                break
            proc = subprocess.run(
                [sys.executable, str(COLD_START), workload_to_json(cfg), str(path)],
                capture_output=True,
                text=True,
                timeout=150,
            )
            lines = proc.stdout.strip().splitlines()
            ok = proc.returncode == 0 and bool(lines)
            if tally.record(ok, f"set-up sample {k}: {proc.stderr.strip()[-300:]}"):
                seconds.append(float(json.loads(lines[-1])["setup_s"]))
    finally:
        path.unlink(missing_ok=True)
    if not seconds:
        raise RuntimeError("no set-up sample succeeded")
    return seconds


# ---------------------------------------------------------------------------
# Decomposition workloads
# ---------------------------------------------------------------------------


def new_context(cfg: DecompWorkload, collector=None) -> ExecContext:
    """A fresh context per solve, as a user calling ``hoqri``/``hooi`` gets one."""
    budget = MemoryBudget()
    if cfg.execution == "process":
        return ExecContext(
            budget=budget,
            collector=collector,
            execution="process",
            n_workers=N_WORKERS,
            sharding="owned",
        )
    return ExecContext(budget=budget, collector=collector)


def solve(cfg: DecompWorkload, tensor, ctx: ExecContext, iterations=None):
    kwargs = dict(
        max_iters=iterations or cfg.iterations, tol=0.0, seed=SOLVE_SEED, ctx=ctx
    )
    if cfg.algorithm == "hooi":
        return hooi(tensor, cfg.rank, svd_method="expand", **kwargs)
    return hoqri(tensor, cfg.rank, **kwargs)


def timed_solve(cfg: DecompWorkload, tensor, collector=None):
    """``(wall seconds, result, accounted peak bytes)`` of one solve,
    context construction and teardown (worker spawn and join) included."""
    start = time.perf_counter()
    ctx = new_context(cfg, collector)
    with ctx:
        result = solve(cfg, tensor, ctx)
    return time.perf_counter() - start, result, ctx.budget.peak


def check_solve(tally: stats.Tally, result, reference, label: str) -> None:
    """Per-solve output checks; ``reference=None`` skips the bitwise one."""
    if reference is not None:
        tally.record(
            np.array_equal(result.factor, reference.factor),
            f"{label}: factor differs from the first solve's",
        )
    defect = result.orthonormality_defect()
    tally.record(
        defect <= ORTHONORMALITY_TOL, f"{label}: orthonormality defect {defect:.3e}"
    )
    err = result.relative_error
    tally.record(
        math.isfinite(err) and 0.0 <= err <= 1.0, f"{label}: relative error {err}"
    )


def css_subtensor(tensor: SparseSymmetricTensor) -> SparseSymmetricTensor:
    """``CSS_CHECK_NNZ`` evenly spaced non-zeros (still in canonical order)."""
    step = max(1, tensor.unnz // CSS_CHECK_NNZ)
    rows = slice(0, step * CSS_CHECK_NNZ, step)
    return SparseSymmetricTensor(
        tensor.order,
        tensor.dim,
        tensor.indices[rows],
        tensor.values[rows],
        assume_canonical=True,
    )


def check_kernel(tally: stats.Tally, cfg: DecompWorkload, tensor, factor) -> None:
    """The workload's production S³TTMc path agrees with the CSS baseline."""
    sub = css_subtensor(tensor)
    ref = css_s3ttmc(sub, factor)
    ctx = new_context(cfg)
    with ctx:
        if cfg.execution == "serial":
            got = s3ttmc(sub, factor, ctx=ctx)
        else:
            got = parallel_s3ttmc(sub, factor, ctx=ctx)
    got = got.to_full_unfolding()
    tol = ALLCLOSE_RTOL * max(1.0, float(np.max(np.abs(ref))))
    dev = float(np.max(np.abs(got - ref))) if got.shape == ref.shape else math.inf
    tally.record(dev <= tol, f"s3ttmc vs css_s3ttmc: max|diff| {dev:.3e} > {tol:.3e}")


def run_decomp(
    cfg: DecompWorkload,
    tensor: SparseSymmetricTensor,
    *,
    seconds: float,
    workdir: Path,
    tally: stats.Tally,
    setup_samples: Tuple[int, int] = SETUP_SAMPLES,
) -> Outcome:
    setup = measure_setup(
        cfg, [tensor], samples=setup_samples, workdir=workdir, tally=tally
    )
    # The first in-process solve pays this process's lazy set-up; it is the
    # bitwise reference and is not timed.
    _, reference, _ = timed_solve(cfg, tensor)
    tally.record(True, "reference solve")
    check_solve(tally, reference, None, "reference solve")

    walls: List[float] = []
    peaks: List[int] = []
    loop_start = time.perf_counter()
    while True:
        wall, result, peak = timed_solve(cfg, tensor)
        tally.record(True, "timed solve")
        walls.append(wall)
        peaks.append(peak)
        check_solve(tally, result, reference, f"timed solve {len(walls)}")
        elapsed = time.perf_counter() - loop_start
        if len(walls) >= MIN_SOLVES and elapsed + stats.median(walls) > seconds:
            break

    check_kernel(tally, cfg, tensor, reference.factor)

    tail, tail_pct = stats.tail(walls)
    return Outcome(
        metrics={
            "latency_p50_s": stats.median(walls),
            "latency_tail_s": tail,
            "throughput_per_s": len(walls) / sum(walls),
            "peak_mib": stats.median(peaks) / MIB,
            "setup_s": stats.median(setup),
        },
        details={
            "samples": len(walls),
            "tail_percentile": tail_pct,
            "setup_samples": setup,
            "fit": reference.fit,
            "iterations": reference.iterations,
            "unnz": tensor.unnz,
        },
    )


# ---------------------------------------------------------------------------
# Served workload
# ---------------------------------------------------------------------------


def _fresh_spec(cfg: ServeWorkload, kind: str, tensor, n: int, seed: int, rng):
    if kind == "s3ttmc":
        rank = _S3TTMC_RANKS[n % len(_S3TTMC_RANKS)]
        return JobSpec(kind=kind, tensor=tensor, factor=random_init(tensor.dim, rank, rng))
    return JobSpec(
        kind=kind,
        tensor=tensor,
        rank=_DECOMP_RANKS[n % len(_DECOMP_RANKS)],
        max_iters=cfg.iterations,
        tol=0.0,
        seed=seed,
    )


def job_stream(cfg: ServeWorkload, tensors, seed: int) -> Iterator[JobSpec]:
    """Endless submissions in blocks of :data:`_BLOCK`.

    Each kind walks the tensors in shuffled rounds, so every prefix of the
    stream has nearly the same mix of kinds, ranks and tensor sizes. The
    order of kinds, tensors and repeats is the same for every seed; the
    seed draws the factors of kernel jobs.
    """
    order = np.random.default_rng(PATTERN_SEED)
    values = np.random.default_rng(seed)
    rounds: Dict[str, List[int]] = {kind: [] for kind in set(_BLOCK)}
    made: Dict[str, int] = {kind: 0 for kind in set(_BLOCK)}
    recent: List[JobSpec] = []
    first = True
    while True:
        block = list(order.permutation(_BLOCK))
        while first and block[0] == "repeat":
            block.append(block.pop(0))
        first = False
        for kind in block:
            if kind == "repeat":
                yield dataclasses.replace(recent[order.integers(len(recent))])
                continue
            if not rounds[kind]:
                rounds[kind] = list(order.permutation(len(tensors)))
            tensor = tensors[rounds[kind].pop()]
            spec = _fresh_spec(
                cfg, kind, tensor, made[kind], _JOB_SEED_BASE + sum(made.values()), values
            )
            made[kind] += 1
            recent = (recent + [spec])[-_REPEAT_WINDOW:]
            yield spec


@dataclass(eq=False)
class JobSample:
    """One submission as its client saw it (``time.perf_counter`` clock)."""

    spec: JobSpec
    client: int
    submit_start: float
    submit_end: float
    end: float
    job_id: Optional[str] = None
    result: Any = None
    error: Optional[BaseException] = None
    status: Optional[JobStatus] = None

    @property
    def latency(self) -> float:
        return self.end - self.submit_start


@dataclass
class ServeRun:
    samples: List[JobSample]  # the measured ones
    warmup: List[JobSample]
    start: float
    end: float
    counters: Dict[str, int]
    hygiene: Dict[str, int]

    @property
    def completed(self) -> List[JobSample]:
        return [s for s in self.samples if s.error is None]


async def closed_loop(
    service: DecompositionService,
    stream: Iterator[JobSpec],
    *,
    clients: int,
    seconds: float,
) -> Tuple[List[JobSample], float]:
    """``clients`` tenants, each submitting its next job only after the
    previous result arrived, until ``seconds`` have passed or the stream
    ends."""
    samples: List[JobSample] = []
    start = time.perf_counter()
    deadline = start + seconds

    async def client(i: int) -> None:
        while time.perf_counter() < deadline:
            spec = next(stream, None)
            if spec is None:
                return
            spec.tenant = f"tenant-{i}"
            sample = JobSample(spec, i, time.perf_counter(), 0.0, 0.0)
            samples.append(sample)
            try:
                sample.job_id = await service.submit(spec)
                sample.submit_end = time.perf_counter()
                sample.result = await service.result(sample.job_id)
            except Exception as exc:  # counted against the run, not raised
                sample.error = exc
            sample.end = time.perf_counter()
            if sample.job_id is not None:
                sample.status = service.status(sample.job_id)

    await asyncio.gather(*(client(i) for i in range(clients)))
    return samples, start


async def serve_once(
    cfg: ServeWorkload,
    stream: Iterator[JobSpec],
    seconds: float,
    *,
    warmup: float = 0.0,
    during=None,
) -> ServeRun:
    """One service lifetime under the closed loop, measured after ``warmup``
    seconds of the same stream (a long-running service has its plans built
    and its cache filled). ``during`` is an optional coroutine function run
    alongside the measured load, given a stop event."""
    service = DecompositionService(pool_size=cfg.pool_size)
    stop = asyncio.Event()
    async with service:
        warm, _ = await closed_loop(
            service, stream, clients=cfg.clients, seconds=warmup
        )
        side = asyncio.create_task(during(stop)) if during is not None else None
        samples, start = await closed_loop(
            service, stream, clients=cfg.clients, seconds=seconds
        )
        stop.set()
        if side is not None:
            await side
    end = max((s.end for s in samples), default=start)
    return ServeRun(
        samples, warm, start, end, dict(service.counters), service.hygiene()
    )


def replay(spec: JobSpec):
    """The served spec, run by calling its function directly."""
    ctx = ExecContext()
    if spec.kind == "s3ttmc":
        factor = np.ascontiguousarray(spec.factor, dtype=np.float64)
        return s3ttmc(spec.tensor, factor, ctx=ctx, **spec.driver_kwargs())
    solver = hooi if spec.kind == "hooi" else hoqri
    return solver(spec.tensor, int(spec.rank), ctx=ctx, **spec.driver_kwargs())


def _same(a, b) -> bool:
    if hasattr(a, "factor"):
        return np.array_equal(a.factor, b.factor)
    return np.array_equal(a.data, b.data)


def check_serve(tally: stats.Tally, run: ServeRun, *, min_replays=MIN_REPLAYS) -> int:
    """Job outcomes, hygiene and bitwise replays; returns the replay count."""
    for s in run.warmup + run.samples:
        tally.record(s.error is None, f"job {s.job_id} ({s.spec.kind}): {s.error!r}")
    tally.record(run.counters["rejected"] == 0, f"{run.counters['rejected']} rejected")
    for key in ("budgets_undrained", "live_segments"):
        tally.record(run.hygiene[key] == 0, f"hygiene: {key}={run.hygiene[key]}")

    quota = {"s3ttmc": 8, "hoqri": 8, "hooi": 4}
    executed = [
        s for s in run.completed if s.status is not None and not s.status.cache_hit
    ]
    chosen = []
    for s in executed:
        if quota[s.spec.kind] > 0:
            quota[s.spec.kind] -= 1
            chosen.append(s)
    chosen += [s for s in executed if s not in chosen][: max(0, min_replays - len(chosen))]
    tally.record(
        len(chosen) >= min_replays, f"only {len(chosen)} distinct specs to replay"
    )
    for s in chosen:
        tally.record(
            _same(replay(s.spec), s.result),
            f"replay of {s.job_id} ({s.spec.kind}) is not bitwise equal",
        )
    return len(chosen)


def serve_metrics(run: ServeRun) -> Dict[str, float]:
    done = run.completed
    latencies = [s.latency for s in done]
    peaks = [s.status.measured_peak_bytes for s in done if s.status is not None]
    return {
        "latency_p50_s": stats.median(latencies),
        "latency_tail_s": stats.tail(latencies)[0],
        "throughput_per_s": len(done) / (run.end - run.start),
        "peak_mib": max(peaks) / MIB,
    }


def run_serve(
    cfg: ServeWorkload,
    tensors: Sequence[SparseSymmetricTensor],
    seed: int,
    *,
    seconds: float,
    workdir: Path,
    tally: stats.Tally,
    setup_samples: Tuple[int, int] = SETUP_SAMPLES,
    min_replays: int = MIN_REPLAYS,
) -> Outcome:
    setup = measure_setup(
        cfg, tensors, samples=setup_samples, workdir=workdir, tally=tally
    )
    stream = job_stream(cfg, tensors, seed)
    run = asyncio.run(serve_once(cfg, stream, seconds, warmup=SERVE_WARMUP_S))
    replays = check_serve(tally, run, min_replays=min_replays)
    metrics = serve_metrics(run)
    metrics["setup_s"] = stats.median(setup)
    latencies = [s.latency for s in run.completed]
    return Outcome(
        metrics=metrics,
        details={
            "samples": len(latencies),
            "tail_percentile": stats.tail(latencies)[1],
            "setup_samples": setup,
            "counters": run.counters,
            "replayed": replays,
        },
    )


def run_workload(
    cfg: Workload,
    tensors: Sequence[SparseSymmetricTensor],
    seed: int,
    *,
    seconds: float,
    workdir: Path,
    tally: stats.Tally,
) -> Outcome:
    if isinstance(cfg, ServeWorkload):
        return run_serve(
            cfg, tensors, seed, seconds=seconds, workdir=workdir, tally=tally
        )
    return run_decomp(
        cfg, tensors[0], seconds=seconds, workdir=workdir, tally=tally
    )
