"""Checkpoint/resume tests: bit-for-bit continuation, atomic writes,
config fingerprinting, and survival of a SIGKILLed run."""

import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.decomp import hooi, hoqri
from repro.obs.trace import TraceCollector
from repro.runtime import ExecContext
from repro.runtime.checkpoint import (
    CHECKPOINT_FILENAME,
    CheckpointState,
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
    tensor_fingerprint,
)
from tests.conftest import make_random_tensor


def _state(iteration=0, **overrides):
    base = dict(
        algorithm="hooi",
        iteration=iteration,
        factor=np.arange(6.0).reshape(3, 2),
        prev_objective=1.5,
        norm_x_squared=4.0,
        converged=False,
        objective=[2.0, 1.5],
        relative_error=[0.7, 0.6],
        core_norm_squared=[2.0, 2.5],
        config={"algorithm": "hooi", "rank": 2},
    )
    base.update(overrides)
    return CheckpointState(**base)


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path):
        state = _state(iteration=3, a=np.ones((3, 2)), core_data=np.eye(2), core_nrows=2)
        save_checkpoint(tmp_path, state)
        loaded = load_checkpoint(tmp_path)
        assert loaded is not None
        assert loaded.algorithm == "hooi"
        assert loaded.iteration == 3
        assert np.array_equal(loaded.factor, state.factor)
        assert np.array_equal(loaded.a, state.a)
        assert np.array_equal(loaded.core_data, state.core_data)
        assert loaded.objective == state.objective
        assert loaded.config == state.config

    def test_none_fields_survive(self, tmp_path):
        save_checkpoint(tmp_path, _state())
        loaded = load_checkpoint(tmp_path)
        assert loaded.a is None
        assert loaded.core_data is None

    def test_absent_returns_none(self, tmp_path):
        assert load_checkpoint(tmp_path) is None

    def test_rolling_single_file_no_temps(self, tmp_path):
        for it in range(4):
            save_checkpoint(tmp_path, _state(iteration=it))
        assert os.listdir(tmp_path) == [CHECKPOINT_FILENAME]
        assert load_checkpoint(tmp_path).iteration == 3

    def test_failed_write_preserves_previous(self, tmp_path, monkeypatch):
        save_checkpoint(tmp_path, _state(iteration=1))
        import repro.runtime.checkpoint as cp

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cp.os, "replace", broken_replace)
        with pytest.raises(OSError):
            save_checkpoint(tmp_path, _state(iteration=2))
        monkeypatch.undo()
        # Old checkpoint intact, temp file cleaned up.
        assert os.listdir(tmp_path) == [CHECKPOINT_FILENAME]
        assert load_checkpoint(tmp_path).iteration == 1

    def test_version_mismatch_rejected(self, tmp_path):
        save_checkpoint(tmp_path, _state())
        target = checkpoint_path(tmp_path)
        with np.load(target) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
        meta["version"] = 999
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez(target, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(tmp_path)

    def test_check_config_mismatch(self):
        state = _state()
        state.check_config({"algorithm": "hooi", "rank": 2})  # no raise
        with pytest.raises(ValueError, match="rank"):
            state.check_config({"rank": 3})
        with pytest.raises(ValueError, match="kernel"):
            state.check_config({"kernel": "symprop"})  # missing key

    def test_observability(self, tmp_path):
        col = TraceCollector()
        ctx = ExecContext(collector=col)
        save_checkpoint(tmp_path, _state(), ctx=ctx)
        load_checkpoint(tmp_path, ctx=ctx)
        assert col.metrics.counter("checkpoint.saves").value == 1
        assert col.metrics.counter("checkpoint.loads").value == 1
        assert len(col.find("checkpoint.save")) == 1
        assert len(col.find("checkpoint.load")) == 1
        assert col.metrics.gauge("checkpoint.bytes").max > 0


class TestDriverResume:
    @pytest.mark.parametrize("driver", [hooi, hoqri])
    def test_resume_bit_for_bit(self, driver, tmp_path, rng):
        x = make_random_tensor(4, 12, 50, rng)
        ref = driver(x, 3, max_iters=5, tol=0.0, seed=5)
        # "Killed" after 2 iterations, resumed for the remaining 3.
        driver(x, 3, max_iters=2, tol=0.0, seed=5, checkpoint_dir=tmp_path)
        got = driver(
            x, 3, max_iters=5, tol=0.0, seed=5,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert np.array_equal(got.factor, ref.factor)
        assert np.array_equal(got.core.data, ref.core.data)
        assert got.trace.objective == ref.trace.objective
        assert got.trace.relative_error == ref.trace.relative_error

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path, rng):
        x = make_random_tensor(3, 10, 40, rng)
        ref = hooi(x, 2, max_iters=3, tol=0.0, seed=1)
        got = hooi(
            x, 2, max_iters=3, tol=0.0, seed=1,
            checkpoint_dir=tmp_path, resume=True,  # empty dir: nothing to resume
        )
        assert np.array_equal(got.factor, ref.factor)

    def test_config_mismatch_rejected(self, tmp_path, rng):
        x = make_random_tensor(3, 10, 40, rng)
        hooi(x, 3, max_iters=2, seed=1, checkpoint_dir=tmp_path)
        with pytest.raises(ValueError, match="rank"):
            hooi(x, 2, max_iters=2, seed=1, checkpoint_dir=tmp_path, resume=True)
        with pytest.raises(ValueError, match="algorithm"):
            hoqri(x, 3, max_iters=2, seed=1, checkpoint_dir=tmp_path, resume=True)

    def test_different_tensor_rejected(self, tmp_path, rng):
        x = make_random_tensor(3, 10, 40, rng)
        other = make_random_tensor(3, 10, 40, rng, distinct=True)
        hooi(x, 2, max_iters=2, seed=1, checkpoint_dir=tmp_path)
        with pytest.raises(ValueError):
            hooi(other, 2, max_iters=2, seed=1, checkpoint_dir=tmp_path, resume=True)

    def test_converged_checkpoint_short_circuits(self, tmp_path, rng):
        x = make_random_tensor(3, 10, 40, rng)
        first = hooi(x, 2, max_iters=30, tol=1e-4, seed=1, checkpoint_dir=tmp_path)
        assert first.converged
        col = TraceCollector()
        with ExecContext(collector=col):
            resumed = hooi(
                x, 2, max_iters=30, tol=1e-4, seed=1,
                checkpoint_dir=tmp_path, resume=True,
            )
        assert resumed.converged
        assert np.array_equal(resumed.factor, first.factor)
        assert np.array_equal(resumed.core.data, first.core.data)
        assert resumed.trace.objective == first.trace.objective
        assert col.find("hooi.iteration") == []  # no work re-done

    def test_checkpoint_every_still_writes_final(self, tmp_path, rng):
        x = make_random_tensor(3, 10, 40, rng)
        hooi(
            x, 2, max_iters=5, tol=0.0, seed=1,
            checkpoint_dir=tmp_path, checkpoint_every=3,
        )
        state = load_checkpoint(tmp_path)
        assert state.iteration == 4  # final iteration always checkpointed

    def test_fingerprint_fields(self, rng):
        x = make_random_tensor(3, 10, 40, rng)
        fp = tensor_fingerprint(x)
        assert fp == {
            "dim": 10,
            "order": 3,
            "unnz": x.unnz,
            "values_sum": float(np.sum(x.values)),
        }


_KILLED_CHILD = """
import os
import signal
import sys
import numpy as np
sys.path.insert(0, {src!r})
sys.path.insert(0, {root!r})
import repro.decomp._sweep as sweep_mod
from repro.decomp import hooi
from tests.conftest import make_random_tensor

# SIGKILL ourselves the instant the iteration-2 checkpoint hits disk:
# no atexit, no cleanup, no warning — exactly a hard kill mid-sweep.
# The shared iteration loop is the one caller of save_checkpoint.
real_save = sweep_mod.save_checkpoint
def dying_save(directory, state, *, ctx=None):
    path = real_save(directory, state, ctx=ctx)
    if state.iteration >= 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return path
sweep_mod.save_checkpoint = dying_save

rng = np.random.default_rng(20250704)
x = make_random_tensor(4, 12, 50, rng)
hooi(x, 3, max_iters=6, tol=0.0, seed=5, checkpoint_dir={ckpt!r})
"""


class TestKilledRunResume:
    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        """A checkpointing run SIGKILLed mid-sweep resumes to the exact
        result of an uninterrupted run (acceptance criterion)."""
        ckpt = tmp_path / "ckpt"
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        code = _KILLED_CHILD.format(src=src, root=root, ckpt=str(ckpt))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            cwd=root,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        state = load_checkpoint(ckpt)
        assert state is not None
        assert state.iteration == 2  # died right after this checkpoint
        assert not state.converged
        local_rng = np.random.default_rng(20250704)
        x = make_random_tensor(4, 12, 50, local_rng)
        ref = hooi(x, 3, max_iters=6, tol=0.0, seed=5)
        resumed = hooi(
            x, 3, max_iters=6, tol=0.0, seed=5,
            checkpoint_dir=ckpt, resume=True,
        )
        assert np.array_equal(resumed.factor, ref.factor)
        assert np.array_equal(resumed.core.data, ref.core.data)
        assert resumed.trace.objective == ref.trace.objective
