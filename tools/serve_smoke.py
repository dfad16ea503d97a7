#!/usr/bin/env python
"""CI smoke test for the serve daemon (``python -m repro.serve``).

Boots the daemon as a subprocess, then drives one end-to-end pass over
the wire protocol:

* ping;
* submit a seeded HOOI job and a bitwise-identical duplicate — the
  job's factor must equal a local ``hooi(..., svd_method="compact")``
  (the served default) bit for bit, and the duplicate must come back
  ``done`` with ``cache_hit=True``;
* submit the same tensor with its rows shuffled and each row's indices
  permuted — the daemon must canonicalize it, so the reply is a
  ``cache_hit`` whose factor equals the canonical submission's;
* submit the same job with an explicit ``svd_method="expand"`` — it
  must run and reach the compact job's fit;
* submit the same workload as an over-quota tenant — the daemon must
  refuse it with a typed ``QuotaExceededError`` *before* running
  anything (``stats`` still shows zero submissions for that tenant);
* fetch the completed result and check the factor shape and that the
  duplicate's factor is exactly equal;
* ``shutdown`` and assert the exit code is 0, the final hygiene
  line reports ``budgets_undrained=0``, and none of the daemon's slot
  job processes (the pids ``stats`` reported) outlives it.

Exit code 0 means every step passed. Run from the repo root:

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.decomp import hooi  # noqa: E402
from repro.formats.ucoo import SparseSymmetricTensor  # noqa: E402
from repro.serve import JobSpec  # noqa: E402
from repro.serve.client import RemoteServeError, connect_from_banner  # noqa: E402
from repro.serve.wire import spec_to_wire  # noqa: E402

QUOTA_TENANT = "smallco"
QUOTA_BYTES = 2048


def make_tensor(seed: int = 20250704) -> SparseSymmetricTensor:
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 8, size=(60, 3))
    values = rng.uniform(0.1, 1.0, size=60)
    return SparseSymmetricTensor(3, 8, raw, values, combine="first")


def shuffled_payload(spec: JobSpec, seed: int = 11) -> dict:
    """``spec``'s wire payload with rows shuffled and permuted within."""
    rng = np.random.default_rng(seed)
    payload = spec_to_wire(spec)
    indices = np.asarray(payload["tensor"]["indices"])
    values = np.asarray(payload["tensor"]["values"])
    order = rng.permutation(len(values))
    rows = [rng.permutation(row).tolist() for row in indices[order]]
    payload["tensor"]["indices"] = rows
    payload["tensor"]["values"] = values[order].tolist()
    return payload


def boot_daemon() -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--port",
            "0",
            "--pool",
            "2",
            "--quota",
            f"{QUOTA_TENANT}={QUOTA_BYTES}",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def main() -> int:
    tensor = make_tensor()
    proc = boot_daemon()
    client = None
    output = []
    try:
        deadline = time.monotonic() + 60.0
        while client is None:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("daemon exited before printing its banner")
            output.append(line)
            client = connect_from_banner(line)
            if time.monotonic() > deadline:
                raise RuntimeError("timed out waiting for the daemon banner")
        print(f"serve_smoke: daemon up at {client.host}:{client.port}")

        assert client.ping(), "ping failed"

        spec = JobSpec(kind="hooi", tensor=tensor, rank=4, seed=7, max_iters=5)
        first = client.submit(spec)
        result = client.result(first["job_id"])
        factor = np.asarray(result["result"]["factor"])
        assert factor.shape == (8, 4), f"bad factor shape {factor.shape}"
        local = hooi(tensor, 4, seed=7, max_iters=5, svd_method="compact")
        assert np.array_equal(factor, local.factor), (
            "served default factor differs from a local compact hooi"
        )
        print(
            f"serve_smoke: job {first['job_id']} done, factor {factor.shape}, "
            "bitwise equal to a local compact hooi"
        )

        dup = client.submit(spec)
        assert dup["state"] == "done" and dup["cache_hit"], (
            f"duplicate not served from cache: {dup}"
        )
        dup_factor = np.asarray(
            client.result(dup["job_id"])["result"]["factor"]
        )
        assert np.array_equal(dup_factor, factor), "cached factor differs"
        print("serve_smoke: duplicate served from cache, factors identical")

        shuffled = client.request({"op": "submit", "spec": shuffled_payload(spec)})
        assert shuffled["state"] == "done" and shuffled["cache_hit"], (
            f"unsorted copy not canonicalized onto the cached job: {shuffled}"
        )
        shuffled_factor = np.asarray(
            client.result(shuffled["job_id"])["result"]["factor"]
        )
        assert np.array_equal(shuffled_factor, factor), "unsorted copy differs"
        print("serve_smoke: unsorted rows canonicalized, served from cache")

        expand = client.submit(
            JobSpec(
                kind="hooi",
                tensor=tensor,
                rank=4,
                seed=7,
                max_iters=5,
                svd_method="expand",
            )
        )
        reply = client.result(expand["job_id"])
        assert not reply["status"]["cache_hit"], "expand job aliased compact"
        error = reply["result"]["relative_error"]
        assert abs(error - result["result"]["relative_error"]) < 1e-8, (
            f"expand relative error {error} differs from compact"
        )
        print(f"serve_smoke: explicit expand job {expand['job_id']} done")

        try:
            client.submit(
                JobSpec(
                    kind="hooi",
                    tensor=tensor,
                    rank=4,
                    seed=7,
                    tenant=QUOTA_TENANT,
                )
            )
        except RemoteServeError as exc:
            assert exc.error == "QuotaExceededError", exc
        else:
            raise AssertionError("over-quota submit was not rejected")
        stats = client.stats()
        counters = stats["counters"]
        # Only the four default-tenant submissions were admitted; the
        # over-quota one was rejected at admission and never ran.
        assert counters["rejected"] >= 1, counters
        assert counters["submitted"] == 4, counters
        print("serve_smoke: over-quota tenant rejected typed, nothing ran")
        slot_pids = [pid for pid in stats["pool"]["pids"] if pid is not None]
        assert len(slot_pids) == stats["pool"]["size"], stats["pool"]

        reply = client.shutdown()
        counters = reply["counters"]
        assert counters["cache_hits"] >= 1, counters
        assert reply["hygiene"]["budgets_undrained"] == 0, reply["hygiene"]

        returncode = proc.wait(timeout=60)
        output.extend(proc.stdout.readlines())
        tail = "".join(output)
        assert returncode == 0, f"daemon exit code {returncode}:\n{tail}"
        assert "serve: shutdown clean (budgets_undrained=0" in tail, tail
        alive = [pid for pid in slot_pids if _alive(pid)]
        assert not alive, f"slot job processes outlived the daemon: {alive}"
        print(
            f"serve_smoke: clean shutdown, budgets drained, "
            f"{len(slot_pids)} slot processes gone"
        )
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
