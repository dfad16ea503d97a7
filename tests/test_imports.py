"""The import contract: packages re-export lazily, so a run loads only the
modules it calls, and a re-exported name is always the exported object.

Each check runs in a fresh interpreter, since this process has long since
imported everything.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a serial HOQRI never calls.
UNUSED_BY_HOQRI = (
    "scipy.sparse",
    "scipy.linalg",
    "repro.serve",
    "repro.verify",
    "repro.parallel.backends",
)
#: Median seconds ``import repro`` may take in a fresh interpreter.
IMPORT_BOUND_S = 0.30
IMPORT_STARTS = 10


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_serial_hoqri_loads_no_unused_subsystem():
    loaded = json.loads(
        _run(
            "import json, sys\n"
            "import repro\n"
            "x = repro.random_sparse_symmetric(order=4, dim=30, unnz=200, seed=0)\n"
            "repro.hoqri(x, rank=3, max_iters=2, seed=0)\n"
            f"print(json.dumps([m for m in {UNUSED_BY_HOQRI!r} if m in sys.modules]))\n"
        )
    )
    assert loaded == []


def test_import_repro_is_fast():
    seconds = [
        float(
            _run(
                "import time\n"
                "start = time.perf_counter()\n"
                "import repro\n"
                "print(time.perf_counter() - start)\n"
            )
        )
        for _ in range(IMPORT_STARTS)
    ]
    assert statistics.median(seconds) <= IMPORT_BOUND_S, seconds


def test_reexports_survive_submodule_imports():
    """Importing a submodule binds it on its package; a re-exported name
    that is also a submodule's name (``repro.core.s3ttmc``,
    ``repro.decomp.hooi``, ...) must still be the exported object."""
    wrong = json.loads(
        _run(
            "import importlib, json, pkgutil, types\n"
            "import repro\n"
            "from repro._lazy import _ORIGINS\n"
            "names = [i.name for i in pkgutil.walk_packages(repro.__path__, 'repro.')\n"
            "         if not i.name.endswith('__main__')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "wrong = []\n"
            "for package in ['repro'] + [n for n in names if hasattr(\n"
            "        importlib.import_module(n), '__path__')]:\n"
            "    module = importlib.import_module(package)\n"
            "    origins = _ORIGINS[package]\n"
            "    if sorted(module.__all__) != sorted([*origins, *(\n"
            "            ['__version__'] if package == 'repro' else [])]):\n"
            "        wrong.append([package, '__all__'])\n"
            "    if set(origins) - set(dir(module)):\n"
            "        wrong.append([package, 'dir'])\n"
            "    for name, origin in origins.items():\n"
            "        value = getattr(module, name)\n"
            "        held = getattr(importlib.import_module(origin), name)\n"
            "        if value is not held or isinstance(value, types.ModuleType):\n"
            "            wrong.append([package, name])\n"
            "import repro.decomp.hooi as hooi\n"
            "if not callable(hooi):\n"
            "    wrong.append(['repro.decomp', 'import repro.decomp.hooi as hooi'])\n"
            "print(json.dumps(wrong))\n"
        )
    )
    assert wrong == []

