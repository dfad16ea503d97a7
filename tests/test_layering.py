"""The architectural layering holds: no upward imports between layers,
and every module is reached from an entry point.

Runs the same checker CI runs (``tools/check_layering.py``) so a
violation fails the suite locally before it fails the lint job.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_layering", REPO / "tools" / "check_layering.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_upward_imports():
    chk = _load_checker()
    errors = chk.check_package()
    assert not errors, "\n".join(errors)


def test_every_subpackage_has_a_layer():
    chk = _load_checker()
    groups = {
        p.name for p in chk.PACKAGE.iterdir() if (p / "__init__.py").is_file()
    }
    groups |= {
        p.stem
        for p in chk.PACKAGE.glob("*.py")
        if p.name != "__init__.py"
    }
    missing = groups - set(chk.LAYERS)
    assert not missing, f"subpackages without a layer rank: {sorted(missing)}"


def test_checker_detects_inverted_ranks():
    """Guard against the checker itself going vacuous."""
    chk = _load_checker()
    chk.LAYERS["parallel"] = 99  # pretend parallel sits above decomp
    assert any("upward import" in e for e in chk.check_package())


def test_checker_rejects_stale_lazy_allowance(capsys):
    """An allowlisted lazy pair that no import uses fails the check."""
    chk = _load_checker()
    chk.LAZY_ALLOWED.add(("core", "parallel"))
    errors = chk.check_package()
    assert [e for e in errors if "stale allowance core -> parallel" in e]
    assert chk.main() == 1
    assert "stale allowance core -> parallel" in capsys.readouterr().err


def test_checker_rejects_thread_local_outside_allowlist(tmp_path):
    """A new ``threading.local()`` is new ambient state and fails."""
    chk = _load_checker()
    chk.PACKAGE = tmp_path
    (tmp_path / "core").mkdir()
    bad = tmp_path / "core" / "ambient.py"
    bad.write_text("import threading\n\n_STATE = threading.local()\n")
    also_bad = tmp_path / "core" / "aliased.py"
    also_bad.write_text("from threading import local\n")
    allowed = tmp_path / "obs"
    allowed.mkdir()
    (allowed / "trace.py").write_text("import threading\n_S = threading.local()\n")
    assert any("core/ambient.py:3: threading.local()" in e for e in chk.check_file(bad))
    assert chk.check_file(also_bad)
    used = set()
    assert chk.check_file(allowed / "trace.py", used) == []
    assert used == {"obs/trace.py"}


def test_checker_rejects_stale_thread_local_allowance():
    chk = _load_checker()
    chk.THREAD_LOCAL_ALLOWED.add("core/engine.py")
    errors = chk.check_package()
    assert errors == [
        "THREAD_LOCAL_ALLOWED: stale allowance core/engine.py: it uses no "
        "threading.local — remove it"
    ]


def test_checker_rejects_stale_layer_rank():
    """A rank for a subpackage that does not exist is a dead layer."""
    chk = _load_checker()
    chk.LAYERS["nonexistent"] = 6
    assert chk.check_package() == [
        "LAYERS: stale rank 'nonexistent': no such subpackage or module "
        "under src/repro — remove it"
    ]


def test_checker_rejects_orphan_module(tmp_path):
    """A module only its package re-exports is unreached and fails; a
    re-export a tool imports reaches the module defining the name."""
    chk = _load_checker()
    pkg = tmp_path / "src" / "repro"
    (pkg / "core").mkdir(parents=True)
    (pkg / "__init__.py").write_text('"""Facade."""\n')
    (pkg / "core" / "__init__.py").write_text(
        "from .orphan import g\nfrom .used import f\n"
    )
    (pkg / "core" / "used.py").write_text("def f():\n    return 1\n")
    (pkg / "core" / "orphan.py").write_text("def g():\n    return 2\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text("from repro.core import f\n")
    chk.PACKAGE = pkg
    chk.ENTRY_DIRS = [tmp_path / "tools"]
    chk.PUBLIC_LEAVES.clear()
    assert chk.reached_modules() == {"repro.core.used"}
    errors = chk.check_reachability()
    assert len(errors) == 1
    assert errors[0].startswith("core/orphan.py: unreached module repro.core.orphan")
    chk.PUBLIC_LEAVES["repro.core.orphan"] = "kept for a stated reason"
    assert chk.check_reachability() == []


def test_checker_follows_lazy_reexport_tables(tmp_path):
    """A name read through a package's lazy table reaches the module that
    defines it and the helper resolving it; a module only the table names
    stays unreached and fails."""
    chk = _load_checker()
    pkg = tmp_path / "src" / "repro"
    (pkg / "core").mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        '"""Facade."""\n'
        "from ._lazy import lazy_exports\n"
        '__getattr__, __dir__, __all__ = lazy_exports(__name__, {".core": ("f",)})\n'
    )
    (pkg / "_lazy.py").write_text("def lazy_exports(package, table):\n    pass\n")
    (pkg / "core" / "__init__.py").write_text(
        "from .._lazy import lazy_exports\n"
        "__getattr__, __dir__, __all__ = lazy_exports(\n"
        '    __name__, {".used": ("f",), ".orphan": ("g",)}\n'
        ")\n"
    )
    (pkg / "core" / "used.py").write_text("def f():\n    return 1\n")
    (pkg / "core" / "orphan.py").write_text("def g():\n    return 2\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text("from repro import f\n")
    chk.PACKAGE = pkg
    chk.ENTRY_DIRS = [tmp_path / "tools"]
    chk.PUBLIC_LEAVES.clear()
    assert chk.reached_modules() == {"repro._lazy", "repro.core.used"}
    errors = chk.check_reachability()
    assert len(errors) == 1
    assert errors[0].startswith("core/orphan.py: unreached module repro.core.orphan")
    (tmp_path / "tools" / "run.py").write_text("from repro.core import g\n")
    assert chk.reached_modules() == {"repro._lazy", "repro.core.orphan"}


def test_checker_rejects_orphan_in_the_real_package():
    """Dropping a real leaf's allowance makes the full check fail."""
    chk = _load_checker()
    del chk.PUBLIC_LEAVES["repro.data.io"]
    errors = chk.check_package()
    assert len(errors) == 1 and "unreached module repro.data.io" in errors[0]


@pytest.mark.parametrize(
    "name, why",
    [
        ("repro.core.engine", "an entry point reaches it"),
        ("repro.core.missing", "no such module"),
    ],
)
def test_checker_rejects_stale_public_leaf(name, why, capsys):
    chk = _load_checker()
    chk.PUBLIC_LEAVES[name] = "no longer true"
    assert chk.check_package() == [
        f"PUBLIC_LEAVES: stale entry {name}: {why} — remove it"
    ]
    assert chk.main() == 1
    assert f"stale entry {name}" in capsys.readouterr().err


def test_checker_rejects_public_leaf_without_reason():
    chk = _load_checker()
    chk.PUBLIC_LEAVES["repro.data.io"] = " "
    assert chk.check_package() == [
        "PUBLIC_LEAVES: entry repro.data.io states no reason"
    ]
