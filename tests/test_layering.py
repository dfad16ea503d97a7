"""The architectural layering holds: no upward imports between layers.

Runs the same checker CI runs (``tools/check_layering.py``) so a
violation fails the suite locally before it fails the lint job.
"""

import importlib.util
from pathlib import Path

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
        p.name for p in chk.PACKAGE.iterdir() if p.is_dir() and p.name != "__pycache__"
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
