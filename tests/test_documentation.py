"""Documentation contract: every public item carries a real docstring."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

SKIP_MODULES = {"repro.bench.__main__"}


def _walk_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES or info.name.rsplit(".", 1)[-1].startswith("_"):
            continue
        out.append(info.name)
    return out


MODULES = _walk_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    public = getattr(module, "__all__", None)
    if public is None:
        return
    undocumented = []
    for name in public:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if obj.__module__ != module_name:
                continue  # re-export; documented at origin
            doc = inspect.getdoc(obj)
            if not doc or len(doc.strip()) < 10:
                undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented {undocumented}"


def test_package_has_substantial_init_doc():
    assert repro.__doc__ and "SymProp" in repro.__doc__


def test_repo_docs_exist():
    root = Path(repro.__file__).resolve().parents[2]
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        path = root / name
        assert path.is_file(), name
        assert len(path.read_text(encoding="utf-8")) > 1000, name
    docs = root / "docs"
    assert {p.name for p in docs.glob("*.md")} >= {
        "algorithms.md",
        "api.md",
        "benchmarks.md",
        "formats.md",
    }


def test_design_module_tree_lists_every_module():
    """DESIGN.md §3 names every ``.py`` under ``src/repro`` except
    ``__init__.py``, and nothing that does not exist."""
    root = Path(repro.__file__).resolve().parents[2]
    text = (root / "DESIGN.md").read_text(encoding="utf-8")
    block = text.split("## 3.", 1)[1].split("```", 2)[1]
    listed, package = [], ""
    for line in block.splitlines():
        entry = re.match(r"( {2}| {4})(\w+)(/|\.py)(\s|$)", line)
        if entry is None:
            continue
        indent, name, kind = entry.group(1, 2, 3)
        if kind == "/":
            package = f"{name}/"
        else:
            listed.append((package if len(indent) == 4 else "") + name + kind)
    package_dir = Path(repro.__file__).parent
    actual = {
        p.relative_to(package_dir).as_posix()
        for p in package_dir.rglob("*.py")
        if p.name != "__init__.py" and "__pycache__" not in p.parts
    }
    assert len(listed) == len(set(listed)), "DESIGN.md lists a module twice"
    assert sorted(actual - set(listed)) == [], "modules missing from DESIGN.md §3"
    assert sorted(set(listed) - actual) == [], "DESIGN.md §3 lists missing modules"
