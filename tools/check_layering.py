#!/usr/bin/env python
"""Fail on upward imports between repro's layers, and on modules nothing runs.

The package is layered (see ``docs/architecture.md``): combinatorics at
the bottom, observability and the runtime (context/budget) as carried
services, formats above those, then the kernel core, the execution and
algorithm layers, and the bench harness on top. A module may import from
its own layer or below; importing *upward* at module level couples a
lower layer to a higher one and fails CI.

Function-level (lazy) imports upward are tolerated only for pairs listed
in ``LAZY_ALLOWED`` — each entry documents a deliberate, cycle-breaking
dependency (e.g. ``repro.obs.export`` rendering bench tables on demand).
An entry no lazy import uses any more is stale and fails the check too,
so the allowlist never outlives the code that needed it.

Thread-local state (``threading.local()``) is ambient state: a run is
configured through ``ExecContext`` alone, so only the modules in
``THREAD_LOCAL_ALLOWED`` may hold it — the active-context stack and the
open-span stacks. The same stale-entry rule applies.

Every module must also be *reached*: it has to lie in the transitive
import closure of the entry points — the files under ``benchmarks/``,
``examples/`` and ``tools/`` and every ``repro.*.__main__``. The closure
follows ``from pkg import name`` to the module that defines ``name`` —
through the package's lazy re-export table (``repro._lazy``) or a
``from .mod import name`` in its ``__init__`` — so a package re-exporting
a module does not by itself reach it. A module outside the closure
passes only if ``PUBLIC_LEAVES`` names it with a reason; an entry for a
module that is reached or gone is stale and fails, as does a ``LAYERS``
rank for a subpackage that no longer exists.

Usage: ``python tools/check_layering.py`` (exit 1 on violations).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: Trees whose every file is an entry point of the reachability closure
#: (besides each ``repro.*.__main__``).
ENTRY_DIRS = [REPO / "benchmarks", REPO / "examples", REPO / "tools"]

#: Layer rank per top-level repro subpackage (or top-level module).
#: Lower rank = lower layer. Equal ranks may import each other.
LAYERS = {
    # The lazy re-export helper every package ``__init__`` imports.
    "_lazy": 0,
    "symmetry": 0,
    "obs": 1,
    "runtime": 2,
    "formats": 3,
    "perfmodel": 4,
    "hypergraph": 4,
    "core": 5,
    "cp": 6,
    "baselines": 6,
    "parallel": 6,
    "decomp": 7,
    "data": 8,
    "apps": 8,
    "verify": 8,
    "bench": 9,
    "serve": 9,
}

#: (importing group, imported group) pairs permitted as *lazy* imports.
LAZY_ALLOWED = {
    # obs.export renders per-kernel tables with bench.records formatting;
    # resolved inside the function so observability stays importable alone.
    ("obs", "bench"),
    # obs.attrib joins measured spans against the perfmodel's closed-form
    # flop counts/rate calibration; lazy for the same importability reason.
    ("obs", "perfmodel"),
}


#: Modules no entry point reaches that stay on purpose, with the reason.
PUBLIC_LEAVES = {
    "repro.data.io": "reads FROSTT .tns files: the only way to load the "
    "real datasets that the synthetic stand-ins replace",
    "repro.hypergraph.io": "reads hyperedge lists: the only way to load "
    "the real hypergraph datasets that the stand-ins replace",
    "repro.apps.moments": "the moment-tensor application of the paper's "
    "introduction (ref [6])",
}

#: Modules (relative to ``src/repro``) permitted to use ``threading.local``.
THREAD_LOCAL_ALLOWED = {
    # The thread's active-ExecContext stack: the one ambient route.
    "runtime/context.py",
    # Per-thread open-span stacks (parentage, not routing).
    "obs/trace.py",
}


def uses_thread_local(tree: ast.Module) -> Optional[int]:
    """Line of the first ``threading.local`` use in ``tree``, or ``None``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "local"
            and isinstance(node.value, ast.Name)
            and node.value.id == "threading"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "threading"
            and any(alias.name == "local" for alias in node.names)
        ):
            return node.lineno
    return None


def module_group(module: str) -> Optional[str]:
    """Top-level repro subpackage of a dotted ``repro.x.y`` name."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def from_module(
    module_name: str, is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute dotted module a ``from X import ...`` reads from, or
    ``None`` when it is outside ``repro``."""
    if node.level == 0:
        base = node.module or ""
        return base if base.split(".")[0] == "repro" else None
    # Relative: start from the importer's containing package and walk up
    # ``level - 1`` further components.
    base_parts = module_name.split(".")
    if not is_package:
        base_parts = base_parts[:-1]
    if not module_name or node.level - 1 >= len(base_parts):
        return None
    base_parts = base_parts[: len(base_parts) - (node.level - 1)]
    return ".".join([*base_parts, node.module] if node.module else base_parts)


def resolve_relative(
    module_name: str, is_package: bool, node: ast.ImportFrom
) -> List[str]:
    """Absolute dotted names targeted by a (possibly relative) import."""
    base = from_module(module_name, is_package, node)
    if base is None:
        return []
    if node.module:
        return [base]
    return [f"{base}.{alias.name}" for alias in node.names]


def iter_imports(
    tree: ast.Module,
) -> Iterator[Tuple[ast.stmt, bool]]:
    """Every import statement with whether it executes at module level."""

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.found: List[Tuple[ast.stmt, bool]] = []
            self.depth = 0

        def visit_FunctionDef(self, node):  # noqa: N802
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Import(self, node):  # noqa: N802
            self.found.append((node, self.depth == 0))

        def visit_ImportFrom(self, node):  # noqa: N802
            self.found.append((node, self.depth == 0))

    visitor = Visitor()
    visitor.visit(tree)
    return iter(visitor.found)


def module_name_of(path: Path) -> str:
    """Dotted name of a file under ``PACKAGE`` (a package's ``__init__``
    is the package)."""
    parts = list(path.relative_to(PACKAGE).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro", *parts])


def package_files() -> Iterator[Path]:
    """Every source file under ``PACKAGE``, in a stable order."""
    for path in sorted(PACKAGE.rglob("*.py")):
        if "__pycache__" not in path.parts:
            yield path


def lazy_tables(
    package: str, tree: ast.Module
) -> Iterator[Tuple[str, Dict[str, str]]]:
    """``(helper module, {name: defining module})`` of each lazy re-export
    table in a package ``__init__``: a call ``helper(__name__, {".mod":
    ("name", ...)})`` of a function the ``__init__`` imports by name."""
    helpers = {
        alias.asname or alias.name: from_module(package, True, node)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for node in tree.body:
        call = getattr(node, "value", None)
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and helpers.get(call.func.id)
            and len(call.args) == 2
            and isinstance(call.args[1], ast.Dict)
        ):
            continue
        table = {}
        for key, names in zip(call.args[1].keys, call.args[1].values):
            relative = ast.literal_eval(key)
            stripped = relative.lstrip(".")
            source = ast.ImportFrom(
                module=stripped or None, names=[], level=len(relative) - len(stripped)
            )
            module = from_module(package, True, source)
            for name in ast.literal_eval(names):
                table[name] = module
        yield helpers[call.func.id], table


def reached_modules() -> Set[str]:
    """Modules in the import closure of the entry points.

    ``from P import name`` on a package ``P`` follows ``P.__init__``'s
    re-export of ``name`` to the module that defines it (or reaches the
    submodule ``P.name``); importing a package by itself reaches nothing.
    A name in ``P``'s lazy table also reaches the helper that resolves it.
    """
    files = {module_name_of(path): path for path in package_files()}
    trees: Dict[str, ast.Module] = {}

    def tree(name: str) -> ast.Module:
        if name not in trees:
            trees[name] = ast.parse(files[name].read_text(encoding="utf-8"))
        return trees[name]

    def lazy_reach(package: str, name: str) -> Optional[List[str]]:
        """Modules ``from package import name`` reaches through the
        package's lazy table, or ``None`` when the table lacks ``name``."""
        for helper, table in lazy_tables(package, tree(package)):
            if name in table:
                return [*reach(helper, None), *reach(table[name], name)]
        return None

    def reach(module: str, name: Optional[str]) -> Iterator[str]:
        """Modules that ``from module import name`` (or, with ``name``
        ``None``, ``import module``) reaches."""
        path = files.get(module)
        if path is None:
            return
        if path.name != "__init__.py":
            yield module
            return
        if name is None:
            return
        lazy = lazy_reach(module, name)
        if lazy is not None:
            yield from lazy
            return
        for node in tree(module).body:
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    base = from_module(module, True, node)
                    if base is None:
                        return
                    if node.module:
                        yield from reach(base, alias.name)
                    else:
                        yield from reach(f"{base}.{alias.name}", None)
                    return
        yield from reach(f"{module}.{name}", None)

    def imported(source: ast.Module, module_name: str) -> Iterator[str]:
        is_package = module_name in files and files[module_name].name == "__init__.py"
        for node, _ in iter_imports(source):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield from reach(alias.name, None)
                continue
            base = from_module(module_name, is_package, node)
            if base is None:
                continue
            for alias in node.names:
                yield from reach(base, alias.name)

    roots = [name for name in files if name.endswith(".__main__")]
    reached = set(roots)
    queue = [module for name in roots for module in imported(tree(name), name)]
    for entry_dir in ENTRY_DIRS:
        for path in sorted(entry_dir.rglob("*.py")):
            if "__pycache__" not in path.parts:
                source = ast.parse(path.read_text(encoding="utf-8"))
                queue.extend(imported(source, ""))
    while queue:
        module = queue.pop()
        if module not in reached:
            reached.add(module)
            queue.extend(imported(tree(module), module))
    return reached


def check_reachability() -> List[str]:
    """Unreached modules not on ``PUBLIC_LEAVES``, and stale entries."""
    reached = reached_modules()
    errors = []
    modules = set()
    for path in package_files():
        if path.name == "__init__.py":
            continue
        name = module_name_of(path)
        modules.add(name)
        if name not in reached and name not in PUBLIC_LEAVES:
            errors.append(
                f"{path.relative_to(PACKAGE)}: unreached module {name}: no "
                f"entry point imports it — delete it, or add it to "
                f"PUBLIC_LEAVES with the reason it stays"
            )
    for name, reason in sorted(PUBLIC_LEAVES.items()):
        if name not in modules:
            errors.append(
                f"PUBLIC_LEAVES: stale entry {name}: no such module — remove it"
            )
        elif name in reached:
            errors.append(
                f"PUBLIC_LEAVES: stale entry {name}: an entry point reaches "
                f"it — remove it"
            )
        elif not reason.strip():
            errors.append(f"PUBLIC_LEAVES: entry {name} states no reason")
    return errors


def check_file(path: Path, used: Optional[Set[object]] = None) -> List[str]:
    """Layering and thread-local violations in one file; adds each
    allowance it uses (a ``LAZY_ALLOWED`` pair or a
    ``THREAD_LOCAL_ALLOWED`` path) to ``used``."""
    rel = path.relative_to(PACKAGE)
    module_name = module_name_of(path)
    is_package = path.name == "__init__.py"
    if module_name == "repro":
        return []  # the facade re-exports from everywhere by design
    group = module_group(module_name)
    rank = LAYERS.get(group)
    if rank is None:
        return [f"{rel}: unknown layer {group!r} — add it to LAYERS"]

    tree = ast.parse(path.read_text(encoding="utf-8"))
    errors = []
    line = uses_thread_local(tree)
    if line is not None:
        if rel.as_posix() in THREAD_LOCAL_ALLOWED:
            if used is not None:
                used.add(rel.as_posix())
        else:
            errors.append(
                f"{rel}:{line}: threading.local() outside "
                f"{sorted(THREAD_LOCAL_ALLOWED)}: route per-run state "
                f"through ExecContext"
            )
    for node, at_module_level in iter_imports(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        else:
            targets = resolve_relative(module_name, is_package, node)
        for target in targets:
            tgroup = module_group(target)
            if tgroup is None or tgroup == group:
                continue
            trank = LAYERS.get(tgroup)
            if trank is None:
                errors.append(
                    f"{rel}:{node.lineno}: import of unknown layer "
                    f"{tgroup!r} — add it to LAYERS"
                )
                continue
            if trank <= rank:
                continue
            if not at_module_level and (group, tgroup) in LAZY_ALLOWED:
                if used is not None:
                    used.add((group, tgroup))
                continue
            kind = "module-level" if at_module_level else "lazy"
            errors.append(
                f"{rel}:{node.lineno}: {kind} upward import: "
                f"{group} (layer {rank}) -> {tgroup} (layer {trank})"
            )
    return errors


def check_package() -> List[str]:
    """Every violation under ``src/repro``: upward imports, unreached
    modules and stale allowances, ranks and leaves."""
    errors: List[str] = []
    used: Set[object] = set()
    for path in package_files():
        errors.extend(check_file(path, used))
    groups = {
        path.relative_to(PACKAGE).parts[0].removesuffix(".py")
        for path in package_files()
        if path.parent != PACKAGE or path.name != "__init__.py"
    }
    for group in sorted(set(LAYERS) - groups):
        errors.append(
            f"LAYERS: stale rank {group!r}: no such subpackage or module "
            f"under src/repro — remove it"
        )
    for importer, imported in sorted(LAZY_ALLOWED - used):
        errors.append(
            f"LAZY_ALLOWED: stale allowance {importer} -> {imported}: "
            f"no lazy import in src/repro uses it — remove it"
        )
    for rel in sorted(THREAD_LOCAL_ALLOWED - used):
        errors.append(
            f"THREAD_LOCAL_ALLOWED: stale allowance {rel}: it uses no "
            f"threading.local — remove it"
        )
    errors.extend(check_reachability())
    return errors


def main() -> int:
    errors = check_package()
    if errors:
        print(f"{len(errors)} layering violation(s):", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    print(
        f"layering OK ({len(LAYERS)} layers, no upward imports, every module "
        f"reached or one of {len(PUBLIC_LEAVES)} public leaves)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
