#!/usr/bin/env python
"""Fail on upward imports between repro's architectural layers.

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

Usage: ``python tools/check_layering.py`` (exit 1 on violations).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: Layer rank per top-level repro subpackage (module for validation.py).
#: Lower rank = lower layer. Equal ranks may import each other.
LAYERS = {
    "symmetry": 0,
    "obs": 1,
    "runtime": 2,
    "formats": 3,
    "perfmodel": 4,
    "hypergraph": 4,
    "core": 5,
    "ops": 6,
    "cp": 6,
    "general": 6,
    "baselines": 6,
    "parallel": 6,
    "decomp": 7,
    "data": 8,
    "apps": 8,
    "validation": 8,
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


def resolve_relative(
    module_name: str, is_package: bool, node: ast.ImportFrom
) -> List[str]:
    """Absolute dotted names targeted by a (possibly relative) import."""
    if node.level == 0:
        base = node.module or ""
        if not base.startswith("repro"):
            return []
        return [base]
    # Relative: start from the importer's containing package and walk up
    # ``level - 1`` further components.
    base_parts = module_name.split(".")
    if not is_package:
        base_parts = base_parts[:-1]
    if node.level - 1 > len(base_parts):
        return []
    if node.level > 1:
        base_parts = base_parts[: len(base_parts) - (node.level - 1)]
    base = ".".join(base_parts)
    if node.module:
        return [f"{base}.{node.module}"]
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


def check_file(path: Path, used: Optional[Set[object]] = None) -> List[str]:
    """Layering and thread-local violations in one file; adds each
    allowance it uses (a ``LAZY_ALLOWED`` pair or a
    ``THREAD_LOCAL_ALLOWED`` path) to ``used``."""
    rel = path.relative_to(PACKAGE)
    parts = list(rel.parts)
    is_package = parts[-1] == "__init__.py"
    if is_package:
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    module_name = ".".join(["repro", *parts]) if parts else "repro"

    if module_name == "repro":
        return []  # the facade re-exports from everywhere by design
    group = parts[0]
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
    """Every violation under ``src/repro``, stale allowances included."""
    errors: List[str] = []
    used: Set[object] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        errors.extend(check_file(path, used))
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
    return errors


def main() -> int:
    errors = check_package()
    if errors:
        print(f"{len(errors)} layering violation(s):", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    print(f"layering OK ({len(LAYERS)} layers, no upward imports)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
