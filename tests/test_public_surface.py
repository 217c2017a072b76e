"""Every public name in ``src/`` has a caller outside ``tests/``.

Code that only tests reach belongs in ``tests/`` (the serial reference the
engine is compared against lives in ``submatrix_reference.py``), and code
that nothing reaches is deleted.  This guard parses ``src/repro`` and fails
for every public top-level ``def``/``class``, and every public method or
property of a public class (``Class.name``; dunders are not public), that no
code in ``src/``, ``benchmarks/`` or ``examples/`` refers to.

A reference is an ``ast.Name``, an ``ast.Attribute`` or a name in a
``from … import``.  These do not count: the name's own definition (a
recursive call, a class naming itself, a method reading itself), the
``__all__`` strings and the names ``getattr`` is given (they are string
constants, not names) and the re-exports of a package ``__init__.py``.
Names are matched without their module or class, so a public name that two
modules or classes define counts as referenced when either is.
"""

from __future__ import annotations

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples")

#: Public names kept without a caller, each with the ROADMAP item that gives
#: it one.  A name leaves this table when it gains a caller or is deleted.
EXEMPT = {
    "group_columns_greedy_chunks": (
        "item 3(b): the grouping chooser scores it against single columns"
    ),
    "inverse_pth_root": "item 2(a): the λ^{-1/p} per-submatrix kernel",
    "TrajectoryStats.plans_patched": (
        "item 1(f): an inert pin benchmarks/e2e reads by name; it goes with "
        "the pin"
    ),
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _members(node):
    """The methods and properties of a class node (none for a function)."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [member for member in node.body if isinstance(member, FUNCTIONS)]


def _referred_name(name: str) -> str:
    """The name a reference to ``name`` uses: a method's own, not its class's."""
    return name.rpartition(".")[2]


@functools.lru_cache(maxsize=None)
def public_definitions():
    """``{name: [module path, ...]}`` of every public top-level def/class and
    every public method or property of a public class, as ``Class.name``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(ROOT)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                found.setdefault(node.name, []).append(module)
                for member in _members(node):
                    if not member.name.startswith("_"):
                        name = f"{node.name}.{member.name}"
                        found.setdefault(name, []).append(module)
    return found


@functools.lru_cache(maxsize=None)
def referenced_names():
    """Every name referred to in ``src/``, ``benchmarks/`` and ``examples/``."""
    names = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            reexports = directory == "src" and path.name == "__init__.py"
            # nodes inside a top-level definition or a method, by the names
            # those define
            own = {}
            for node in tree.body:
                if isinstance(node, DEFINITIONS):
                    for inner in ast.walk(node):
                        own.setdefault(id(inner), set()).add(node.name)
                    for member in _members(node):
                        for inner in ast.walk(member):
                            own[id(inner)].add(member.name)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    if not reexports:
                        names.update(alias.name for alias in node.names)
                    continue
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own.get(id(node), ()):
                    names.add(name)
    return names


def test_every_public_name_has_a_caller_outside_tests():
    referenced = referenced_names()
    orphans = sorted(
        f"{module}: {name}"
        for name, modules in public_definitions().items()
        if _referred_name(name) not in referenced and name not in EXEMPT
        for module in modules
    )
    assert not orphans, (
        "public names with no caller in src/, benchmarks/ or examples/ — "
        "move a test-only one into tests/, delete a dead one:\n  "
        + "\n  ".join(orphans)
    )


def test_every_exemption_is_still_needed():
    definitions = public_definitions()
    referenced = referenced_names()
    stale = sorted(
        name
        for name in EXEMPT
        if name not in definitions or _referred_name(name) in referenced
    )
    assert not stale, f"drop these from EXEMPT (deleted or now called): {stale}"
