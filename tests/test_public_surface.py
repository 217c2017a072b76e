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

The same holds for the options a caller sets (``test_every_option_has_a_caller``):
every request keyword, config field and session or service option is passed
by name in some call under ``benchmarks/`` or ``examples/``, or it goes.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
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

#: Options kept without a caller, as ``owner.option``, each with the ROADMAP
#: item that gives it one.  An option leaves this table when a bench or an
#: example passes it, or when it is deleted.
EXEMPT_OPTIONS = {
    "validate_request.grouping": (
        "items 3(b) and 22: grouping=None comes to mean 'choose', and an "
        "explicit grouping (a single group above the crossover) overrides it"
    ),
    "SubmatrixContext.apply.grouping": (
        "items 3(b) and 22: the same grouping= as every density request"
    ),
}

#: Where a caller sets options: the calls (by the name they are made through)
#: whose keyword arguments count for an owner's options.
OPTION_CALLS = {
    "validate_request": {
        "validate_request", "observables", "density", "trajectory", "submit"
    },
    "EngineConfig": {"EngineConfig", "replace"},
    "SubmatrixContext.apply": {"apply"},
    "SubmatrixContext.pipeline": {"pipeline"},
    "DensityService": {"DensityService", "submit"},
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


def _options(function):
    """The parameters of ``function`` a caller may set by name: those with a
    default that are not positional-only."""
    named = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    return [
        parameter.name
        for parameter in inspect.signature(function).parameters.values()
        if parameter.kind in named and parameter.default is not parameter.empty
    ]


def owned_options():
    """``{owner: option names}`` of the request vocabulary, the config and the
    session's and service's keyword options."""
    from repro.api import EngineConfig, SubmatrixContext
    from repro.api.observables import validate_request
    from repro.serve import DensityService

    return {
        "validate_request": _options(validate_request),
        "EngineConfig": [field.name for field in dataclasses.fields(EngineConfig)],
        "SubmatrixContext.apply": _options(SubmatrixContext.apply),
        "SubmatrixContext.pipeline": _options(SubmatrixContext.pipeline),
        "DensityService": _options(DensityService.__init__)
        + _options(DensityService.submit),
    }


@functools.lru_cache(maxsize=None)
def passed_keywords():
    """``{call name: keyword names}`` of every call in ``benchmarks/`` and
    ``examples/``, a call named by its function or method name."""
    passed = {}
    for directory in ("benchmarks", "examples"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                function = node.func
                name = getattr(function, "attr", None) or getattr(function, "id", None)
                keywords = {keyword.arg for keyword in node.keywords if keyword.arg}
                passed.setdefault(name, set()).update(keywords)
    return passed


def test_every_option_has_a_caller():
    """An option that only tests set is a knob nobody turns: it goes (or
    becomes a constant) unless ``EXEMPT_OPTIONS`` names the ROADMAP item that
    gives it a caller."""
    passed = passed_keywords()
    orphans, stale = [], []
    for owner, options in owned_options().items():
        calls = OPTION_CALLS[owner]
        callers = set().union(*(passed.get(call, set()) for call in calls))
        for option in options:
            name = f"{owner}.{option}"
            if name in EXEMPT_OPTIONS:
                if option in callers:
                    stale.append(name)
            elif option not in callers:
                orphans.append(name)
    known = {
        f"{owner}.{option}"
        for owner, options in owned_options().items()
        for option in options
    }
    stale += sorted(set(EXEMPT_OPTIONS) - known)
    assert not orphans, (
        "options no bench or example passes — make them constants or delete "
        "them:\n  " + "\n  ".join(orphans)
    )
    assert not stale, f"drop these from EXEMPT_OPTIONS (deleted or now passed): {stale}"
