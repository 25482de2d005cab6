"""Every function, method and class under ``src/repro`` earns a caller.

A static census over ``src/``, ``examples/`` and ``perfbench/``: a
definition whose name appears nowhere else there (package export maps do
not count) is code no experiment, sweep, service route, CLI command,
example or benchmark workload can reach.  It fails this test unless
:data:`KEEP` names it with a reason.  The census also fails on an import a
module never uses, and on a docstring cross-reference to code that is gone.
"""

import ast
import builtins
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Why a definition with no caller stays, keyed ``module:Qualified.name``.
#: Each reason starts with one of :data:`REASONS`.
KEEP = {
    "repro.contention.analytical:ClosedFormContentionModel":
        "reference: the Monte-Carlo's low-load backoff is checked against "
        "this closed form",
    "repro.contention.monte_carlo:ContentionSimulator.simulate_window":
        "reference: the window oracle compares the inlined loop with a "
        "state-machine loop through it",
    "repro.contention.monte_carlo:window_statistics":
        "reference: the window oracle reduces its reference windows with it",
    "repro.sweep.analysis:dominates":
        "reference: tests check pareto_front's members against it",
    "repro.sweep.spec:spec_from_payload":
        "test seam: rebuilding a spec from to_payload proves the payload "
        "(and so spec_hash and the manifest) loses nothing",
    "repro.obs.trace:deterministic_view":
        "test seam: tests compare traces of two runs through it",
    "repro.service.worker:WorkerPool.wait_idle":
        "test seam: service tests wait for the pool to drain",
    "repro.pool:KernelHelpers.wait_ready":
        "test seam: helper tests wait until no helper is starting, so a "
        "call is known to use them",
    "repro.mac.superframe:Superframe.backoff_slot_boundary_after":
        "ROADMAP item 11: the backoff-slot grid of slotted CSMA/CA",
    "repro.sim.monitor:Monitor.confidence_interval":
        "ROADMAP items 7 and 10: an interval on every simulated headline",
    "repro.service.http:ServiceHandler.do_GET":
        "stdlib hook: http.server dispatches GET requests to it",
    "repro.service.http:ServiceHandler.do_POST":
        "stdlib hook: http.server dispatches POST requests to it",
    "repro.service.http:ServiceHandler.log_message":
        "stdlib hook: silences http.server's request log",
}

REASONS = ("reference", "test seam", "paper claim", "ROADMAP item",
           "stdlib hook")

_WORD = re.compile(r"[A-Za-z_]\w*")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _scan(tree):
    """What one module uses, imports and exports.

    Used are its names, attributes, keywords and the words of its
    non-docstring string literals; ``_EXPORTS`` and ``__all__``
    assignments (export maps) are not uses.
    Returns ``(used, imports, exported)``: a :class:`Counter` of used
    identifiers, ``(line, bound name, imported name)`` of every import, and
    the names of the module's ``__all__``.
    """
    used, imports, exported = Counter(), [], set()
    skipped = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, _SCOPES) and node.body \
                and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant):
            skipped.add(id(node.body[0].value))
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        if names & {"_EXPORTS", "__all__"}:
            for sub in ast.walk(node):
                skipped.add(id(sub))
                if "__all__" in names and isinstance(sub, ast.Constant):
                    exported.add(sub.value)
        elif isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            used[node.arg] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).partition(".")[0]
                imports.append((node.lineno, bound, alias.name))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_WORD.findall(node.value))
    return used, imports, exported


def _module_name(path):
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions(tree):
    """``(qualified name, name)`` of every module-level function and class
    and every member of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef)):
                    yield f"{node.name}.{member.name}", member.name


def _parse(sources):
    """``{path: (tree, used, imports, exported)}`` of ``{path: source}``."""
    scans = {}
    for path, source in sources.items():
        tree = ast.parse(source)
        scans[path] = (tree, *_scan(tree))
    return scans


def _corpus():
    return {path: path.read_text(encoding="utf-8")
            for directory in ("src", "examples", "perfbench")
            for path in sorted((ROOT / directory).rglob("*.py"))}


def _uncalled(scans):
    """``module:Qualified.name`` of every definition nothing references."""
    used = Counter()
    for path, (_, names, imports, _) in scans.items():
        used.update(names)
        # An ``__init__``'s imports are its export map.
        if path.name != "__init__.py":
            used.update(name.rpartition(".")[2] for _, _, name in imports)
    found = set()
    for path, (tree, *_) in scans.items():
        if PACKAGE not in path.parents:
            continue
        for qualname, name in _definitions(tree):
            if not (name.startswith("__") and name.endswith("__")) \
                    and not used[name]:
                found.add(f"{_module_name(path)}:{qualname}")
    return found


def _unused_imports(scans):
    """``module:line name`` of every import its module never uses.

    A name a module's ``__all__`` lists is an export, not an orphan.
    """
    return [f"{_module_name(path)}:{line} {bound}"
            for path, (_, used, imports, exported) in scans.items()
            if PACKAGE in path.parents and path.name != "__init__.py"
            for line, bound, _ in imports
            if not used[bound] and bound not in exported]


SCANS = _parse(_corpus())
UNCALLED = _uncalled(SCANS)
MODULES = sorted({_module_name(path) for path, (tree, *_) in SCANS.items()
                  if PACKAGE in path.parents and any(_definitions(tree))})


@pytest.mark.parametrize("module", MODULES)
def test_every_definition_has_a_caller_or_a_kept_reason(module):
    found = sorted(name for name in UNCALLED - set(KEEP)
                   if name.partition(":")[0] == module)
    assert found == [], "delete these or give them a KEEP reason"


@pytest.mark.parametrize("entry", sorted(KEEP))
def test_every_kept_member_still_needs_its_reason(entry):
    assert KEEP[entry].startswith(REASONS)
    assert entry in UNCALLED, "gone or has a caller now: drop the entry"


def test_no_module_imports_a_name_it_does_not_use():
    assert _unused_imports(SCANS) == []


_ROLE = re.compile(r":(?:func|class|meth|attr|data|exc|obj):`([^`]+)`")


def test_docstring_cross_references_name_code_that_exists():
    """A ``:func:``, ``:class:``, ``:meth:`` … reference in a docstring
    under ``src/repro`` names something ``src/`` defines, so a deleted
    member leaves no reference behind.  References into other packages
    (``numpy``, the stdlib) are not checked."""
    defined, external, references = set(dir(builtins)), set(), []
    for path, (tree, *_) in SCANS.items():
        if ROOT / "src" not in path.parents:
            continue
        defined.update(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.Import):
                external.update(a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                external.add(node.module.partition(".")[0])
            if isinstance(node, _SCOPES):
                docstring = ast.get_docstring(node, clean=False) or ""
                references += [(_module_name(path), target)
                               for target in _ROLE.findall(docstring)]
    external.discard("repro")
    missing = []
    for module, target in references:
        name = "".join(target.split()).rpartition("<")[2].rstrip(">")
        name = name.lstrip("~.").removesuffix("()")
        if name.partition(".")[0] in external:
            continue
        if name.rpartition(".")[2] not in defined:
            missing.append(f"{module}: {target}")
    assert missing == []


# -- the census' own rules, on a corpus of two modules --------------------------

_TARGET = "def target():\n    return 1\n"


@pytest.mark.parametrize("user, called", [
    ("x = 1\n", False),
    ('"""Documents target only."""\n', False),
    ("__all__ = ['target']\n", False),
    ("_EXPORTS = {'target': 'repro.demo'}\n", False),
    ("from repro.demo import target\n", True),
    ("import repro.demo\nrepro.demo.target()\n", True),
    ("f(target=1)\n", True),
    ("getattr(object, 'target')\n", True),
], ids=["unreferenced", "docstring", "all", "export map", "import",
        "attribute", "keyword", "string literal"])
def test_census_counts_a_reference(user, called):
    scans = _parse({PACKAGE / "demo.py": _TARGET, PACKAGE / "user.py": user})
    assert ("repro.demo:target" not in _uncalled(scans)) is called


def test_census_takes_an_init_import_for_an_export():
    scans = _parse({PACKAGE / "demo.py": _TARGET,
                    PACKAGE / "pkg" / "__init__.py":
                        "from repro.demo import target\n"})
    assert _uncalled(scans) == {"repro.demo:target"}


def test_census_counts_members_but_never_dunders():
    scans = _parse({PACKAGE / "demo.py":
                    "class Box:\n"
                    "    def __len__(self):\n        return 0\n"
                    "    def unused(self):\n        return 1\n"})
    assert _uncalled(scans) == {"repro.demo:Box", "repro.demo:Box.unused"}


@pytest.mark.parametrize("source, unused", [
    ("import math\n", ["repro.demo:1 math"]),
    ("import math\nmath.pi\n", []),
    ("import os.path\nos.sep\n", []),
    ("from __future__ import annotations\n", []),
    ("from os import path\n__all__ = ['path']\n", []),
    ("from typing import List\nx: 'List[int]' = []\n", []),
], ids=["unused", "used", "dotted", "future", "exported",
        "string annotation"])
def test_census_finds_an_unused_import(source, unused):
    assert _unused_imports(_parse({PACKAGE / "demo.py": source})) == unused
