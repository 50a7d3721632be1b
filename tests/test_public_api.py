"""Every public name of the library has a caller or a stated reason, and its
modules import one another without a cycle.

The library serves one workflow: build a code from classical parity checks,
verify it, decode it, simulate it and search for more.  Its callers are the
other library modules, the CLI, the benchmark and the scripts; a name in a
module's ``__all__`` that none of them reads as code either has a reason to
stay in ``KEPT`` or belongs next to its only user (the tests) or nowhere.

The same rule reaches into the classes those modules define and export: each
public function, property, classmethod and staticmethod of such a class must
be read as an attribute by those callers, or have a reason to stay in
``KEPT_MEMBERS``.
"""

from __future__ import annotations

import ast
import functools
import graphlib
import importlib
import inspect
import types

from conftest import REPO_ROOT

# Public names that no library module, benchmark file or script reads, and why
# each stays.
KEPT = {
    "generalize": "the paper's generalized form of a split code",
    "circuits_equal": "the gate certificate; the CI console step calls it",
    "cross_propagation": "the graphical language's split-code propagation view",
    "general_propagation": "the graphical language's generalized-code propagation view",
    "augment_for_cnot": "built the 13-3-3 fixture, the CNOT-compatible 11-3-3",
    "logical_pauli_frame": "the paper's logical Paulis inside a cycle",
    "coherent_fidelity_631": "the paper's epsilon^4 analysis of the coherent 6-3-1",
}

# Public class members that no library module, benchmark file or script reads
# as an attribute, and why each stays.
KEPT_MEMBERS = {
    "PauliString.commutes_with": (
        "the commutation oracle the stabilizer tests run on every generator set"
    ),
}

# The kinds of class member that the member rule checks.
_MEMBER_KINDS = (
    types.FunctionType, property, functools.cached_property, classmethod, staticmethod
)


def _library_modules() -> list[str]:
    """Every module under src/cpc but the package's ``__init__``."""
    files = (REPO_ROOT / "src" / "cpc").glob("*.py")
    return sorted(p.stem for p in files if p.stem != "__init__")


def _caller_trees() -> list[tuple[bool, ast.AST]]:
    """The parsed library modules, benchmark files and scripts, each with
    whether it is a library module."""
    library = [p for p in (REPO_ROOT / "src" / "cpc").glob("*.py") if p.name != "__init__.py"]
    others = [*(REPO_ROOT / "bench").glob("*.py"), *(REPO_ROOT / "scripts").glob("*.py")]
    return [
        (path in library, ast.parse(path.read_text(encoding="utf-8")))
        for path in library + others
    ]


def _module_level_names(tree: ast.Module) -> set[str]:
    """The names a module defines at module level: its functions, classes and
    assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _names_read_as_code() -> set[str]:
    """Attributes read anywhere in the library's callers, and names loaded
    where they refer to a public name: in the library module that defines
    them, or in a file that imports them by name.  A local variable that
    shares a public name does not read it."""
    names = set()
    for is_library, tree in _caller_trees():
        # the public name each bare name of this file refers to
        bound = {name: name for name in _module_level_names(tree)} if is_library else {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                bound.update((alias.asname or alias.name, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
                names.add(bound[node.id])
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _attributes_read() -> set[str]:
    """Attributes read (loaded, not assigned or deleted) in the library's callers."""
    return {
        node.attr
        for _, tree in _caller_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_name_has_a_caller_or_a_reason():
    read = _names_read_as_code()
    exported = set()
    for short in _library_modules():
        module = importlib.import_module(f"cpc.{short}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"cpc.{short}.__all__ names what it does not define: {missing}"
        exported.update(module.__all__)
    unread = sorted(exported - read - KEPT.keys())
    assert not unread, f"public names with no caller and no reason to stay: {unread}"
    stale = sorted(KEPT.keys() - exported)
    assert not stale, f"kept names that are no longer public: {stale}"


def test_every_public_function_and_class_is_defined_in_its_module():
    # one home per name: a module exports the functions and classes it
    # defines, and a caller imports each from there
    elsewhere = []
    for short in _library_modules():
        module = importlib.import_module(f"cpc.{short}")
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                if value.__module__ != module.__name__:
                    elsewhere.append(f"cpc.{short}.{name} (defined in {value.__module__})")
    assert not elsewhere, f"public names defined in another module: {elsewhere}"


def test_every_public_member_has_a_caller_or_a_reason():
    read = _attributes_read()
    members = {}  # "Class.member" -> member
    for short in _library_modules():
        module = importlib.import_module(f"cpc.{short}")
        for name in module.__all__:
            cls = getattr(module, name)
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            members.update(
                (f"{name}.{attr}", attr)
                for attr, value in vars(cls).items()
                if not attr.startswith("_") and isinstance(value, _MEMBER_KINDS)
            )
    unread = sorted(
        member for member, attr in members.items()
        if attr not in read and member not in KEPT_MEMBERS
    )
    assert not unread, f"public members with no caller and no reason to stay: {unread}"
    stale = sorted(KEPT_MEMBERS.keys() - members.keys())
    assert not stale, f"kept members that are no longer public: {stale}"


def _relative_imports() -> dict[str, set[str]]:
    """The library modules each module imports, at module level or inside a
    function.  ``from . import name`` counts only when ``name`` is a module:
    anything else comes from ``__init__``, which imports no module."""
    modules = _library_modules()
    graph = {}
    for short in modules:
        tree = ast.parse((REPO_ROOT / "src" / "cpc" / f"{short}.py").read_text(encoding="utf-8"))
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [alias.name for alias in node.names]
                targets.update(name for name in names if name in modules)
        graph[short] = targets
    return graph


def test_library_imports_have_no_cycle():
    graph = _relative_imports()
    # prepare raises CycleError, naming the cycle, if there is one
    graphlib.TopologicalSorter(graph).prepare()
    # the fault table's import rule: neither dynamics nor search, so that any
    # module, the search included, can read the table
    assert graph["faults"] <= {"decoding", "gf2", "model"}


def test_package_binds_only_its_version_and_submodules():
    # each name has one import path, from the module that defines it
    import cpc
    import cpc.cli  # imports every library module
    import cpc.search as search
    import cpc.stabilizers as stabilizers

    extra = sorted(
        name for name, value in vars(cpc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert not extra, f"the package binds names that are not modules: {extra}"
    assert isinstance(search, types.ModuleType) and isinstance(stabilizers, types.ModuleType)
