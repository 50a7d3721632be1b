"""Every public name of the traced modules has a caller or a stated reason.

The library serves one workflow: build a code from classical parity checks,
verify it, decode it, simulate it and search for more.  Its callers are the
other library modules, the CLI, the benchmark and the scripts; a name in a
module's ``__all__`` that none of them reads as code either has a reason to
stay in ``KEPT`` or belongs next to its only user (the tests) or nowhere.
"""

from __future__ import annotations

import ast
import importlib

from conftest import REPO_ROOT

# Public names that no library module, benchmark file or script reads, and why
# each stays.
KEPT = {
    "from_classical": "the paper's construction of a code from classical parity checks",
    "generalize": "the paper's generalized form of a split code",
    "circuits_equal": "the gate certificate; the CI console step calls it",
    "cross_propagation": "the graphical language's split-code propagation view",
    "general_propagation": "the graphical language's generalized-code propagation view",
    "augment_for_cnot": "built the 13-3-3 fixture, the CNOT-compatible 11-3-3",
    "solve_ising": "decodes the Hamiltonian that `cpc ising` prints",
    "logical_pauli_frame": "the paper's logical Paulis inside a cycle",
    "coherent_fidelity_631": "the paper's epsilon^4 analysis of the coherent 6-3-1",
}


def _traced_modules() -> tuple[str, ...]:
    """``MODULES`` of bench/tracer.py: the tracer reads each one's ``__all__``."""
    tree = ast.parse((REPO_ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["MODULES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no MODULES")


def _names_read_as_code() -> set[str]:
    """Names loaded, and attributes read, anywhere in the library's callers."""
    files = [p for p in (REPO_ROOT / "src" / "cpc").glob("*.py") if p.name != "__init__.py"]
    files += [*(REPO_ROOT / "bench").glob("*.py"), *(REPO_ROOT / "scripts").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_or_a_reason():
    read = _names_read_as_code()
    exported = set()
    for short in _traced_modules():
        module = importlib.import_module(f"cpc.{short}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"cpc.{short}.__all__ names what it does not define: {missing}"
        exported.update(module.__all__)
    unread = sorted(exported - read - KEPT.keys())
    assert not unread, f"public names with no caller and no reason to stay: {unread}"
    stale = sorted(KEPT.keys() - exported)
    assert not stale, f"kept names that are no longer public: {stale}"
