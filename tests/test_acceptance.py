"""Acceptance gate: every criterion of the bundled suite must pass.

The suite is shared with the ``rahecke report`` subcommand; each test prints
its pass/fail line.  The Haagerup criterion dominates the runtime (it scans
two pentagon balls with fifty samples per sphere).  A last test checks that
every function in ``src`` has a caller in ``src``.
"""

import ast
from pathlib import Path

import pytest

import rahecke
from rahecke import acceptance

_RESULTS = {}


def _run(key):
    if key not in _RESULTS:
        fn = dict(acceptance.CRITERIA)[key]
        import time
        t0 = time.time()
        res = fn()
        res.seconds = time.time() - t0
        _RESULTS[key] = res
    res = _RESULTS[key]
    print(res.line())
    return res


@pytest.mark.parametrize("key", [k for k, _ in acceptance.CRITERIA])
def test_criterion(key):
    res = _run(key)
    assert res.passed, f"{res.name}: {res.details}"


def test_every_src_function_has_a_caller():
    """Every non-dunder ``def`` in ``src/rahecke`` is named (as a name or an
    attribute) somewhere in ``src`` outside its own body, or exported in
    ``rahecke.__all__``: nothing in ``src`` exists only for the tests."""
    defs, used = set(), set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.add(node.name)
            inside = inside | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            used.update({name} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in Path(rahecke.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), frozenset())
    dunder = {name for name in defs if name.startswith("__") and name.endswith("__")}
    assert sorted(defs - used - dunder - set(rahecke.__all__)) == []
