"""Acceptance gate: every criterion of the bundled suite must pass.

The suite is shared with the ``rahecke report`` subcommand; each test prints
its pass/fail line, and the results, details included, must equal the report
recorded in ``tests/golden/report.json``.  The Haagerup criterion dominates
the runtime (it scans two pentagon balls with fifty samples per sphere).  A
last test checks that every function in ``src`` has a caller in ``src``.
"""

import ast
import json
from pathlib import Path

import pytest

import rahecke
from rahecke import acceptance, l2rep
from rahecke.cli import _encode
from rahecke.coxeter import CoxeterDiagram

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


def test_report_matches_golden():
    """Each criterion's name, verdict and details, encoded as ``rahecke
    report`` prints them, equal the recorded report in tests/golden/."""
    golden = json.loads((Path(__file__).parent / "golden" / "report.json").read_text())
    assert [c["name"] for c in golden["criteria"]] == [_run(k).name for k, _ in acceptance.CRITERIA]
    for key, want in zip((k for k, _ in acceptance.CRITERIA), golden["criteria"]):
        res = _run(key)
        got = {"name": res.name, "passed": res.passed, "details": res.details}
        assert json.loads(json.dumps(_encode(got))) == want, res.name


@pytest.mark.parametrize("mutant", ["clique number - 1", "zero tail"])
def test_criterion_9_sees_a_short_tail(mutant, monkeypatch):
    """Criterion 9 turns red when the Q-operator tail rests on one chain too
    few, or is dropped."""
    if mutant == "zero tail":
        q_operator = l2rep.q_operator

        def zero_tail(*args):
            diag, _, omega = q_operator(*args)
            return diag, 0, omega

        monkeypatch.setattr(l2rep, "q_operator", zero_tail)
    else:
        clique_number = CoxeterDiagram.clique_number
        monkeypatch.setattr(CoxeterDiagram, "clique_number",
                            lambda self: clique_number(self) - 1)
    res = acceptance.criterion_9_kappa_qop()
    assert not res.passed and not res.details["qop cauchy within tail bound"]


def test_every_src_function_has_a_caller():
    """Every non-dunder ``def`` in ``src/rahecke`` is named somewhere in
    ``src`` outside its own body, or exported in ``rahecke.__all__``: nothing
    in ``src`` exists only for the tests.  A use ``Cls.name``, or
    ``self.name`` inside class ``Cls``, counts only for ``Cls``'s method; an
    attribute of any other receiver counts for every def of that name, and a
    bare name for every def of that name outside a class body (a method is
    reached only through an attribute)."""
    trees = [ast.parse(path.read_text()) for path in Path(rahecke.__file__).parent.glob("*.py")]
    classes = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    defs = set()  # (owning class or None, name)
    names, attrs, qualified = set(), set(), set()

    def visit(node, owner, cls, inside):
        if isinstance(node, ast.ClassDef):
            owner = cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.add((owner, node.name))
            owner, inside = None, inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            if receiver in classes:
                qualified.add((receiver, node.attr))
            elif receiver == "self" and cls is not None:
                qualified.add((cls, node.attr))
            else:
                attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, cls, inside)

    for tree in trees:
        visit(tree, None, None, frozenset())
    uncalled = [f"{owner}.{name}" if owner else name for owner, name in defs
                if name not in attrs and (owner, name) not in qualified
                and not (owner is None and name in names)
                and not (name.startswith("__") and name.endswith("__"))
                and name not in rahecke.__all__]
    assert sorted(uncalled) == []


def test_criterion_5_counts_a_failed_certificate(monkeypatch):
    """A failed exact certificate turns criterion 5 red instead of escaping
    as an error."""
    monkeypatch.setattr(l2rep, "exact_psd", lambda matrix: False)
    res = acceptance.criterion_5_positivity()
    assert res.passed is False and res.details["exact_certified"] == 0
