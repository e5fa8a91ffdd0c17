"""Self-tests of the benchmark: each oracle accepts the program's real output
on a tiny instance and rejects a corrupted copy of it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rahecke import cli, enumeration, growth  # noqa: E402


def _run_cli(tmp_path, d, argv):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(d.to_json()))
    out = tmp_path / "out.json"
    assert cli.main(argv[:1] + ["--diagram", str(path)] + argv[1:] + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_sphere_sizes_known_values():
    assert oracles.sphere_sizes(inputs.free(3), 3) == [1, 3, 6, 12]
    assert oracles.sphere_sizes(inputs.diagram_a(), 3) == [1, 3, 5, 8]
    assert oracles.sphere_sizes(inputs.pentagon(), 2) == [1, 5, 15]


@pytest.mark.parametrize("d, q", [
    (inputs.free(3), ["1/2"] * 3),          # boundary flips, NotSimple
    (inputs.diagram_a(), ["1/4", "3/2", "2"]),
    (inputs.pentagon(), ["1"] * 5),         # Simple
])
def test_classify_oracle(tmp_path, d, q):
    qmap = {s: Fraction(v) for s, v in zip(d.generators, q)}
    qtext = ",".join(f"{s}={v}" for s, v in zip(d.generators, q))
    doc = _run_cli(tmp_path, d, ["classify", "--q", qtext])
    ok, info = oracles.check_classify(d, qmap, doc)
    assert ok, info

    flipped = copy.deepcopy(doc)
    flipped["status"] = "Simple" if doc["status"] == "NotSimple" else "NotSimple"
    assert not oracles.check_classify(d, qmap, flipped)[0]

    # change one judged (non-boundary) membership
    wrong = copy.deepcopy(doc)
    key = next(k for k, v in wrong["per_flip"].items() if v["membership"] != "Boundary")
    entry = wrong["per_flip"][key]
    entry["membership"] = "Exterior" if entry["membership"] == "Interior" else "Interior"
    assert not oracles.check_classify(d, qmap, wrong)[0]


def test_classify_oracle_skips_boundary_flips(tmp_path):
    d = inputs.free(3)
    doc = _run_cli(tmp_path, d, ["classify", "--q", "all=2"])
    ok, info = oracles.check_classify(d, {s: Fraction(2) for s in d.generators}, doc)
    assert ok and info["skipped"] > 0


def test_ball_oracle():
    d = inputs.pentagon()
    b = enumeration.Ball(workloads.program_diagram(d), 4)
    sizes = b.sphere_sizes()
    assert oracles.check_ball(d, 4, sizes, len(b))[0]
    off = list(sizes)
    off[2] += 1
    assert not oracles.check_ball(d, 4, off, len(b) + 1)[0]
    assert not oracles.check_ball(d, 4, sizes, len(b) + 1)[0]


def test_haagerup_oracle(tmp_path):
    d = inputs.free(3)
    doc = _run_cli(tmp_path, d, ["verify", "--suite", "haagerup", "--qscalar", "0.6",
                                 "--radius", "6", "--max-length", "2", "--trials", "2"])
    assert oracles.check_haagerup(d, 0.6, 2, doc)[0]
    size = oracles.sphere_sizes(d, 2)[2]
    for bad in (oracles.haagerup_ceiling(size, 0.6, 2) * 1.01, float("nan"), 0.0, -1.0):
        wrong = copy.deepcopy(doc)
        wrong["results"][1]["max_ratio"] = bad
        wrong["fitted_C"] = max(r["max_ratio"] for r in wrong["results"])
        assert not oracles.check_haagerup(d, 0.6, 2, wrong)[0]


def test_haagerup_ceiling_is_attained_by_a_single_generator():
    # T_s alone has norm max(sqrt q, 1/sqrt q) and l2 norm 1, so a sphere of
    # size 1 attains the l = 1 ceiling exactly
    assert math.isclose(oracles.haagerup_ceiling(1, 0.25, 1), 2.0)


def test_exact_oracle_on_every_op_kind(tmp_path):
    seen = set()
    for t in inputs.exact_templates(0):
        if t["kind"] in seen:
            continue
        seen.add(t["kind"])
        op = workloads.ExactOp(t, 0, tmp_path)
        residuals, pairs = op.run()
        assert oracles.check_exact(residuals, pairs)[0], t["kind"]
        if residuals:
            bad = list(residuals)
            bad[0] = bad[0] + Fraction(1, 7)
            assert not oracles.check_exact(bad, pairs)[0]
        if pairs:
            bad = [(a, b + Fraction(1, 10 ** 30)) for a, b in pairs]
            assert not oracles.check_exact(residuals, bad)[0]
    assert seen == {k for k, _, _ in inputs.EXACT_CYCLE}


def test_templates_are_seeded():
    for name, make in inputs.TEMPLATES.items():
        first, again, other = make(5), make(5), make(6)
        assert repr(first) == repr(again), name
        assert repr(first) != repr(other), name


def test_tracer_wraps_imported_names_and_restores_them(tmp_path):
    originals = (growth.classify_simplicity, enumeration.ball)
    from rahecke import l2rep
    bound_in_l2rep = l2rep.ball
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert l2rep.ball is not bound_in_l2rep
        d = inputs.free(3)
        tracer.run_op(0, lambda: _run_cli(tmp_path, d, ["classify", "--q", "all=1/2"]))
        cold = workloads.program_diagram(d.relabeled(["x0", "y0", "z0"]))
        l2rep.ball(cold, 3)
        l2rep.ball(cold, 3)
    finally:
        tracer.uninstall()
    assert (growth.classify_simplicity, enumeration.ball) == originals
    assert l2rep.ball is bound_in_l2rep
    metrics, info = tracer.metrics()
    assert metrics["growth.classify_simplicity.calls"] == 1
    assert metrics["growth.classify_simplicity.flips"] == 8
    assert metrics["polys.evaluate.calls"] > 0
    assert metrics["enumeration.ball.calls"] == 2
    assert metrics["enumeration.ball.hit_ratio"] == 0.5
    assert metrics["self_share.growth"] + metrics["self_share.polys"] > 0.5
    assert info["absent"] == []
    assert set(metrics) <= {name for name, _, _ in tracing.metric_names()}


def test_correction_scales_by_the_probes_around_each_op():
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import run
    import speed

    stream = run.Stream(None, [None], None, probe="python")
    stream.latencies = [1.0, 1.0, 1.0]
    # a host at half the reference speed, one probe hit by an interrupt
    r = 2 * speed.REF_S["python"]
    stream.probes = [r, r, 10 * r, r]
    assert stream.corrected() == [0.5, 0.5, 0.5]
    assert set(run.PROBE_KIND.values()) <= set(speed.KINDS)
    for kind in speed.KINDS:
        assert speed.probe(kind) > 0
    assert "rahecke" not in speed.__dict__


ROOT = Path(__file__).resolve().parent.parent


def _result(cwd, *args):
    got = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=170)
    return got.returncode, got.stdout


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_the_declared_metrics(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code, out = _result(ROOT, "--workload", "exact", "--seed", "3", "--seconds", "0.5",
                        "--trace", trace)
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_per_layer_spec_matches_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.metric_names()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = _result(tmp_path, "--workload", "exact", "--seed", "1", "--seconds", "1",
                        "--trace", "0")
    assert code != 0 and out == ""
