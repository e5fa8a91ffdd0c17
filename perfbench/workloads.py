"""The four workloads: how one op is prepared, run and checked.

An op is built from a template (see ``inputs``) and a label index, which
gives its generators fresh names.  ``Op.run`` is the only timed part; it
calls public functions of rahecke, always through module attributes so that
the traced run's wrappers see every call.  ``Op.check`` applies the
workload's oracle and returns the text that enters the run's output digest.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import inputs
import oracles
from rahecke import cli, coxeter, enumeration, hecke, l2rep, radial


class Op:
    """One timed call; ``run`` returns the output ``check`` judges."""

    kind = "op"
    rank = 0
    elements = 0
    lengths: tuple = ()

    def run(self):
        raise NotImplementedError

    def check(self, out) -> tuple[bool, dict, str]:
        raise NotImplementedError


def _write_diagram(workdir: Path, d: oracles.Diagram, tag: str) -> str:
    path = workdir / f"diagram-{tag}.json"
    path.write_text(json.dumps(d.to_json()))
    return str(path)


def program_diagram(d: oracles.Diagram) -> coxeter.CoxeterDiagram:
    return coxeter.CoxeterDiagram(d.generators, [tuple(sorted(p)) for p in d.commuting])


def _q_text(d: oracles.Diagram, q) -> str:
    return ",".join(f"{s}={v}" for s, v in zip(d.generators, q))


class ClassifyOp(Op):
    """``rahecke classify`` in process, report written with ``--out``."""

    kind = "classify"

    def __init__(self, template: dict, label: int, workdir: Path):
        self.d = template["diagram"].relabeled(inputs.fresh_labels(template["diagram"].rank, label))
        self.q = dict(zip(self.d.generators, template["q"]))
        self.rank = self.d.rank
        self.out_path = workdir / "classify-out.json"
        path = _write_diagram(workdir, self.d, "classify")
        self.argv = ["classify", "--diagram", path, "--q", _q_text(self.d, template["q"]),
                     "--out", str(self.out_path)]

    def run(self):
        code = cli.main(self.argv)
        return code, self.out_path.read_text() if code == 0 else ""

    def check(self, out):
        code, text = out
        if code != 0:
            return False, {"reason": f"exit code {code}"}, ""
        ok, info = oracles.check_classify(self.d, self.q, json.loads(text))
        return ok, info, text


class HaagerupOp(Op):
    """``rahecke verify --suite haagerup`` in process on a freshly labelled
    diagram, so every call starts with cold ball and action caches."""

    kind = "haagerup"

    def __init__(self, template: dict, label: int, workdir: Path):
        self.d = template["diagram"].relabeled(inputs.fresh_labels(template["diagram"].rank, label))
        self.rank = self.d.rank
        self.radius = template["radius"]
        self.elements = sum(oracles.sphere_sizes(self.d, self.radius))
        self.q = float(Fraction(template["qscalar"]))
        self.lengths = tuple(range(1, inputs.HAAGERUP_MAX_LENGTH + 1))
        self.out_path = workdir / "haagerup-out.json"
        path = _write_diagram(workdir, self.d, "haagerup")
        self.argv = ["verify", "--suite", "haagerup", "--diagram", path,
                     "--qscalar", template["qscalar"], "--radius", str(self.radius),
                     "--max-length", str(inputs.HAAGERUP_MAX_LENGTH),
                     "--trials", str(inputs.HAAGERUP_TRIALS), "--out", str(self.out_path)]

    def run(self):
        code = cli.main(self.argv)
        return code, self.out_path.read_text() if code == 0 else ""

    def check(self, out):
        code, text = out
        if code != 0:
            return False, {"reason": f"exit code {code}"}, ""
        ok, info = oracles.check_haagerup(self.d, self.q, inputs.HAAGERUP_MAX_LENGTH,
                                          json.loads(text))
        return ok, info, text


class BallOp(Op):
    """A cold ``enumeration.Ball`` build (no memo) on a freshly labelled
    diagram; the ball is dropped after the check."""

    kind = "ball"

    def __init__(self, template: dict, label: int, workdir: Path):
        self.od = template["diagram"].relabeled(
            inputs.fresh_labels(template["diagram"].rank, label))
        self.d = program_diagram(self.od)
        self.rank = self.od.rank
        self.radius = template["radius"]

    def run(self):
        b = enumeration.Ball(self.d, self.radius)
        return b.sphere_sizes(), len(b)

    def check(self, out):
        sizes, total = out
        self.elements = total
        ok, info = oracles.check_ball(self.od, self.radius, sizes, total)
        return ok, info, json.dumps([self.radius, sizes])


class ExactOp(Op):
    """One exact identity check; the output is its list of residuals and of
    (generic, radial) pairs, all of which must vanish or agree exactly."""

    def __init__(self, template: dict, label: int, workdir: Path):
        od = template["diagram"]
        self.kind = "exact." + template["kind"]
        self.t = template
        self.rank = od.rank
        self.d = program_diagram(od)
        self.qmap = dict(zip(od.generators, template["q"]))

    def _element(self, params, terms):
        out = hecke.HeckeElement.zero(params)
        for coeff, word in terms:
            out = out + coeff * hecke.HeckeElement.basis(params, word)
        return out

    def run(self):
        t, d = self.t, self.d
        kind = t["kind"]
        params = hecke.MultiParameter.exact_squares(d, self.qmap)
        if kind == "assoc":
            x, y, z = (self._element(params, e) for e in t["elements"])
            self.lengths = (5,)
            return [((x * y) * z - x * (y * z)).norm2_sq()], []
        if kind == "trace":
            x, y = (self._element(params, e) for e in t["elements"])
            self.lengths = (5,)
            return [(x * y).trace() - (y * x).trace()], []
        b6 = enumeration.ball(d, 6)
        self.elements = len(b6)
        if kind == "remark22":
            self.lengths = (len(t["w"]),)
            return list(l2rep.verify_remark22(params, t["s"], t["w"], b6)), []
        if kind == "cliq":
            w = d.normal_form(t["w"])
            self.lengths = (len(w),)
            return [l2rep.verify_cliq_identity(params, w, b6)], []
        if kind == "corollary":
            g = d.covering_closed_path()
            self.lengths = (len(g),)
            residual, _terms = l2rep.verify_corollary_split(params, g, 1, b6)
            return [residual], []
        if kind == "series":
            aut = enumeration.NormalFormAutomaton(d)
            weights = [self.qmap[s] for s in d.generators]
            transfer = aut.sphere_series(weights, 6)
            generic = [enumeration.sphere_weight(d, self.qmap, l, b6) for l in range(7)]
            self.lengths = (6,)
            return [], list(zip(generic, transfer))
        if kind == "eproj":
            value = t["q"][0]
            sign = 1 if value < 1 else -1
            cutoff = t["cutoff"]
            self.lengths = (cutoff,)
            e = hecke.central_projection_partial(params, (sign,) * d.rank, cutoff)
            generic = (e * e - e).norm2_sq()
            root = hecke.rational_sqrt(value)
            model = radial.RadialModel(d.rank, root)
            return [], [(generic, model.idempotent_residual_sq(sign, cutoff))]
        raise ValueError(f"unknown exact op {kind!r}")

    def check(self, out):
        residuals, pairs = out
        ok, info = oracles.check_exact(residuals, pairs)
        text = json.dumps([[str(r) for r in residuals], [[str(a), str(b)] for a, b in pairs]])
        return ok, info, text


def _classify_warmup(templates):
    # the free3 q = 1/2 template: the same at every seed
    return next(t for t in templates if t["diagram"].rank == 3 and not t["diagram"].commuting)


def _haagerup_warmup(templates):
    return templates[0]                              # the pentagon


def _balls_warmup(templates):
    return {"diagram": inputs.pentagon(), "radius": 8}


def _exact_warmup(templates):
    return next(t for t in templates if t["kind"] == "assoc" and t["key"] == "F")


#: workload name -> (op class, warm-up template picker)
WORKLOADS = {
    "classify": (ClassifyOp, _classify_warmup),
    "haagerup": (HaagerupOp, _haagerup_warmup),
    "exact": (ExactOp, _exact_warmup),
    "balls": (BallOp, _balls_warmup),
}
