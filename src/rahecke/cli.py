"""Command-line interface.

All subcommands read the diagram from a JSON file and print a single JSON
document (keys sorted, rationals as "p/q" strings) so that identical inputs
produce byte-identical output.  Exit codes: 0 success, 1 validation error,
2 internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import acceptance, growth, l2rep, radial
from .coxeter import CoxeterDiagram, DiagramError, parse_diagram
from .enumeration import BallCapExceeded, ball
from .hecke import (MultiParameter, central_projection_partial, char_value,
                    parse_element_literal, parse_float, parse_rational)


def _encode(obj):
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return str(obj.numerator)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(_encode(doc), sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_diagram(path: str) -> CoxeterDiagram:
    with open(path) as fh:
        return parse_diagram(fh.read())


def _assignments(diagram: CoxeterDiagram, text: str, what: str, value) -> dict:
    """Parse 'a=v,b=w' or the broadcast form 'all=v' into {generator:
    value(v)}; ``what`` names an assignment in the error messages.  A key
    may be given once; values given after 'all' override it."""
    out = {}
    seen = set()
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise DiagramError(f"bad {what} assignment {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key in seen:
            raise DiagramError(f"{what} {key!r} given twice")
        seen.add(key)
        v = value(val)
        if key == "all":
            out.update(dict.fromkeys(diagram.generators, v))
        elif key in diagram.generators:
            out[key] = v
        else:
            raise DiagramError(f"{what} for unknown generator {key!r}")
    return out


def _parse_q(diagram: CoxeterDiagram, text: str, value=parse_rational) -> dict:
    """Parse 'a=1/4,b=1' or 'all=1/4', each value through ``value``."""
    out = _assignments(diagram, text, "parameter", value)
    missing = [s for s in diagram.generators if s not in out]
    if missing:
        raise DiagramError(f"missing parameters for generators {missing}")
    return out


def _sign_value(text: str) -> int:
    value = {"+1": 1, "1": 1, "+": 1, "-1": -1, "-": -1}.get(text.strip())
    if value is None:
        raise DiagramError(f"bad sign value {text.strip()!r}")
    return value


def _parse_epsilon(diagram: CoxeterDiagram, text: str) -> tuple[int, ...]:
    signs = _assignments(diagram, text, "sign", _sign_value)
    return tuple(signs.get(s, 1) for s in diagram.generators)


def _params(diagram: CoxeterDiagram, text: str, mode: str) -> MultiParameter:
    """The parameters of ``--q`` text; in float mode each value is parsed
    by ``parse_float``."""
    if mode == "float":
        return MultiParameter.floating(diagram, _parse_q(diagram, text, parse_float))
    return MultiParameter.exact_squares(diagram, _parse_q(diagram, text))


def _pattern_doc(diagram: CoxeterDiagram, eps) -> dict:
    return {s: e for s, e in zip(diagram.generators, eps)}


def cmd_nf(args) -> dict:
    d = _load_diagram(args.diagram)
    word = d.parse_element(args.word)
    return {"word": args.word, "normal_form": d.format_element(word),
            "length": len(word)}


def cmd_ball(args) -> dict:
    d = _load_diagram(args.diagram)
    b = ball(d, args.radius)
    doc = {"radius": args.radius, "sphere_sizes": b.sphere_sizes(),
           "total": len(b)}
    if args.elements:
        doc["elements"] = [d.format_element(w) for w in b.words]
    return doc


def cmd_growth(args) -> dict:
    d = _load_diagram(args.diagram)
    qmap = _parse_q(d, args.q)
    report = growth.pole_and_rho(d, qmap)
    return {
        "q": {s: qmap[s] for s in d.generators},
        "reciprocal_value": report.reciprocal_value,
        "cleared_polynomial": list(report.cleared_polynomial),
        "t0": report.t0,
        "rho": report.rho,
        "rho_float": report.rho_float(),
        "membership": report.membership,
    }


def cmd_classify(args) -> dict:
    d = _load_diagram(args.diagram)
    qmap = _parse_q(d, args.q)
    verdict = growth.classify_simplicity(d, qmap)
    doc = {
        "status": verdict.status,
        "witnesses": [_pattern_doc(d, e) for e in verdict.witnesses],
        "boundary_flags": [_pattern_doc(d, e) for e in verdict.boundary_flags],
    }
    if verdict.reason:
        doc["reason"] = verdict.reason
    per_flip = {}
    for eps, info in sorted(verdict.per_flip.items()):
        key = ",".join(f"{s}={'+' if e == 1 else '-'}"
                       for s, e in zip(d.generators, eps))
        per_flip[key] = {
            "membership": info["membership"],
            "t0_interval": info["t0"],
            "rho_interval": info["rho"],
        }
    doc["per_flip"] = per_flip
    return doc


def cmd_mul(args) -> dict:
    d = _load_diagram(args.diagram)
    params = _params(d, args.q, args.mode)
    a = parse_element_literal(params, args.left)
    b = parse_element_literal(params, args.right)
    return {"product": [{"word": d.format_element(w), "coeff": c}
                        for w, c in (a * b).terms()]}


def cmd_char(args) -> dict:
    d = _load_diagram(args.diagram)
    params = _params(d, args.q, args.mode)
    eps = _parse_epsilon(d, args.epsilon)
    x = parse_element_literal(params, args.element)
    return {
        "epsilon": _pattern_doc(d, eps),
        "value": char_value(params, eps, x),
        "generator_values": {s: params.char_gen(s, e)
                             for s, e in zip(d.generators, eps)},
    }


def cmd_eproj(args) -> dict:
    d = _load_diagram(args.diagram)
    params = _params(d, args.q, "exact")
    eps = _parse_epsilon(d, args.epsilon)
    e = central_projection_partial(params, eps, args.cutoff)
    coeffs = [{"word": d.format_element(w), "coeff": c} for w, c in e.terms()]
    doc = {"epsilon": _pattern_doc(d, eps), "cutoff": args.cutoff,
           "trace": e.trace(), "coefficients": coeffs}
    if args.residuals:
        doc["idempotent_residual_sq"] = (e * e - e).norm2_sq()
        doc["eigen_residual_sq"] = radial.eigen_residuals_sq(
            params, eps, d.generators[0], args.cutoff)[-1]
    return doc


def cmd_verify(args) -> dict:
    if args.mode is not None and args.suite != "positivity":
        raise ValueError("--mode applies only to --suite positivity")
    d = _load_diagram(args.diagram)
    q = args.q or "all=1/4"
    _parse_q(d, q)  # a malformed --q is refused whichever suite runs
    n = args.radius
    doc: dict = {"suite": args.suite, "radius": n}
    if args.suite == "action":
        cases, bad = l2rep.verify_action_sweep(d, ball(d, n), args.max_length)
        doc["pairs"] = sum(cases.values())
        doc["violations"] = bad
    elif args.suite == "cliq":
        params = _params(d, q, "exact")
        doc["words"], doc["worst_residual"] = l2rep.verify_cliq_sweep(params, ball(d, n))
    elif args.suite == "corollary":
        params = _params(d, q, "exact")
        g = d.covering_closed_path()
        if g is None:
            raise DiagramError("no covering closed path (reducible or rank < 2)")
        b = ball(d, n)
        res, terms = l2rep.verify_corollary_split(params, g, args.power, b)
        doc["path"] = d.format_element(g)
        doc["power"] = args.power
        doc["residual"] = res
        doc["x_terms"] = terms
    elif args.suite == "positivity":
        params = _params(d, q, args.mode or "exact")
        word = d.parse_element(args.word) if args.word is not None else (d.generators[0],)
        lo, hi = l2rep.positivity_window(params, word, n)
        doc["word"] = d.format_element(word)
        doc["window"] = [lo, hi]
    elif args.suite == "haagerup":
        if args.max_length < 1:
            raise ValueError("--max-length must be >= 1")
        try:
            q = float(parse_rational(args.qscalar))
        except OverflowError:  # past the largest float
            raise ValueError("q must be positive and finite") from None
        out = [{"l": r["l"], "max_ratio": r["max_ratio"]}
               for r in l2rep.haagerup_ratio(d, q, args.max_length, n,
                                             args.trials, seed=args.seed)]
        doc["results"] = out
        doc["fitted_C"] = max(r["max_ratio"] for r in out)
    elif args.suite == "qop":
        b = ball(d, n)
        u = d.parse_element(args.word) if args.word else ()
        diag, tail, omega = l2rep.q_operator(d, u, parse_rational(args.qscalar), b, args.cutoff)
        doc["u"] = d.format_element(u)
        doc["cutoff"] = args.cutoff
        doc["tail_bound"] = float(tail)
        doc["clique_number"] = omega
        doc["max_entry"] = max(diag)
    else:
        raise DiagramError(f"unknown suite {args.suite!r}")
    return doc


def cmd_report(args) -> tuple[dict, int]:
    select = None
    if args.only is not None:
        select = set(args.only.split(","))
        unknown = sorted(select - {key for key, _ in acceptance.CRITERIA})
        if unknown:
            raise ValueError(f"unknown criterion ids {unknown}")
    results = acceptance.run_all(select=select, verbose=not args.quiet)
    # timing is printed in the progress lines but kept out of the JSON so
    # that identical runs stay byte-identical
    doc = {
        "criteria": [
            {"name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return doc, (0 if doc["all_passed"] else 1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``set_defaults(fn=...)`` binds the
    handlers when it is built."""
    parser = argparse.ArgumentParser(
        prog="rahecke",
        description="Simplicity of right-angled multi-parameter Hecke "
                    "C*-algebras: exact classifier and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--diagram", required=True, help="diagram JSON file")
        p.add_argument("--q", required=True,
                       help="parameters, e.g. 'a=1/4,b=1' or 'all=1/4'")
        p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("nf", help="canonical word of an element")
    p.add_argument("--diagram", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("ball", help="sphere sizes of a ball")
    p.add_argument("--diagram", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--elements", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ball)

    p = sub.add_parser("growth", help="growth series data along the ray")
    add_common(p)
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("classify", help="simplicity verdict")
    add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("mul", help="product of two Hecke elements")
    add_common(p)
    p.add_argument("--left", required=True, help="e.g. '1*T(e) - 3/2*T(a)'")
    p.add_argument("--right", required=True)
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.set_defaults(fn=cmd_mul)

    p = sub.add_parser("char", help="character value")
    add_common(p)
    p.add_argument("--epsilon", required=True, help="e.g. 'a=+1,b=-1' or 'all=-1'")
    p.add_argument("--element", required=True)
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.set_defaults(fn=cmd_char)

    p = sub.add_parser("eproj", help="central projection partial sum")
    add_common(p)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--residuals", action="store_true")
    p.set_defaults(fn=cmd_eproj)

    p = sub.add_parser("verify", help="operator identity suites")
    p.add_argument("--suite", required=True,
                   choices=["action", "cliq", "corollary", "positivity",
                            "haagerup", "qop"])
    p.add_argument("--diagram", required=True)
    p.add_argument("--q", default=None)
    p.add_argument("--radius", type=int, default=6)
    p.add_argument("--max-length", type=int, default=4, dest="max_length")
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--word", default=None)
    p.add_argument("--qscalar", default="1/2")
    p.add_argument("--cutoff", type=int, default=5)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["exact", "float"], default=None,
                   help="positivity only (default exact)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="run the bundled acceptance suite")
    p.add_argument("--only", default=None, help="comma-separated criterion ids")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        result = args.fn(args)
        if isinstance(result, tuple):
            doc, code = result
        else:
            doc, code = result, 0
        _emit(doc, getattr(args, "out", None))
        return code
    except (DiagramError, BallCapExceeded, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        sys.stderr.write(f"internal error: {exc!r}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
