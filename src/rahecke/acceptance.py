"""The bundled acceptance suite: one callable per criterion, each returning a
result record with pass/fail and the measured quantities.

Standard configurations used throughout:

* infinite dihedral  -- two generators, no commuting pair;
* free product of three involutions;
* "diagram A"        -- generators a, b, c with only a, b commuting;
* pentagon           -- five generators whose commuting graph is the 5-cycle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import enumeration, growth, l2rep, radial
from .coxeter import CoxeterDiagram
from .enumeration import NormalFormAutomaton, ball, connected_diagram_corpus
from .hecke import HeckeElement, MultiParameter, central_projection_partial, rational_sqrt


def diagram_dinfty() -> CoxeterDiagram:
    return CoxeterDiagram(["a", "b"])


def diagram_free3() -> CoxeterDiagram:
    return CoxeterDiagram(["a", "b", "c"])


def diagram_a() -> CoxeterDiagram:
    return CoxeterDiagram(["a", "b", "c"], [["a", "b"]])


def diagram_pentagon() -> CoxeterDiagram:
    return CoxeterDiagram(list("abcde"),
                          [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]])


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.seconds:.1f}s)"


def _const(d: CoxeterDiagram, v: Fraction) -> dict[str, Fraction]:
    return {s: Fraction(v) for s in d.generators}


# -- criterion 1: classifier exactness ----------------------------------------


def criterion_1_classifier() -> CriterionResult:
    checks: dict[str, bool] = {}
    dd = diagram_dinfty()
    f3 = diagram_free3()
    pent = diagram_pentagon()
    da = diagram_a()

    # infinite dihedral: never simple; q = 1 is the configuration where every
    # witness sits exactly on the boundary (at q != 1 the constant flip is a
    # strict-interior witness and only the mixed flips are boundary).
    for qv in (Fraction(1, 4), Fraction(1), Fraction(4)):
        v = growth.classify_simplicity(dd, _const(dd, qv))
        checks[f"dinfty q={qv} notsimple"] = v.status == "NotSimple"
        all_boundary = set(v.witnesses) == set(v.boundary_flags) and v.witnesses
        has_strict = any(w not in v.boundary_flags for w in v.witnesses)
        if qv == 1:
            checks["dinfty q=1 purely boundary"] = bool(all_boundary)
        else:
            checks[f"dinfty q={qv} strict witness"] = has_strict

    for qv, expect in [(Fraction(3, 5), "Simple"), (Fraction(1), "Simple"),
                       (Fraction(19, 10), "Simple"), (Fraction(2, 5), "NotSimple"),
                       (Fraction(1, 2), "NotSimple"), (Fraction(2), "NotSimple"),
                       (Fraction(3), "NotSimple")]:
        v = growth.classify_simplicity(f3, _const(f3, qv))
        checks[f"free3 q={qv} {expect}"] = v.status == expect
        if qv in (Fraction(1, 2), Fraction(2)):
            checks[f"free3 q={qv} boundary flagged"] = len(v.boundary_flags) > 0

    # pentagon at q = 1: simple, t0 isolating interval contains (3-sqrt5)/2
    vp = growth.classify_simplicity(pent, _const(pent, Fraction(1)))
    rep = growth.pole_and_rho(pent, _const(pent, Fraction(1)))
    lo, hi = rep.t0
    # lo <= (3-sqrt5)/2 <= hi  <=>  (3-2lo)^2 >= 5 >= (3-2hi)^2 (both sides < 3/2)
    contains = (3 - 2 * lo) ** 2 >= 5 >= (3 - 2 * hi) ** 2
    checks["pentagon simple"] = vp.status == "Simple"
    checks["pentagon t0 contains (3-sqrt5)/2"] = bool(contains)
    checks["pentagon t0 width <= 2^-32"] = (hi - lo) <= Fraction(1, 2 ** 32)

    va = growth.classify_simplicity(da, _const(da, Fraction(1)))
    repa = growth.pole_and_rho(da, _const(da, Fraction(1)))
    lo, hi = repa.t0
    contains_a = (2 * lo + 1) ** 2 <= 5 and 5 <= (2 * hi + 1) ** 2
    checks["diagram A simple"] = va.status == "Simple"
    checks["diagram A t0 contains (sqrt5-1)/2"] = bool(contains_a)

    # Fekete confirmation: l-th roots of sphere weights upper-bound rho and
    # approach it; check at the decisive flips of a few verdicts.
    aut_f3 = NormalFormAutomaton(f3)
    for qv in (Fraction(2, 5), Fraction(1)):
        qmap = _const(f3, qv)
        rho = growth.pole_and_rho(f3, qmap).rho_float()
        sums = aut_f3.sphere_series([qmap[s] for s in f3.generators], 20)
        root = float(sums[20]) ** (1.0 / 20)
        checks[f"free3 q={qv} fekete upper"] = root >= rho - 1e-12
        checks[f"free3 q={qv} fekete close"] = root <= rho * 1.2 + 1e-12
    return CriterionResult("criterion 1: classifier exactness",
                           all(checks.values()), {"checks": checks})


# -- criterion 2: growth-formula oracle gate -----------------------------------


def criterion_2_growth_oracle() -> CriterionResult:
    lmax, bfs_budget = 12, 250_000
    corpus = connected_diagram_corpus(5)
    ones_failures = []
    bfs_failures = []
    for d in corpus:
        q1 = _const(d, Fraction(1))
        series = growth.series_coefficients(d, q1, lmax + 1)
        aut = NormalFormAutomaton(d)
        counts = aut.sphere_counts(lmax)
        if [int(c) for c in series] != counts:
            ones_failures.append(d.key())
        # direct BFS cross-check as far as the budget allows
        radius = 0
        size = 1
        while radius < lmax:
            nxt = counts[radius + 1]
            if size + nxt > bfs_budget:
                break
            size += nxt
            radius += 1
        b = enumeration.Ball(d, radius)
        if b.sphere_sizes() != counts[: radius + 1]:
            bfs_failures.append(d.key())
    da = diagram_a()
    first = [int(c) for c in growth.series_coefficients(da, _const(da, Fraction(1)), 4)]
    ok = (not ones_failures and not bfs_failures and first == [1, 3, 5, 8])
    return CriterionResult(
        "criterion 2: growth-formula oracle gate",
        ok,
        {"corpus": len(corpus), "series_vs_automaton_failures": ones_failures,
         "bfs_failures": bfs_failures, "diagram_a_counts": first},
    )


# -- criterion 3: Hecke algebra identities --------------------------------------


def _random_element(params: MultiParameter, b, rng) -> HeckeElement:
    """A sum of three basis elements of the ball ``b``."""
    out = HeckeElement.zero(params)
    for _ in range(3):
        v = int(rng.integers(0, len(b)))
        num = int(rng.integers(-6, 7))
        den = int(rng.integers(1, 5))
        if num == 0:
            num = 1
        out = out + Fraction(num, den) * HeckeElement.basis(params, b.words[v])
    return out


def criterion_3_hecke_identities() -> CriterionResult:
    d = diagram_a()
    b5 = ball(d, 5)
    rng = np.random.default_rng(0)
    qmaps = [
        {s: Fraction(1, 4) for s in d.generators},
        {"a": Fraction(1, 4), "b": Fraction(1, 9), "c": Fraction(1)},
    ]
    quad_ok = True
    assoc_ok = True
    trace_ok = True
    for qmap in qmaps:
        params = MultiParameter.exact_squares(d, qmap)
        for s in d.generators:
            # p_s is checked against the criterion's own q_s, not read on trust
            quad_ok &= params.p(s) * rational_sqrt(qmap[s]) == qmap[s] - 1
            ts = HeckeElement.basis(params, (s,))
            expect = HeckeElement.one(params) + params.p(s) * ts
            quad_ok &= (ts * ts == expect)
        for _ in range(100):
            x = _random_element(params, b5, rng)
            y = _random_element(params, b5, rng)
            z = _random_element(params, b5, rng)
            assoc_ok &= ((x * y) * z == x * (y * z))
            trace_ok &= ((x * y).trace() == (y * x).trace())
    # q == 1 degeneration: basis products are basis elements, exhaustively
    one = MultiParameter.one(d)
    b4 = ball(d, 4)
    degen_ok = True
    for v in range(len(b4)):
        for w in range(len(b4)):
            prod = HeckeElement.basis(one, b4.words[v]) * HeckeElement.basis(one, b4.words[w])
            target = d.multiply(b4.words[v], b4.words[w])
            degen_ok &= (prod == HeckeElement.basis(one, target))
    ok = quad_ok and assoc_ok and trace_ok and degen_ok
    return CriterionResult(
        "criterion 3: Hecke algebra identities",
        ok,
        {"quadratic": quad_ok, "associativity": assoc_ok,
         "trace_commutation": trace_ok, "group_algebra_degeneration": degen_ok},
    )


# -- criterion 4: operator identity suite ---------------------------------------


def criterion_4_operator_identities() -> CriterionResult:
    da = diagram_a()
    pent = diagram_pentagon()
    details: dict = {}
    ok = True

    # conjugation rule, all three cases, |w| <= 5, both diagrams
    for d, nball in ((da, 8), (pent, 7)):
        cases, bad = l2rep.verify_action_sweep(d, ball(d, nball), 5)
        details[f"action cases rank{d.rank}"] = cases
        details[f"action residual violations rank{d.rank}"] = bad
        ok &= (bad == 0) and all(cases[c] > 0 for c in cases)

    # the walked conjugation path must agree on a subsample
    b6 = ball(da, 6)
    for s, w in [("a", "c"), ("a", "ab"), ("a", "b"), ("c", "ab"), ("b", "cac")]:
        case, res = l2rep.verify_action_case(da, s, w, b6)
        ok &= (res == 0)

    # Remark-style identities at deformed parameters
    params = MultiParameter.exact_squares(da, {s: Fraction(1, 4) for s in da.generators})
    r1, r2 = l2rep.verify_remark22(params, "a", "c", b6)
    mixed = MultiParameter.exact_squares(
        da, {"a": Fraction(1, 4), "b": Fraction(1, 9), "c": Fraction(1)})
    r3, r4 = l2rep.verify_remark22(mixed, "a", "cb", b6)
    details["remark22 residuals"] = [str(r) for r in (r1, r2, r3, r4)]
    ok &= (r1 == 0 and r2 == 0 and r3 == 0 and r4 == 0)

    # clique decomposition for every |w| <= 6 on diagram A
    _, worst = l2rep.verify_cliq_sweep(params, ball(da, 8))
    details["cliq worst residual"] = str(worst)
    ok &= (worst == 0)

    # closed-path split for g = acbc, powers 1 and 2
    g = ("a", "c", "b", "c")
    res1, terms1 = l2rep.verify_corollary_split(params, g, 1, ball(da, 6))
    res2, terms2 = l2rep.verify_corollary_split(params, g, 2, ball(da, 10))
    details["corollary residuals"] = [str(res1), str(res2)]
    details["corollary terms"] = [terms1, terms2]
    ok &= (res1 == 0 and res2 == 0 and terms1 == 4 and terms2 == 8)

    # P_v P_w = P_{v join w} exhaustively on the radius-5 ball of diagram A.
    # The projections are diagonal, so the product is the meet of the masks;
    # a missing join, or one outside the ball, projects to zero on the ball.
    b5 = ball(da, 5)
    masks = [b5.letter_mask(b5.letters(v)) for v in range(len(b5))]
    empty = np.zeros(len(b5), dtype=bool)
    join_bad = 0
    for v, wv in enumerate(b5.words):
        for w, ww in enumerate(b5.words):
            j = da.join(wv, ww)
            rhs = empty if j is None else b5.prefix_mask(j)
            join_bad += not np.array_equal(masks[v] & masks[w], rhs)
    details["join product violations"] = join_bad
    ok &= (join_bad == 0)

    return CriterionResult("criterion 4: operator identity suite", ok, details)


# -- criterion 5: positivity windows ---------------------------------------------


def criterion_5_positivity() -> CriterionResult:
    d = diagram_a()
    rng = np.random.default_rng(0)
    pairs = 50
    qchoices = [Fraction(1, 4), Fraction(1, 9), Fraction(1)]
    violations = 0
    endpoint_ok = True
    exact_certified = 0
    b = ball(d, 10)
    for _ in range(pairs):
        length = int(rng.integers(1, 5))
        qmap = {s: qchoices[int(rng.integers(0, len(qchoices)))] for s in d.generators}
        params = MultiParameter.exact_squares(d, qmap)
        # draw a reduced word of the requested length
        sphere = b.sphere(length)
        w = b.words[sphere[int(rng.integers(0, len(sphere)))]]
        try:
            lo, hi = l2rep.positivity_window(params, w, 2 * len(w) + 2)
        except AssertionError:
            violations += 1
            continue
        qs = float(params.q[w[0]])
        if len(w) == 1 and max(abs(lo - min(qs, 1 / qs)), abs(hi - max(qs, 1 / qs))) > 1e-9:
            endpoint_ok = False
    # exact certification (zero tolerance), block by block: three small
    # instances and the 3,070-element free3 ball of radius 10
    certified = [(d, "a", Fraction(1, 4), 4), (d, "ac", Fraction(1, 4), 6),
                 (d, "bc", Fraction(1, 9), 6), (diagram_free3(), "ababa", Fraction(1, 4), 10)]
    for dd, w, qv, n in certified:
        params = MultiParameter.exact_squares(dd, _const(dd, qv))
        try:
            l2rep.positivity_window(params, w, n, certify_exact=True)
        except AssertionError:
            continue
        exact_certified += 1
    ok = violations == 0 and endpoint_ok and exact_certified == len(certified)
    return CriterionResult(
        "criterion 5: positivity windows",
        ok,
        {"pairs": pairs, "violations": violations, "endpoints_attained": endpoint_ok,
         "exact_certified": exact_certified},
    )


# -- criterion 6: central projections ---------------------------------------------


def criterion_6_central_projections() -> CriterionResult:
    d = diagram_free3()
    params = MultiParameter.exact_squares(d, _const(d, Fraction(1, 4)))
    model = radial.RadialModel(3, Fraction(1, 2))
    details: dict = {}
    ok = True

    # the radial model and the generic eigen residual must reproduce the
    # generic machinery at small cutoffs
    eig = radial.eigen_residuals_sq(params, (1, 1, 1), "a", 60)
    ta = HeckeElement.basis(params, "a")
    agree = True
    for i in (0, 1, 2, 3, 4, 5, 6):
        e_gen = central_projection_partial(params, (1, 1, 1), i)
        beta = model.e_partial(1, i)
        for w, c in e_gen.coeffs.items():
            agree &= (c == beta[sum(map(int.bit_count, w))])
        agree &= (e_gen.trace() == beta[0])
        sq = e_gen * e_gen - e_gen
        agree &= (sq.norm2_sq() == model.idempotent_residual_sq(1, i))
        diff = ta * e_gen - Fraction(1, 2) * e_gen
        agree &= (diff.norm2_sq() == eig[i])
    details["radial matches generic (i<=6)"] = agree
    ok &= agree

    # trace is exactly 2/5 at every cutoff
    w_val = model.growth_value(Fraction(1, 4))
    trace_ok = (1 / w_val == Fraction(2, 5))
    for i in (0, 5, 20, 60):
        trace_ok &= (model.e_partial(1, i)[0] == Fraction(2, 5))
    details["trace == 2/5"] = trace_ok
    ok &= trace_ok

    # residual decay: strictly decreasing for i >= 3, below 1e-6 by i <= 60
    idem = [model.idempotent_residual_sq(1, i) for i in range(0, 61)]
    idem_dec = all(idem[i + 1] < idem[i] for i in range(3, 60))
    eig_dec = all(eig[i + 1] < eig[i] for i in range(3, 60))
    thr = Fraction(1, 10 ** 12)  # squared norms against (1e-6)^2
    idem_hit = next((i for i, v in enumerate(idem) if v < thr), None)
    eig_hit = next((i for i, v in enumerate(eig) if v < thr), None)
    details["idempotent strictly decreasing"] = idem_dec
    details["eigen strictly decreasing"] = eig_dec
    details["idempotent < 1e-6 at"] = idem_hit
    details["eigen < 1e-6 at"] = eig_hit
    ok &= idem_dec and eig_dec
    ok &= idem_hit is not None and idem_hit <= 60
    ok &= eig_hit is not None and eig_hit <= 60

    # decay certified against the submultiplicative tail bound:
    # ||E - E^(i)||_2^2 = (1/W^2) sum_{l>i} a_l(q) and the eigen residual is
    # controlled by the two edge spheres i, i+1.
    tail_ok = True
    for i in (10, 20, 40):
        # sum_{l>i} a_l (1/4)^l = (3/2) 2^-i exactly for this free product
        tail_sq = Fraction(3, 2) * Fraction(1, 2 ** i) / w_val ** 2
        bound = 9 * tail_sq  # crude constant: edge effects of E^2-E and T_a E
        tail_ok &= (idem[i] <= bound and eig[i] <= bound)
    details["tail bound certifies decay"] = tail_ok
    ok &= tail_ok

    # the stated (+,+,+) vs (-,-,-) pair at q = 1/4 is rejected: |q_eps| for
    # the all-minus pattern lies outside the convergence region, so the
    # series normalization does not exist.
    try:
        central_projection_partial(params, (-1, -1, -1), 3)
        refused = False
    except ValueError:
        refused = True
    details["all-minus pattern refused at q=1/4"] = refused
    ok &= refused

    # orthogonality decay at a configuration where two patterns are legal:
    # q = (1/100, 1/100, 4), patterns (+,+,+) and (+,+,-).
    params2 = MultiParameter.exact_squares(
        d, {"a": Fraction(1, 100), "b": Fraction(1, 100), "c": Fraction(4)})
    e1 = central_projection_partial(params2, (1, 1, 1), 5)
    e2 = central_projection_partial(params2, (1, 1, -1), 5)
    gen_val = e1.inner(e2)
    rad_val = radial.cross_pattern_inner(params2, (1, 1, 1), (1, 1, -1), 5)
    details["cross inner generic == transfer"] = (gen_val == rad_val)
    ok &= (gen_val == rad_val)
    inner60 = radial.cross_pattern_inner(params2, (1, 1, 1), (1, 1, -1), 60)
    details["|<E+,E->| at i=60"] = float(abs(inner60))
    ok &= abs(inner60) < Fraction(1, 10 ** 4)

    return CriterionResult("criterion 6: central projections", ok, details)


# -- criterion 7: character dichotomy ----------------------------------------------


def criterion_7_characters() -> CriterionResult:
    from .hecke import char_value

    d = diagram_free3()
    rng = np.random.default_rng(0)
    b4 = ball(d, 4)
    details: dict = {}
    ok = True

    mult_ok = True
    params = MultiParameter.exact_squares(d, _const(d, Fraction(1, 4)))
    patterns = growth.all_sign_patterns(3)
    for eps in patterns:
        for _ in range(25):
            x = _random_element(params, b4, rng)
            y = _random_element(params, b4, rng)
            mult_ok &= (char_value(params, eps, x * y)
                        == char_value(params, eps, x) * char_value(params, eps, y))
    details["multiplicativity"] = mult_ok
    ok &= mult_ok

    # unboundedness witness at the simple parameter q = 1: with
    # h_l = sum_{|w|=l} T_w the ratio chi(h_l) / (l ||h_l||_2) equals
    # sqrt(3 * 2^(l-1)) / l, exactly.
    # a_l = chi(h_l) = ||h_l||_2^2 is the sphere size, taken from the automaton.
    counts = NormalFormAutomaton(d).sphere_counts(8)
    ratios_sq = []
    formula_ok = True
    for l in range(2, 9):
        a_l = counts[l]
        formula_ok &= (a_l == 3 * 2 ** (l - 1))
        ratios_sq.append(Fraction(a_l, l * l))  # (chi(h_l) / (l sqrt(a_l)))^2
    # cross-check the closed form against the algebra at one l
    one = MultiParameter.one(d)
    l_probe = 4
    h = HeckeElement.zero(one)
    bp = ball(d, l_probe)
    for v in bp.sphere(l_probe):
        h = h + HeckeElement.basis(one, bp.words[v])
    chi_h = char_value(one, (1, 1, 1), h)
    formula_ok &= (chi_h == 3 * 2 ** (l_probe - 1))
    formula_ok &= (h.norm2_sq() == 3 * 2 ** (l_probe - 1))
    details["exact formula"] = formula_ok
    ok &= formula_ok

    # growth of the ratio: strictly increasing from l = 3 on, with strong net
    # growth across the window.  (The literal step 2 -> 3 decreases:
    # sqrt(6)/2 > sqrt(12)/3 exactly; see the decisions ledger.)
    increasing = all(ratios_sq[i + 1] > ratios_sq[i] for i in range(1, len(ratios_sq) - 1))
    net = ratios_sq[-1] > Fraction(9, 4) * ratios_sq[0]  # f(8) > 1.5 f(2)
    step23_decreases = ratios_sq[1] < ratios_sq[0]
    details["increasing from l=3"] = increasing
    details["net growth f(8) > 1.5 f(2)"] = net
    details["documented dip at l=2->3"] = step23_decreases
    ok &= increasing and net and step23_decreases

    return CriterionResult("criterion 7: character dichotomy", ok, details)


# -- criterion 8: Haagerup suite ------------------------------------------------------


def criterion_8_haagerup() -> CriterionResult:
    pent = diagram_pentagon()
    details: dict = {}
    fitted = {}
    sphere_norms = {}
    for n in (10, 11):
        per_l = {out["l"]: out["max_ratio"]
                 for out in l2rep.haagerup_ratio(pent, 0.7, 6, n, 50, iters=5)}
        fitted[n] = max(per_l.values())
        sphere_norms[n] = {l: per_l[l] * l for l in per_l}
        details[f"max_ratio n={n}"] = {l: round(v, 4) for l, v in per_l.items()}
    # no super-linear trend: the sphere operator norms ||x||/||x||_2 = l*ratio
    # vary by less than a factor 3 across l = 1..6
    vals = list(sphere_norms[10].values())
    spread = max(vals) / min(vals)
    stable = abs(fitted[11] - fitted[10]) <= 0.10 * fitted[10]
    details["sphere norm spread"] = round(spread, 3)
    details["fitted C"] = {n: round(v, 4) for n, v in fitted.items()}
    ok = (spread < 3.0) and stable
    return CriterionResult("criterion 8: Haagerup suite", ok, details)


# -- criterion 9: kappa and the Q-operator ---------------------------------------------


def criterion_9_kappa_qop() -> CriterionResult:
    """The Q-operator partial sums on diagram A at q = 1/2 are entrywise
    nondecreasing in the cutoff and Cauchy within the certified tail, on the
    radius-10 and radius-12 balls.  On the ball of radius n the cutoff n
    takes in every prefix, so the gaps include the exact partial tails."""
    d = diagram_a()
    q = Fraction(1, 2)
    cauchy_ok = monotone_ok = True
    worst = Fraction(0)  # the largest gap over its tail
    for n in (10, 12):
        b = ball(d, n)
        ops = {c: l2rep.q_operator(d, (), q, b, c) for c in range(4, n + 1)}
        for i in range(4, n):
            di, tail, omega = ops[i]
            for j in range(i + 1, n + 1):
                dj = ops[j][0]
                gap = max(abs(y - x) for x, y in zip(di, dj))
                cauchy_ok &= gap <= tail
                monotone_ok &= all(y >= x for x, y in zip(di, dj))
                worst = max(worst, gap / tail if tail else math.inf)
    details = {"clique number": omega,
               "qop largest gap / tail bound": round(float(worst), 3),
               "qop cauchy within tail bound": cauchy_ok,
               "qop entrywise nondecreasing": monotone_ok}
    return CriterionResult("criterion 9: kappa and Q-operator",
                           cauchy_ok and monotone_ok, details)


CRITERIA: list[tuple[str, Callable[[], CriterionResult]]] = [
    ("1", criterion_1_classifier),
    ("2", criterion_2_growth_oracle),
    ("3", criterion_3_hecke_identities),
    ("4", criterion_4_operator_identities),
    ("5", criterion_5_positivity),
    ("6", criterion_6_central_projections),
    ("7", criterion_7_characters),
    ("8", criterion_8_haagerup),
    ("9", criterion_9_kappa_qop),
]


def run_all(select: set[str] | None = None, verbose: bool = True) -> list[CriterionResult]:
    import sys

    results = []
    for key, fn in CRITERIA:
        if select and key not in select:
            continue
        t0 = time.time()
        res = fn()
        res.seconds = time.time() - t0
        results.append(res)
        if verbose:
            # progress goes to stderr; standard output carries only the JSON report
            print(res.line(), file=sys.stderr, flush=True)
    return results
