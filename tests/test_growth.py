import contextlib
import hashlib
import string
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rahecke.coxeter import CoxeterDiagram
from rahecke.enumeration import NormalFormAutomaton, connected_diagram_corpus
from rahecke import growth, polys
from test_enumeration import commutes, components, diagrams


def mul(p, q):
    """The product of two integer polynomials."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return polys.trim(out)


def gcd_poly(p, q):
    """Primitive gcd with a positive leading coefficient (primitive PRS)."""
    a, b = polys.primitive(p), polys.primitive(q)
    while b:
        a, b = b, polys.primitive(polys.prem(a, b))
    return [-c for c in a] if a and a[-1] < 0 else a


def squarefree_part(p):
    """p divided by gcd(p, p'): the oracle of ``polys._squarefree``."""
    if len(p) < 2:
        return list(p)
    g = gcd_poly(p, polys.derivative(p))
    if len(g) < 2:
        return list(p)
    return polys.exact_div(p, g)


def evaluate(p, x):
    """p(x), by Horner's scheme."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


# The Sturm-count bisection: the reference that isolate_smallest_positive_root
# must agree with, bracket for bracket.

def sturm_chain(p):
    """Sturm chain of a squarefree polynomial, each member primitive: p, p'
    and the negated pseudo-remainders, each a positive multiple of the
    rational Sturm chain's member, so every sign and count is too."""
    chain = [polys.primitive(p), polys.primitive(polys.derivative(p))]
    while chain[-1]:
        rem = polys.prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(polys.primitive([-c for c in rem]))
    return [c for c in chain if c]


def _variations(chain, x):
    """Sign variations of the chain at x, zeros skipped."""
    signs = [s for s in (polys._sign(p, x.numerator, x.denominator) for p in chain) if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def count_roots(chain, a, b):
    """Number of distinct real roots in (a, b] for a squarefree chain."""
    return _variations(chain, Fraction(a)) - _variations(chain, Fraction(b))


def _sturm_bisection(chain):
    """Reference for isolate_smallest_positive_root: bisect (0, 2^k] with
    Fraction midpoints and two Sturm counts per step until (lo, hi] holds
    one root, lo > 0 and hi - lo <= WIDTH; a midpoint root deflates."""
    hi = Fraction(1)
    while hi < polys.cauchy_bound(chain[0]):
        hi *= 2
    lo = Fraction(0)
    if count_roots(chain, lo, hi) == 0:
        return None
    while count_roots(chain, lo, hi) != 1 or lo == 0 or hi - lo > WIDTH:
        mid = (lo + hi) / 2
        if evaluate(chain[0], mid) == 0:
            f = polys.exact_div(chain[0], [-mid.numerator, mid.denominator])
            chain = sturm_chain(f)
            if count_roots(chain, lo, mid) == 0:
                return (mid, mid)
            hi = mid
        elif count_roots(chain, lo, mid) >= 1:
            hi = mid
        else:
            lo = mid
    return (lo, hi)


def q_const(d, v):
    return {s: Fraction(v) for s in d.generators}


@pytest.fixture(scope="module")
def diagram_a():
    return CoxeterDiagram(["a", "b", "c"], [["a", "b"]])


@pytest.fixture(scope="module")
def free3():
    return CoxeterDiagram(["a", "b", "c"])


@pytest.fixture(scope="module")
def pentagon():
    return CoxeterDiagram(list("abcde"),
                          [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]])


def test_growth_reciprocal_examples(diagram_a, free3):
    dinf = CoxeterDiagram(["a", "b"])
    assert growth.growth_reciprocal(dinf, q_const(dinf, 1)) == 0
    assert growth.growth_reciprocal(diagram_a, q_const(diagram_a, 1)) == Fraction(-1, 4)
    single = CoxeterDiagram(["a"])
    q = Fraction(3, 7)
    assert growth.growth_reciprocal(single, {"a": q}) == 1 / (1 + q)


def test_growth_reciprocal_errors(diagram_a):
    with pytest.raises(ValueError):
        growth.growth_reciprocal(diagram_a, {"a": Fraction(-1), "b": Fraction(1), "c": Fraction(1)})
    with pytest.raises(ValueError):
        growth.growth_reciprocal(diagram_a, {"a": Fraction(1)})


def ray_numerator(d, q):
    """N(t) of D(t*q), reduced from the ray fraction's numerator at q."""
    return growth.ray_numerator(d, q, growth._ray_fraction(d, q)[0])


def test_ray_numerator_examples(diagram_a, free3, pentagon):
    assert ray_numerator(free3, q_const(free3, 1)) == [1, -2]
    assert ray_numerator(diagram_a, q_const(diagram_a, 1)) == [1, -1, -1]
    assert ray_numerator(pentagon, q_const(pentagon, 1)) == [1, -3, 1]
    single = CoxeterDiagram(["a"])
    assert ray_numerator(single, {"a": Fraction(5)}) == [1]


def test_pole_and_rho(diagram_a, free3, pentagon):
    rep = growth.pole_and_rho(diagram_a, q_const(diagram_a, 1))
    lo, hi = rep.t0
    assert hi - lo <= Fraction(1, 2 ** 64)
    assert (2 * lo + 1) ** 2 <= 5 <= (2 * hi + 1) ** 2  # contains (sqrt5-1)/2
    rlo, rhi = rep.rho
    assert (2 * rhi - 1) ** 2 >= 5 >= (2 * rlo - 1) ** 2  # contains (1+sqrt5)/2

    rep3 = growth.pole_and_rho(free3, q_const(free3, Fraction(1, 4)))
    assert rep3.t0 == (2, 2)  # exact rational root
    assert rep3.rho == (Fraction(1, 2), Fraction(1, 2))

    repp = growth.pole_and_rho(pentagon, q_const(pentagon, 1))
    lo, hi = repp.t0
    assert (3 - 2 * lo) ** 2 >= 5 >= (3 - 2 * hi) ** 2  # contains (3-sqrt5)/2

    single = CoxeterDiagram(["a"])
    repf = growth.pole_and_rho(single, {"a": Fraction(2)})
    assert repf.t0 is None and repf.rho == (0, 0)


def test_region_membership(diagram_a, free3):
    dinf = CoxeterDiagram(["a", "b"])
    cases = [
        (free3, q_const(free3, Fraction(1, 4)), "Interior"),
        (dinf, q_const(dinf, 1), "Boundary"),
        (diagram_a, q_const(diagram_a, 1), "Exterior"),
        (free3, q_const(free3, Fraction(1, 2)), "Boundary"),
        # mixed-parameter boundary for the infinite dihedral group: q_a q_b = 1
        (dinf, {"a": Fraction(1, 4), "b": Fraction(4)}, "Boundary"),
    ]
    for d, q, membership in cases:
        assert growth.region_membership(d, q) == membership
        assert growth.pole_and_rho(d, q).membership == membership


def test_growth_value(free3):
    assert growth.growth_value(free3, q_const(free3, Fraction(1, 4))) == Fraction(5, 2)
    with pytest.raises(ValueError):
        growth.growth_value(free3, q_const(free3, 1))


def test_classifier_free3(free3):
    simple = [Fraction(3, 5), Fraction(1), Fraction(19, 10)]
    notsimple = [Fraction(2, 5), Fraction(1, 2), Fraction(2), Fraction(3)]
    for q in simple:
        assert growth.classify_simplicity(free3, q_const(free3, q)).status == "Simple"
    for q in notsimple:
        v = growth.classify_simplicity(free3, q_const(free3, q))
        assert v.status == "NotSimple"
    assert growth.classify_simplicity(free3, q_const(free3, Fraction(1, 2))).boundary_flags
    assert growth.classify_simplicity(free3, q_const(free3, 2)).boundary_flags


def test_classifier_dinfty():
    dinf = CoxeterDiagram(["a", "b"])
    for q in (Fraction(1, 4), Fraction(1), Fraction(4)):
        v = growth.classify_simplicity(dinf, q_const(dinf, q))
        assert v.status == "NotSimple"
    v1 = growth.classify_simplicity(dinf, q_const(dinf, 1))
    assert set(v1.witnesses) == set(v1.boundary_flags)
    assert len(v1.witnesses) == 4


def test_classifier_other(diagram_a, pentagon):
    assert growth.classify_simplicity(pentagon, q_const(pentagon, 1)).status == "Simple"
    assert growth.classify_simplicity(diagram_a, q_const(diagram_a, 1)).status == "Simple"
    single = CoxeterDiagram(["a"])
    assert growth.classify_simplicity(single, {"a": Fraction(7, 2)}).status == "NotSimple"
    red = CoxeterDiagram(["a", "b"], [["a", "b"]])
    v = growth.classify_simplicity(red, q_const(red, 1))
    assert v.status == "NotApplicable" and v.reason


def test_character_list(free3):
    dinf = CoxeterDiagram(["a", "b"])
    assert growth.character_list(free3, q_const(free3, Fraction(1, 4))) == [(1, 1, 1)]
    assert growth.character_list(free3, q_const(free3, 1)) == []
    chars = growth.character_list(dinf, q_const(dinf, 1))
    assert (1, 1) in chars and (-1, -1) in chars and len(chars) == 4


def test_series_oracle_small_corpus():
    for d in connected_diagram_corpus(4):
        q1 = q_const(d, 1)
        series = growth.series_coefficients(d, q1, 9)
        counts = NormalFormAutomaton(d).sphere_counts(8)
        assert [int(c) for c in series] == counts


def test_series_oracle_weighted(diagram_a):
    q = {"a": Fraction(1, 2), "b": Fraction(3), "c": Fraction(2, 7)}
    series = growth.series_coefficients(diagram_a, q, 9)
    aut = NormalFormAutomaton(diagram_a)
    sums = aut.sphere_series([q[s] for s in diagram_a.generators], 8)
    assert series == sums


def test_ray_homogeneity(diagram_a):
    """rho(t q) = t rho(q): the isolating interval for t*q scaled by 1/t must
    contain the unique root of the q-ray polynomial."""
    q = {"a": Fraction(1, 2), "b": Fraction(2), "c": Fraction(1, 3)}
    t = Fraction(3, 5)
    rep1 = growth.pole_and_rho(diagram_a, q)
    rep2 = growth.pole_and_rho(diagram_a, {s: t * v for s, v in q.items()})
    # t0 scales inversely: t0(tq) = t0(q)/t
    lo1, hi1 = rep1.t0
    lo2, hi2 = rep2.t0
    scaled = (lo2 * t, hi2 * t)
    chain = sturm_chain(squarefree_part(ray_numerator(diagram_a, q)))
    lo = min(lo1, scaled[0])
    hi = max(hi1, scaled[1])
    assert count_roots(chain, lo, hi) == 1  # both brackets hold the same root


def test_fekete_sandwich(diagram_a):
    q1 = q_const(diagram_a, 1)
    rho = growth.pole_and_rho(diagram_a, q1).rho_float()
    aut = NormalFormAutomaton(diagram_a)
    sums = aut.sphere_series([Fraction(1)] * 3, 20)
    roots = [float(sums[l]) ** (1 / l) for l in range(1, 21)]
    for r in roots:
        assert r >= rho - 1e-12
    assert roots[19] - rho < 0.05 * rho


def test_openness_scaling(free3):
    """Interior points stay interior under a tiny scaling (the region is open)."""
    q = q_const(free3, Fraction(2, 5))
    assert growth.region_membership(free3, q) == "Interior"
    factor = 1 + Fraction(1, 1000)
    assert growth.region_membership(free3, {s: v * factor for s, v in q.items()}) == "Interior"


def test_product_rule_reducible():
    d = CoxeterDiagram(list("abcd"),
                       [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]])
    q = {"a": Fraction(1, 2), "b": Fraction(3), "c": Fraction(1, 5), "d": Fraction(2)}
    total = growth.growth_reciprocal(d, q)
    prod = Fraction(1)
    for comp in components(d):
        prod *= growth.growth_reciprocal(comp, {s: q[s] for s in comp.generators})
    assert total == prod


def test_smallest_positive_root_edge_cases():
    # exact rational root found exactly
    f = [1, -3, 2]  # (1-t)(1-2t)
    lo, hi = polys.isolate_smallest_positive_root(f)
    assert lo == hi == Fraction(1, 2)
    # no positive root
    assert polys.isolate_smallest_positive_root([1, 0, 1]) is None
    # repeated roots are handled through the squarefree part
    g = mul(f, f)
    lo, hi = polys.isolate_smallest_positive_root(g)
    assert lo == hi == Fraction(1, 2)


def test_boundary_needs_one_as_the_only_root_below_one(monkeypatch, free3):
    """N = (1-t)(1-2t) vanishes at 1 but has the root 1/2 below it, so
    rho = 2 > 1: Exterior, not Boundary.  At q = 1/2 the real numerator is
    1 - t (Boundary, NotSimple), so the patch must reach the analysis."""
    f = [1, -3, 2]
    monkeypatch.setattr(growth, "ray_numerator", lambda diagram, q, num: list(f))
    q = q_const(free3, Fraction(1, 2))
    assert growth.region_membership(free3, q) == "Exterior"
    assert growth.pole_and_rho(free3, q).t0 == (Fraction(1, 2), Fraction(1, 2))
    verdict = growth.classify_simplicity(free3, q)
    assert verdict.status == "Simple" and not verdict.boundary_flags


# sha256 of classify_simplicity(d, q).per_flip (with status, witnesses and
# boundary flags) over the rank <= 5 corpus at FLIP_VECTORS, in corpus order;
# recorded from the Sturm-count bisection that evaluated every flip
# separately with Fraction arithmetic.
FLIP_VECTORS = (
    (Fraction(1, 4), Fraction(2, 5), Fraction(1), Fraction(3, 5), Fraction(2)),
    (Fraction(1), Fraction(3, 2), Fraction(1), Fraction(9, 4), Fraction(1, 2)),
    (Fraction(3), Fraction(1, 3), Fraction(5, 7), Fraction(1), Fraction(7, 5)),
)
PER_FLIP_DIGEST = "f5aefd0461ee367bfbd29c3866ffe5bec02bfdb154803ac7b3704ed116474bd1"


def _per_flip_digest(cases):
    """sha256 of the verdict and per_flip of each (label, diagram, q vector)."""
    h = hashlib.sha256()
    for label, d, vec in cases:
        v = growth.classify_simplicity(d, dict(zip(d.generators, vec)))
        h.update(f"{label}|{v.status}|{v.witnesses}|{v.boundary_flags}\n".encode())
        for eps, info in sorted(v.per_flip.items()):
            h.update(f"{eps}:{info['membership']}:{info['t0']}:{info['rho']}\n".encode())
    return h.hexdigest()


def test_per_flip_unchanged_on_corpus():
    cases = ((d.generators, d, vec) for d in connected_diagram_corpus(5) for vec in FLIP_VECTORS)
    assert _per_flip_digest(cases) == PER_FLIP_DIGEST


# Twelve irreducible rank-6 diagrams, each given by its infinity edges (every
# other pair commutes), and two parameter vectors with some q_s = 1: rank 6 is
# the largest rank in the benchmark's classify mix.
RANK6_INFINITY = (
    "ab bc cd de ef", "ab ac ad ae af", "ab bc cd de ef fa",
    "ab ac ad ae af bc bd be bf cd ce cf de df ef", "ab bc bd de ef",
    "ad ae af bd be bf cd ce cf", "ab bc ca cd de ef", "ab bc ca cd de ec ef",
    "ab ac ad ae af bc cd de ef", "ac ad ae af bc bd be bf ce cf de df",
    "ab bc cd de ea af", "ab ac bc bd ce df ef",
)
RANK6_VECTORS = (
    (Fraction(1, 9), Fraction(8), Fraction(1), Fraction(1, 7), Fraction(5), Fraction(1, 6)),
    (Fraction(1), Fraction(1, 5), Fraction(7), Fraction(1), Fraction(1, 8), Fraction(6)),
)
# The same digest as PER_FLIP_DIGEST over RANK6_INFINITY at RANK6_VECTORS,
# recorded before the isolation started at (0, 1].
RANK6_PER_FLIP_DIGEST = "c06b0b696c02ab011332fff3f85f86d4bad82272ed12a4c027e40a9659da5f16"


def _rank6_diagram(infinity):
    names = "abcdef"
    edges = {frozenset(e) for e in infinity.split()}
    return CoxeterDiagram(list(names), [pair for pair in combinations(names, 2)
                                        if frozenset(pair) not in edges])


def test_per_flip_unchanged_at_rank_6():
    diagrams = [(infinity, _rank6_diagram(infinity)) for infinity in RANK6_INFINITY]
    assert all(d.is_irreducible() for _, d in diagrams)
    cases = ((infinity, d, vec) for infinity, d in diagrams for vec in RANK6_VECTORS)
    assert _per_flip_digest(cases) == RANK6_PER_FLIP_DIGEST


@contextlib.contextmanager
def _calls_per_refine(name="_newton_step", refine_args=None):
    """Count the calls of ``polys.<name>`` inside each ``polys._refine``
    call, by default the values of F it computes: the yielded list gets one
    entry per call, and ``refine_args``, when given, the call's arguments."""
    counted, refine = getattr(polys, name), polys._refine
    per_ray: list[int] = []
    inside = [False]

    def counting(*args):
        if inside[0]:
            per_ray[-1] += 1
        return counted(*args)

    def counting_refine(*args):
        per_ray.append(0)
        if refine_args is not None:
            refine_args.append(args)
        inside[0] = True
        try:
            return refine(*args)
        finally:
            inside[0] = False

    with mock.patch.object(polys, name, counting), \
            mock.patch.object(polys, "_refine", counting_refine):
        yield per_ray


def test_refinement_takes_few_evaluations():
    """Phase 2's Newton computes about 6.7 values of F per ray over the
    rank <= 5 corpus at FLIP_VECTORS, where bisecting to width 2^-64 took
    about 63."""
    with _calls_per_refine() as per_ray:
        for d in connected_diagram_corpus(5):
            for vec in FLIP_VECTORS:
                growth.classify_simplicity(d, dict(zip(d.generators, vec)))
    assert len(per_ray) > 900
    assert sum(per_ray) / len(per_ray) <= 8


def test_newton_guess_takes_few_steps():
    """No ray of the rank <= 5 corpus at FLIP_VECTORS takes more than 8
    values of F, nor more than 2K, the loop's bound: K iterates placed by
    Newton, then the midpoints of bisection."""
    refine_args: list[tuple] = []
    with _calls_per_refine(refine_args=refine_args) as per_ray:
        for d in connected_diagram_corpus(5):
            for vec in FLIP_VECTORS:
                growth.classify_simplicity(d, dict(zip(d.generators, vec)))
    assert len(per_ray) > 900
    assert max(per_ray) <= 8
    for steps, (_, a, b, d) in zip(per_ray, refine_args):
        k = 0  # the least k with (b - a) 2^BISECTION_BITS <= d 2^k
        while (b - a) << polys.BISECTION_BITS > d << k:
            k += 1
        assert steps <= 2 * k


@pytest.mark.parametrize("f, phase1, most", [([-3, -7, 2], (2, 4), 7),
                                             ([-2, -3, -7, -9, -5, 6], (1, 2), 8),
                                             ([5, -1, -4, -9, 9, 4, -3], (1, 2), 9)],
                         ids=["quadratic", "quintic", "sextic"])
def test_newton_step_leaving_the_bracket_is_pulled_back(f, phase1, most):
    """Newton from the midpoint of the phase-1 bracket leaves the bracket
    that the sign there leaves: for 2t^2 - 7t - 3 from 3 to 4.2, out of
    (2, 4]; for 6t^5 - 5t^4 - 9t^3 - 7t^2 - 3t - 2 from 3/2 to -84.8, out of
    (1, 2], and from 1 to 0.41; for -3t^6 + 4t^5 + 9t^4 - 9t^3 - 4t^2 - t + 5
    from 3/2 to 1.02, inside (1, 2] but below 3/2, where the sign at 3/2
    puts t0 above.  A step that leaves the narrowed bracket goes next to the
    end it passed, or to the midpoint, and phase 2 ends in the bracket of
    the Sturm-count bisection within a few values of F."""
    lo, hi = phase1
    value, step = polys._newton_step(f, lo + hi, 2)  # at the midpoint, on the grid 1/2
    narrowed = (lo + hi, 2 * hi) if (value > 0) == (f[0] > 0) else (2 * lo, lo + hi)
    assert not narrowed[0] < lo + hi - step < narrowed[1]
    refine_args: list[tuple] = []
    with _calls_per_refine(refine_args=refine_args) as per_ray:
        bracket = polys.isolate_smallest_positive_root(f)
    assert [(Fraction(a, d), Fraction(b, d)) for _, a, b, d in refine_args] == [phase1]
    assert bracket == _sturm_bisection(sturm_chain(f))
    assert per_ray[0] <= most


def test_classify_makes_one_descartes_count_per_flip(pentagon):
    """Every flip of the pentagon at a mixed q has N(0) > 0 > N(1), so the
    isolation starts at (0, 1], where one Descartes count isolates the
    smallest root, and halves on the sign of f alone from there: one
    classify (16 distinct flips) makes 16 counts and takes no gcd, where the
    Sturm route built 16 chains and evaluated them 32 times."""
    q = dict(zip(pentagon.generators, (Fraction(1, 4), Fraction(2, 5), Fraction(1),
                                       Fraction(3, 2), Fraction(9, 4))))
    with mock.patch.object(polys, "_descartes", wraps=polys._descartes) as counts, \
            mock.patch.object(polys, "_squarefree", wraps=polys._squarefree) as gcds:
        growth.classify_simplicity(pentagon, q)
    assert (counts.call_count, gcds.call_count) == (16, 0)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
WIDTH = Fraction(1, 2 ** 64)


@st.composite
def int_polys(draw, positive=False):
    """A random integer polynomial of degree 1..6 with p(0) != 0; with
    ``positive``, all coefficients are positive (so no positive root)."""
    low = 1 if positive else -9
    cs = draw(st.lists(st.integers(low, 9), min_size=2, max_size=7))
    cs[0] = cs[0] or 1
    cs[-1] = cs[-1] or 1
    return cs


@PROPERTY_SETTINGS
@given(int_polys())
def test_smallest_positive_root_isolates(p):
    chain = sturm_chain(squarefree_part(p))
    bracket = polys.isolate_smallest_positive_root(p)
    if bracket is None:
        assert count_roots(chain, Fraction(0), polys.cauchy_bound(p)) == 0
        return
    lo, hi = bracket
    if lo == hi:
        assert evaluate(p, lo) == 0
        assert count_roots(chain, Fraction(0), lo) == 1
        return
    assert 0 < lo < hi and hi - lo <= WIDTH
    assert count_roots(chain, lo, hi) == 1
    assert count_roots(chain, Fraction(0), lo) == 0


@PROPERTY_SETTINGS
@given(int_polys(positive=True), st.integers(1, 2 ** 20), st.integers(0, 40))
def test_smallest_positive_root_hits_dyadic_roots(g, a, j):
    r = Fraction(a, 2 ** j)
    p = mul(g, [-r.numerator, r.denominator])
    assert polys.isolate_smallest_positive_root(p) == (r, r)


@st.composite
def dyadic_root_polys(draw):
    """g * (2^j t - a) with g positive: the dyadic root a / 2^j is the only
    positive one, as in test_smallest_positive_root_hits_dyadic_roots."""
    g = draw(int_polys(positive=True))
    r = Fraction(draw(st.integers(1, 2 ** 20)), 2 ** draw(st.integers(0, 40)))
    return mul(g, [-r.numerator, r.denominator])


@st.composite
def polys_with_known_roots(draw):
    """(p, roots): p = c * prod (b_i t - a_i) * (c0 + c1 t^k), with c of
    either sign and k even, so the last factor has no real root.  The gap
    factor, and roots closed under negation, make the remainder sequence
    skip degrees."""
    roots = draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                          min_size=0, max_size=4))
    if draw(st.booleans()):
        roots += [-r for r in roots]
    c = draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))
    p = [c]
    for r in roots:
        p = mul(p, [-r.numerator, r.denominator])
    c0, c1 = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    gap = [c0] + [0] * (draw(st.sampled_from([2, 4, 6])) - 1) + [c1]
    return mul(p, gap), set(roots)


@PROPERTY_SETTINGS
@given(polys_with_known_roots(),
       st.fractions(min_value=-10, max_value=10, max_denominator=6),
       st.fractions(min_value=-10, max_value=10, max_denominator=6))
def test_sturm_counts_known_roots(p_roots, a, b):
    p, roots = p_roots
    lo, hi = min(a, b), max(a, b)
    chain = sturm_chain(squarefree_part(p))
    assert count_roots(chain, lo, hi) == sum(1 for r in roots if lo < r <= hi)


@st.composite
def close_root_polys(draw):
    """g * (m t - n) * (m 2^e t - n 2^e - 1), g positive: the two positive
    roots n/m and n/m + 1/(m 2^e) lie closer than 2^-64, so phase 1, unless
    it hits n/m, ends on a grid finer than 2^-64."""
    g = draw(int_polys(positive=True))
    n, m = draw(st.integers(1, 2 ** 20)), draw(st.integers(1, 99))
    e = draw(st.integers(65, 90))
    return mul(mul(g, [-n, m]), [-(n << e) - 1, m << e])


@st.composite
def grid_root_polys(draw):
    """g * (2^64 t - N) with N odd and g positive: the one positive root is a
    point of the final grid (the multiples of 2^-64); phase 2 finds it
    unless it is so small that phase 1 already reaches that grid."""
    g = draw(int_polys(positive=True))
    n = 2 * draw(st.integers(0, 2 ** 65)) + 1
    return mul(g, [-n, 1 << 64])


@st.composite
def near_grid_root_polys(draw):
    """g * (m 2^e t - (N m 2^(e-64) + s)), g positive, s = +-1: the one
    positive root lies 1/(m 2^e) <= 2^-80 below or above the grid point
    N/2^64, where a Newton guess may name the neighbouring cell."""
    g = draw(int_polys(positive=True))
    n, m = draw(st.integers(1, 2 ** 66)), draw(st.integers(1, 99))
    e, s = draw(st.integers(80, 100)), draw(st.sampled_from([1, -1]))
    return mul(g, [-((n * m) << (e - 64)) - s, m << e])


@PROPERTY_SETTINGS
@given(near_grid_root_polys())
def test_near_grid_root_refinement_probes_the_neighbour_cell(p):
    """A root within 2^-80 of a grid point may leave the Newton iterate on
    the wrong side of that point; the step shorter than one grid point then
    moves to the neighbouring point, so phase 2 takes <= 8 values of F."""
    with _calls_per_refine() as per_ray:
        polys.isolate_smallest_positive_root(p)
    assert all(n <= 8 for n in per_ray)


@st.composite
def huge_coefficient_polys(draw):
    """(m t - n) * g with g = 2^1100 c + e coefficientwise (c, e positive):
    the coefficients stay beyond float range after the gcd is divided out."""
    cs = draw(int_polys(positive=True))
    es = draw(st.lists(st.integers(1, 9), min_size=len(cs), max_size=len(cs)))
    n, m = draw(st.integers(1, 2 ** 20)), draw(st.integers(1, 99))
    return mul([(c << 1100) + e for c, e in zip(cs, es)], [-n, m])


@PROPERTY_SETTINGS
@given(huge_coefficient_polys())
def test_huge_coefficient_refinement_keeps_the_newton_start(p):
    """Coefficients beyond float range: the integer Newton, started at the
    bracket's midpoint and kept inside the bracket by the signs of its
    iterates, still takes <= 11 values of F."""
    with _calls_per_refine() as per_ray:
        polys.isolate_smallest_positive_root(p)
    assert all(n <= 11 for n in per_ray)


@st.composite
def root_at_one_polys(draw):
    """g * (t - 1) * (m t - n), 0 < n <= 2m, g positive: the bisection
    deflates at the midpoint 1, with the root n/m below, at or above it."""
    g = draw(int_polys(positive=True))
    m = draw(st.integers(2, 99))
    return mul(mul(g, [-1, 1]), [-draw(st.integers(1, 2 * m)), m])


@st.composite
def dyadic_roots_above_one_polys(draw):
    """g * (t - 2^i) * (m t - n), i >= 1, 0 < n < m, g positive: from the
    Cauchy bound the bisection deflates the midpoint root 2^i on its way
    down to (0, 1], where the root n/m lies."""
    g = draw(int_polys(positive=True))
    m = draw(st.integers(2, 99))
    low = [-draw(st.integers(1, m - 1)), m]
    return mul(mul(g, [-(1 << draw(st.integers(1, 6))), 1]), low)


@st.composite
def tiny_root_polys(draw):
    """g * (m 2^e t - n), 1 <= n <= m, e > 64, g from int_polys: the smallest
    positive root n / (m 2^e) lies below 2^-64 (g's positive roots, if any,
    lie above 1/10), so once the counts isolate it the bisection halves e
    times or more with one root in its bracket before the bracket leaves 0."""
    g = draw(int_polys())
    m = draw(st.integers(1, 99))
    return mul(g, [-draw(st.integers(1, m)), m << draw(st.integers(65, 140))])


@st.composite
def irreducible_diagrams(draw, max_rank=5, min_rank=1, extra=st.booleans()):
    """An irreducible right-angled diagram of rank min_rank..max_rank: a
    random spanning tree of infinity edges plus the extra ones ``extra``
    draws true."""
    names = string.ascii_lowercase[: draw(st.integers(min_rank, max_rank))]
    infinity = {(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, len(names))}
    for pair in combinations(names, 2):
        if draw(extra):
            infinity.add(pair)
    commuting = [pair for pair in combinations(names, 2) if pair not in infinity]
    return CoxeterDiagram(list(names), commuting)


Q_VALUES = [Fraction(1, 4), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(1),
            Fraction(3, 2), Fraction(2), Fraction(9, 4), Fraction(4)]



@st.composite
def decisive_flip_numerators(draw):
    """N of the decisive flip q*_s = min(q_s, 1/q_s) at a diagram of rank
    12..16 whose infinity edges are a random tree plus one pair in eight:
    N's degree is the clique number of the commuting graph, above 7 on
    most draws."""
    d = draw(irreducible_diagrams(16, 12, st.integers(0, 7).map(lambda i: i == 0)))
    q = {s: min(v, 1 / v) for s, v in ((s, draw(st.sampled_from(Q_VALUES))) for s in d.generators)}
    return ray_numerator(d, q)


@st.composite
def repeated_root_polys(draw):
    """+-g^e h with g = m t - n, 0 < n <= m, e = 2 or 3, and h positive,
    on half the draws times a linear factor whose root lies above n/m: the
    smallest positive root n/m lies in (0, 1] and is repeated."""
    n = draw(st.integers(1, 99))
    m = draw(st.integers(n, 99))
    p = [draw(st.sampled_from([1, -1]))]
    for _ in range(draw(st.integers(2, 3))):
        p = mul(p, [-n, m])
    p = mul(p, draw(int_polys(positive=True)))
    if draw(st.booleans()):
        k, j = draw(st.integers(1, 9)), draw(st.integers(1, 99))
        p = mul(p, [-(n * k + j), m * k])
    return p


BISECTION_CASES = {
    "int_polys": int_polys(),
    "root_at_one": root_at_one_polys(),
    "dyadic_roots_above_one": dyadic_roots_above_one_polys(),
    "known_roots": polys_with_known_roots().map(lambda p_roots: p_roots[0]),
    "dyadic_roots": dyadic_root_polys(),
    "close_roots": close_root_polys(),
    "grid_root": grid_root_polys(),
    "near_grid_root": near_grid_root_polys(),
    "huge_coefficients": huge_coefficient_polys(),
    "tiny_root": tiny_root_polys(),
    "repeated_roots": repeated_root_polys(),
    "decisive_flips": decisive_flip_numerators(),
}


@pytest.mark.parametrize("kind", sorted(BISECTION_CASES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_bisection_is_the_sturm_count_bisection(kind, data):
    """The Descartes isolation, given p unreduced, returns the bracket of
    the Sturm-count bisection of p's squarefree part."""
    p = data.draw(BISECTION_CASES[kind])
    assume(p[0] != 0)
    expected = _sturm_bisection(sturm_chain(squarefree_part(p)))
    assert polys.isolate_smallest_positive_root(p) == expected


def _sturm_membership(num):
    """Membership from Sturm counts at 0 and 1: no root in (0, 1] is
    Interior, 1 as the only one Boundary, anything else Exterior."""
    inside = count_roots(sturm_chain(squarefree_part(num)), 0, 1)
    if inside == 0:
        return "Interior"
    return "Boundary" if inside == 1 and evaluate(num, 1) == 0 else "Exterior"


@pytest.mark.parametrize("kind", sorted(BISECTION_CASES))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_membership_is_the_sturm_membership(kind, data, free3):
    """The membership read off the isolation is the one Sturm counts at 0
    and 1 give, for every numerator of the bisection cases (made positive
    at 0, as a ray numerator is) put in place of the free3 one."""
    p = data.draw(BISECTION_CASES[kind])
    assume(p[0] != 0)
    num = p if p[0] > 0 else [-c for c in p]
    with mock.patch.object(growth, "ray_numerator", lambda diagram, q, full: list(num)):
        membership = growth.region_membership(free3, q_const(free3, 1))
    assert membership == _sturm_membership(num)


@PROPERTY_SETTINGS
@given(int_polys(), st.lists(int_polys(), max_size=2))
def test_squarefree_is_the_gcd_quotient(p, squared):
    """polys._squarefree is p / gcd(p, p'), up to sign: p itself when p is
    squarefree, and without the squares when squared factors are
    multiplied in."""
    for f in squared:
        p = mul(p, mul(f, f))
    expected = squarefree_part(p)
    assert polys._squarefree(p) in (expected, [-c for c in expected])


def test_sturm_count_keeps_signs_through_a_negative_lead():
    """The pseudo-remainder scales by |lc|, never by a negative lc."""
    chain = sturm_chain([-1, -1, -1, 0, -1])  # -(1 + t + t^2 + t^4)
    assert count_roots(chain, Fraction(-10), Fraction(10)) == 0


def _params(data, d):
    return {s: data.draw(st.sampled_from(Q_VALUES)) for s in d.generators}


def _named(d, patterns, name=str):
    """Sign patterns as sets of (generator name, sign) pairs."""
    return {frozenset((name(s), e) for s, e in zip(d.generators, eps)) for eps in patterns}


@PROPERTY_SETTINGS
@given(irreducible_diagrams(), st.data())
def test_classifier_invariant_under_renaming(d, data):
    q = _params(data, d)
    order = data.draw(st.permutations(d.generators))
    new_name = dict(zip(d.generators, "vwxyz"))
    renamed = CoxeterDiagram([new_name[s] for s in order],
                             [(new_name[s], new_name[t])
                              for s, t in combinations(d.generators, 2) if commutes(d, s, t)])
    v = growth.classify_simplicity(d, q)
    w = growth.classify_simplicity(renamed, {new_name[s]: q[s] for s in d.generators})
    assert v.status == w.status
    assert _named(d, v.witnesses, new_name.get) == _named(renamed, w.witnesses)
    assert _named(d, v.boundary_flags, new_name.get) == _named(renamed, w.boundary_flags)


@PROPERTY_SETTINGS
@given(irreducible_diagrams(), st.data())
def test_rho_monotone(d, data):
    q = _params(data, d)
    bigger = {s: v * data.draw(st.sampled_from([1, Fraction(5, 4), 2, 3])) for s, v in q.items()}
    assert growth.pole_and_rho(d, q).rho[0] <= growth.pole_and_rho(d, bigger).rho[1]


@PROPERTY_SETTINGS
@given(irreducible_diagrams(), st.data())
def test_decisive_flip_decides(d, data):
    """NotSimple exactly when the flip to q*_s = min(q_s, 1/q_s) is a witness."""
    q = _params(data, d)
    decisive = tuple(1 if q[s] <= 1 else -1 for s in d.generators)
    v = growth.classify_simplicity(d, q)
    assert (v.status == "NotSimple") == (decisive in v.witnesses)


@PROPERTY_SETTINGS
@given(irreducible_diagrams(), st.data())
def test_series_matches_automaton(d, data):
    """The clique numerator's series is the automaton's weighted sphere sums."""
    q = {s: data.draw(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
         for s in d.generators}
    sums = NormalFormAutomaton(d).sphere_series([q[s] for s in d.generators], 8)
    assert growth.series_coefficients(d, q, 9) == sums


@PROPERTY_SETTINGS
@given(irreducible_diagrams(), st.data())
def test_ray_numerator_divides_out_the_gcd(d, data):
    """Dividing num by den's linear factors one generator at a time is
    dividing by gcd(num, den); q_s = 1 and repeated q_s repeat a factor."""
    q = {s: data.draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1),
                                       Fraction(2), Fraction(3)]))
         for s in d.generators}
    num, den = growth._ray_fraction(d, q)
    reduced = polys.exact_div(num, gcd_poly(num, den))
    assert growth.ray_numerator(d, q, num) == polys.primitive(reduced)


def clique_expansion(d, q):
    """The ray fraction (num, den) with every clique product grown
    coefficient by coefficient: the oracle of the packed ``_ray_fraction``."""
    partial = [(0, [1])]
    for i, s in enumerate(d.generators):
        a, b = q[s].numerator, q[s].denominator
        blocked = d.conflict[i] & ((1 << i) - 1)
        grown = []
        for clique, term in partial:
            grown.append((clique, [b * term[0]]
                          + [b * c + a * c_low for c, c_low in zip(term[1:], term)]
                          + [a * term[-1]]))
            if not clique & blocked:
                grown.append((clique | 1 << i, [0] + [-a * c for c in term]))
        partial = grown
    num = polys.trim([sum(column) for column in zip(*(term for _, term in partial))])
    return num, partial[0][1]


BIG_Q = st.one_of(st.just(Fraction(1)),
                  st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
                  st.builds(Fraction, st.integers(1, 10 ** 40), st.integers(1, 10 ** 40)))
PACKING_DIAGRAMS = {
    "diagrams": diagrams(),
    # The rank6 golden diagram of the CLI tests: a path of infinity edges.
    "rank6": st.just(_rank6_diagram(RANK6_INFINITY[0])),
}


@pytest.mark.parametrize("kind", sorted(PACKING_DIAGRAMS))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_packed_ray_fraction_is_the_clique_expansion(kind, data):
    """Reducible diagrams included; q_s = 1, small q_s, and numerators and
    denominators up to 10^40."""
    d = data.draw(PACKING_DIAGRAMS[kind])
    q = {s: data.draw(BIG_Q) for s in d.generators}
    assert growth._ray_fraction(d, q) == clique_expansion(d, q)
