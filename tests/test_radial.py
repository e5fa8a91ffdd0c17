from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rahecke import growth
from rahecke.coxeter import CoxeterDiagram
from rahecke.enumeration import NormalFormAutomaton, ball
from rahecke.hecke import HeckeElement, MultiParameter, central_projection_partial
from rahecke.radial import RadialModel, cross_pattern_inner, eigen_residuals_sq
from test_enumeration import diagrams
from test_l2rep import SQUARES


@pytest.fixture(scope="module")
def free3():
    return CoxeterDiagram(["a", "b", "c"])


@pytest.fixture(scope="module")
def params(free3):
    return MultiParameter.exact_squares(free3, {s: Fraction(1, 4) for s in "abc"})


def test_sphere_sizes():
    m = RadialModel(3, Fraction(1, 2))
    assert [m.sphere_size(l) for l in range(5)] == [1, 3, 6, 12, 24]


def test_radial_product_matches_algebra(free3, params):
    """h_l products computed radially agree with the generic algebra."""
    m = RadialModel(3, Fraction(1, 2))
    b = ball(free3, 6)

    def h(l):
        out = HeckeElement.zero(params)
        for v in b.sphere(l):
            out = out + HeckeElement.basis(params, b.words[v])
        return out

    hs = [h(l) for l in range(4)]
    for i in range(4):
        for j in range(4):
            prod = hs[i] * hs[j]
            vec = [Fraction(0)] * (i + 1)
            vec[i] = Fraction(1)
            other = [Fraction(0)] * (j + 1)
            other[j] = Fraction(1)
            rad = m.product(vec, other)
            # compare coefficients sphere by sphere (radial elements have
            # constant coefficient on each sphere)
            terms = dict(prod.terms())
            for l, c in enumerate(rad):
                sphere = list(b.sphere(l))
                got = {terms.get(b.words[v], Fraction(0)) for v in sphere}
                assert got == {c}


def _trimmed(vec):
    vec = list(vec)
    while len(vec) > 1 and vec[-1] == 0:
        vec.pop()
    return vec


def _fraction_product(k, r, x, y):
    """The h_m recursion of RadialModel.product on Fractions, the h_1 step
    written out: the oracle for the integer recursion.  Its inputs carry no
    trailing zeros (it indexes past a vector trimmed shorter than its
    predecessor)."""
    q = Fraction(r) ** 2
    p = (q - 1) / Fraction(r)

    def mul_h1(vec):
        out = [Fraction(0)] * (len(vec) + 1)
        for l, c in enumerate(vec):
            out[l + 1] += c
            if l >= 1:
                out[l] += c * p
                out[l - 1] += c * (k if l == 1 else k - 1)
        return out

    out = [Fraction(0)]
    xh_prev, xh = [], [Fraction(c) for c in x]
    for m, coef in enumerate(y):
        if coef != 0:
            out.extend([Fraction(0)] * (len(xh) - len(out)))
            for l, c in enumerate(xh):
                out[l] += coef * c
        if m == len(y) - 1:
            break
        nxt = mul_h1(xh)
        if m >= 1:
            cm = k if m == 1 else k - 1
            for l, c in enumerate(xh):
                nxt[l] -= p * c
            for l, c in enumerate(xh_prev):
                nxt[l] -= cm * c
        xh_prev, xh = xh, _trimmed(nxt)
    return _trimmed(out)


radial_vectors = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12),
                          min_size=1, max_size=7).flatmap(
    lambda v: st.integers(0, 3).map(lambda z: v + [Fraction(0)] * z))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 5),
       st.sampled_from([Fraction(1, 2), Fraction(3), Fraction(2, 7), Fraction(5, 3), Fraction(1)]),
       radial_vectors, radial_vectors)
def test_integer_product_matches_fraction_recursion(k, r, x, y):
    """The product on integers over one denominator equals the Fraction
    recursion, trailing zeros in either factor included."""
    assert RadialModel(k, r).product(x, y) == _fraction_product(k, r, _trimmed(x), _trimmed(y))


def test_product_with_trailing_zeros():
    """x with two trailing zeros and y with three entries: h_0 * (h_0 + h_1
    + h_2) is h_0 + h_1 + h_2."""
    assert RadialModel(3, Fraction(1, 2)).product([1, 0, 0, 0], [1, 1, 1]) == [1, 1, 1]


@pytest.mark.parametrize("call, match", [
    (lambda: RadialModel(3, 0), "r must be > 0"),
    (lambda: RadialModel(3, Fraction(-1, 2)), "r must be > 0"),
    (lambda: RadialModel(3, Fraction(1, 2)).idempotent_residual_sq(1, -1), "cutoff"),
    (lambda: RadialModel(3, Fraction(1, 2)).e_partial(-1, -2), "cutoff"),
    (lambda: RadialModel(3, 2).idempotent_residual_sq(0, 3), "eps"),
    (lambda: RadialModel(3, Fraction(1, 2)).e_partial(2, 3), "eps"),
])
def test_radial_model_refuses_vacuous_inputs(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_norm_matches(params, free3):
    m = RadialModel(3, Fraction(1, 2))
    vec = [Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(5, 7)]
    b = ball(free3, 3)
    x = HeckeElement.zero(params)
    for l, c in enumerate(vec):
        for v in b.sphere(l):
            x = x + c * HeckeElement.basis(params, b.words[v])
    assert x.norm2_sq() == m.norm2_sq(vec)


def test_e_partial_consistency(params):
    m = RadialModel(3, Fraction(1, 2))
    eig = eigen_residuals_sq(params, (1, 1, 1), "a", 5)
    for i in (0, 2, 5):
        e_vec = m.e_partial(1, i)
        e_gen = central_projection_partial(params, (1, 1, 1), i)
        assert e_gen.trace() == e_vec[0]
        sq = e_gen * e_gen - e_gen
        assert sq.norm2_sq() == m.idempotent_residual_sq(1, i)
        ta = HeckeElement.basis(params, "a")
        assert (ta * e_gen - Fraction(1, 2) * e_gen).norm2_sq() == eig[i]


def test_eigen_residual_closed_form(params):
    m = RadialModel(3, Fraction(1, 2))
    w = m.growth_value(Fraction(1, 4))
    eig = eigen_residuals_sq(params, (1, 1, 1), "a", 33)
    for i in (4, 17, 33):
        beta_i = m.e_partial(1, i)[i]
        assert eig[i] == beta_i ** 2 * 2 ** i * Fraction(5, 4)
    assert w == Fraction(5, 2)


def test_growth_value_errors():
    m = RadialModel(3, Fraction(1))
    with pytest.raises(ValueError):
        m.growth_value(Fraction(1))  # (k-1) q = 2 >= 1


def test_weighted_sphere_sums(free3):
    weights = [Fraction(1, 2), Fraction(-1, 3), Fraction(2)]
    sums = NormalFormAutomaton(free3).sphere_series(weights, 5)
    b = ball(free3, 5)
    wmap = dict(zip(free3.generators, weights))
    for l in range(6):
        expect = Fraction(0)
        for v in b.sphere(l):
            term = Fraction(1)
            for s in b.words[v]:
                term *= wmap[s]
            expect += term
        assert sums[l] == expect


def test_cross_pattern_inner(free3):
    params = MultiParameter.exact_squares(
        free3, {"a": Fraction(1, 100), "b": Fraction(1, 100), "c": Fraction(4)})
    for i in (2, 4, 6):
        e1 = central_projection_partial(params, (1, 1, 1), i)
        e2 = central_projection_partial(params, (1, 1, -1), i)
        assert e1.inner(e2) == cross_pattern_inner(params, (1, 1, 1), (1, 1, -1), i)
    final = cross_pattern_inner(params, (1, 1, 1), (1, 1, -1), 60)
    assert abs(final) < Fraction(1, 10 ** 4)
    # illegal pattern is rejected
    with pytest.raises(ValueError):
        cross_pattern_inner(params, (1, 1, 1), (-1, -1, -1), 5)


def test_cross_pattern_inner_diagram_a():
    d = CoxeterDiagram(["a", "b", "c"], [["a", "b"]])
    params = MultiParameter.exact_squares(
        d, {"a": Fraction(1, 100), "b": Fraction(1, 100), "c": Fraction(4)})
    for i in (0, 2, 4):
        e1 = central_projection_partial(params, (1, 1, 1), i)
        e2 = central_projection_partial(params, (1, 1, -1), i)
        assert cross_pattern_inner(params, (1, 1, 1), (1, 1, -1), i) == e1.inner(e2)
        assert cross_pattern_inner(params, (1, 1, -1), (1, 1, -1), i) == e2.inner(e2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(diagrams(max_rank=4), st.data())
def test_generic_formulas_match_hecke_products(d, data):
    """On any diagram, the sphere-sum eigen residuals and cross inner
    products equal the Hecke-product values for every interior flip, and a
    Boundary or Exterior flip is refused."""
    params = MultiParameter.exact_squares(
        d, {s: data.draw(st.sampled_from(SQUARES)) for s in d.generators})
    flips = data.draw(st.lists(st.sampled_from(growth.all_sign_patterns(d.rank)),
                               min_size=1, max_size=3, unique=True))
    cutoff = 3
    partials = {}  # interior flip -> [E^(0), ..., E^(cutoff)]
    for eps in flips:
        if growth.region_membership(d, params.abs_flip(eps)) != "Interior":
            with pytest.raises(ValueError):
                eigen_residuals_sq(params, eps, d.generators[0], cutoff)
            with pytest.raises(ValueError):
                cross_pattern_inner(params, eps, eps, cutoff)
            continue
        es = [central_projection_partial(params, eps, i) for i in range(cutoff + 1)]
        partials[eps] = es
        for s in d.generators:
            chi = params.char_gen(s, eps[d.gen_index(s)])
            ts = HeckeElement.basis(params, (s,))
            assert eigen_residuals_sq(params, eps, s, cutoff) == [
                (ts * e - chi * e).norm2_sq() for e in es]
    for eps1, es1 in partials.items():
        for eps2, es2 in partials.items():
            for i in range(cutoff + 1):
                assert cross_pattern_inner(params, eps1, eps2, i) == es1[i].inner(es2[i])
