from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rahecke import enumeration
from rahecke.coxeter import CoxeterDiagram
from rahecke.enumeration import ball
from rahecke.hecke import (HeckeElement, MultiParameter,
                           central_projection_partial, char_value,
                           cliq_decomposition, flip_parameters,
                           parse_element_literal, rational_sqrt)
from test_coxeter import _word_descents, _word_nf, _word_prefixes, _word_strip
from test_enumeration import commutes, diagrams


@pytest.fixture(scope="module")
def diagram_a():
    return CoxeterDiagram(["a", "b", "c"], [["a", "b"]])


@pytest.fixture(scope="module")
def params_quarter(diagram_a):
    return MultiParameter.exact_squares(diagram_a, {s: Fraction(1, 4) for s in "abc"})


def rand_element(params, b, rng, terms=3):
    out = HeckeElement.zero(params)
    for _ in range(terms):
        v = int(rng.integers(0, len(b)))
        out = out + Fraction(int(rng.integers(-5, 6)) or 1, int(rng.integers(1, 4))) \
            * HeckeElement.basis(params, b.words[v])
    return out


def adjoint(x):
    """x* = sum_w x_w T_{w^-1}: the coefficients are real, and a word of w
    read right to left spells w^-1, so its letters go on the left first to
    last."""
    d, out = x.diagram, {}
    for w, c in x.coeffs.items():
        layers = ()
        for i in reversed(d.heap_letters(w)):
            layers = d.heap_lmul(layers, i)[0]
        out[layers] = c
    return HeckeElement(x.params, out)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_exact_mode_requires_squares(diagram_a):
    with pytest.raises(ValueError):
        MultiParameter.exact_squares(diagram_a, {s: Fraction(1, 2) for s in "abc"})
    p = MultiParameter.exact_squares(diagram_a, {s: Fraction(1, 4) for s in "abc"})
    assert p.p("a") == Fraction(-3, 2)
    f = MultiParameter.floating(diagram_a, {s: 0.5 for s in "abc"})
    assert not f.exact


def test_quadratic_relation(params_quarter):
    for s in "abc":
        ts = HeckeElement.basis(params_quarter, (s,))
        assert ts * ts == HeckeElement.one(params_quarter) + params_quarter.p(s) * ts


def test_product_examples(params_quarter, diagram_a):
    ta = HeckeElement.basis(params_quarter, "a")
    tab = HeckeElement.basis(params_quarter, "ab")
    tb = HeckeElement.basis(params_quarter, "b")
    assert tab * ta == tb + params_quarter.p("a") * tab
    assert HeckeElement.one(params_quarter) * tab == tab
    # product over a reduced word rebuilds the basis symbol
    tc = HeckeElement.basis(params_quarter, "c")
    assert ta * (tb * tc) == HeckeElement.basis(params_quarter, "abc")


def test_parameter_mismatch(diagram_a, params_quarter):
    other = MultiParameter.exact_squares(diagram_a, {s: Fraction(1, 9) for s in "abc"})
    with pytest.raises(ValueError):
        HeckeElement.basis(params_quarter, "a") * HeckeElement.basis(other, "a")


def test_adjoint(params_quarter, diagram_a):
    tab = HeckeElement.basis(params_quarter, "ab")
    assert adjoint(tab) == tab  # ab commuting: (ab)^-1 = ba = ab
    tac = HeckeElement.basis(params_quarter, "ac")
    assert adjoint(tac) == HeckeElement.basis(params_quarter, "ca")
    rng = np.random.default_rng(3)
    b = ball(diagram_a, 4)
    x = rand_element(params_quarter, b, rng)
    y = rand_element(params_quarter, b, rng)
    assert adjoint(x * y) == adjoint(y) * adjoint(x)
    assert adjoint(adjoint(x)) == x


def test_trace_and_inner(params_quarter, diagram_a):
    ta = HeckeElement.basis(params_quarter, "a")
    assert ta.trace() == 0
    assert HeckeElement.one(params_quarter).trace() == 1
    b = ball(diagram_a, 3)
    words = [b.words[v] for v in range(len(b))]
    for v in words[:6]:
        for w in words[:6]:
            val = HeckeElement.basis(params_quarter, v).inner(
                HeckeElement.basis(params_quarter, w))
            assert val == (1 if v == w else 0)


def test_trace_is_tracial_and_faithful(params_quarter, diagram_a):
    rng = np.random.default_rng(11)
    b = ball(diagram_a, 5)
    for _ in range(40):
        x = rand_element(params_quarter, b, rng)
        y = rand_element(params_quarter, b, rng)
        assert (x * y).trace() == (y * x).trace()
        if x.coeffs:
            assert x.inner(x) > 0
        assert x.inner(x) == x.norm2_sq()


def test_flip_parameters(params_quarter, diagram_a):
    eps = (-1, 1, -1)
    flipped = params_quarter.flipped(eps)
    assert flipped.q["a"] == 4 and flipped.q["b"] == Fraction(1, 4)
    # relation is preserved under the sign flip
    ta = HeckeElement.basis(params_quarter, "a")
    fa = flip_parameters(ta, eps)
    assert fa.terms() == [(("a",), -1)]
    # the image satisfies the original relation: flip(T_a)^2 = 1 + p_a(q) flip(T_a),
    # which works out because p_a(1/q) = -p_a(q)
    assert fa * fa == HeckeElement.one(fa.params) + params_quarter.p("a") * fa
    assert flipped.p("a") == -params_quarter.p("a")
    rng = np.random.default_rng(5)
    b = ball(diagram_a, 4)
    for _ in range(25):
        x = rand_element(params_quarter, b, rng)
        y = rand_element(params_quarter, b, rng)
        assert flip_parameters(x * y, eps) == flip_parameters(x, eps) * flip_parameters(y, eps)
    # involution via the opposite flip
    x = rand_element(params_quarter, b, rng)
    assert flip_parameters(flip_parameters(x, eps), eps) == x


def test_char_values(params_quarter, diagram_a):
    ta = HeckeElement.basis(params_quarter, "a")
    assert char_value(params_quarter, (1, 1, 1), ta) == Fraction(1, 2)
    assert char_value(params_quarter, (-1, 1, 1), ta) == -2
    assert char_value(params_quarter, (1, 1, 1), HeckeElement.one(params_quarter)) == 1
    rng = np.random.default_rng(7)
    b = ball(diagram_a, 4)
    from rahecke.growth import all_sign_patterns
    for eps in all_sign_patterns(3):
        for _ in range(8):
            x = rand_element(params_quarter, b, rng)
            y = rand_element(params_quarter, b, rng)
            assert char_value(params_quarter, eps, x * y) == \
                char_value(params_quarter, eps, x) * char_value(params_quarter, eps, y)
        # chi_{q_eps} = chi_{q', +} after the flip
        x = rand_element(params_quarter, b, rng)
        fx = flip_parameters(x, eps)
        assert char_value(params_quarter, eps, x) == \
            char_value(fx.params, (1, 1, 1), fx)
    # the hand identity eps q^{eps/2} - (eps q^{eps/2})^{-1} = p_s
    for eps_s in (1, -1):
        lam = params_quarter.char_gen("a", eps_s)
        assert lam - 1 / lam == params_quarter.p("a")


def test_central_projection(params_quarter):
    free3 = CoxeterDiagram(["a", "b", "c"])
    params = MultiParameter.exact_squares(free3, {s: Fraction(1, 4) for s in "abc"})
    e0 = central_projection_partial(params, (1, 1, 1), 0)
    assert e0.coeffs == {(): Fraction(2, 5)}
    for i in (0, 3, 7):
        ei = central_projection_partial(params, (1, 1, 1), i)
        assert ei.trace() == Fraction(2, 5)
    with pytest.raises(ValueError):
        central_projection_partial(params, (-1, -1, -1), 2)
    # partial sums differ exactly by the tail l2 mass
    e3 = central_projection_partial(params, (1, 1, 1), 3)
    e6 = central_projection_partial(params, (1, 1, 1), 6)
    diff_sq = (e6 - e3).norm2_sq()
    w = Fraction(5, 2)
    expect = sum(Fraction(3 * 2 ** (l - 1), 4 ** l) for l in range(4, 7)) / w ** 2
    assert diff_sq == expect


def test_central_projection_cauchy_bound():
    """||E^(j) - E^(i)||_2 <= (1/W) sum_{i<l<=j} sqrt(a_l(|q_eps|)), and the
    right side tends to zero."""
    import math
    free3 = CoxeterDiagram(["a", "b", "c"])
    params = MultiParameter.exact_squares(free3, {s: Fraction(1, 4) for s in "abc"})
    w = Fraction(5, 2)
    pairs = [(2, 5), (3, 9), (6, 10)]
    for i, j in pairs:
        ei = central_projection_partial(params, (1, 1, 1), i)
        ej = central_projection_partial(params, (1, 1, 1), j)
        lhs = math.sqrt(float((ej - ei).norm2_sq()))
        rhs = sum(
            math.sqrt(3 * 2 ** (l - 1) * 0.25 ** l) for l in range(i + 1, j + 1)
        ) / float(w)
        assert lhs <= rhs + 1e-12
    tail = [sum(math.sqrt(3 * 2 ** (l - 1) * 0.25 ** l)
                for l in range(i + 1, i + 200)) for i in (5, 15, 30)]
    assert tail[0] > tail[1] > tail[2]
    assert tail[2] < 1e-3


def test_cliq_decomposition(params_quarter, diagram_a):
    d = diagram_a
    assert cliq_decomposition(params_quarter, "") == [((), (), (), 1)]
    items = cliq_decomposition(params_quarter, "a")
    assert ((), (), ("a",), Fraction(1)) in items
    assert ((), ("a",), (), Fraction(-3, 2)) in items
    assert len(items) == 2
    items = cliq_decomposition(params_quarter, "ab")
    gammas = sorted(g for (_, g, _, _) in items)
    assert gammas == [(), ("a",), ("a", "b"), ("b",)]
    # every term recombines to w with additive lengths
    for wp, gamma, wpp, _ in cliq_decomposition(params_quarter, "abcb"):
        prod: tuple = wp
        for s in gamma:
            prod = d.multiply(prod, (s,))
        prod = d.multiply(prod, wpp)
        assert prod == d.normal_form("abcb")
        assert len(wp) + len(gamma) + len(wpp) == 4


def _nested_cliq_decomposition(params, w):
    """The clique decomposition as first written, on the word rule:
    candidates filtered by commutation, and a strip that may fail; the
    reference for the term order."""
    d = params.diagram
    word = _word_nf(d, w)
    out = []
    for wp in sorted(_word_prefixes(d, word), key=lambda u: (len(u), u)):
        u = _word_nf(d, wp[::-1] + word)
        rdesc_wp = set(_word_descents(d, wp[::-1]))

        def extend(gamma, cands):
            movers = [t for t in d.generators
                      if all(commutes(d, s, t) for s in gamma) and t not in gamma]
            if all(t not in rdesc_wp for t in movers):
                wpp, coeff = u, Fraction(1) if params.exact else 1.0
                for s in gamma:
                    wpp = _word_strip(d, s, wpp)
                    if wpp is None:
                        break
                    coeff = coeff * params.p(s)
                if wpp is not None:
                    out.append((wp, gamma, wpp, coeff))
            for i, s in enumerate(cands):
                extend(gamma + (s,), [t for t in cands[i + 1:] if commutes(d, s, t)])

        extend((), _word_descents(d, u))
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(diagrams(max_rank=5), st.booleans(), st.data())
def test_cliq_decomposition_matches_nested_filter(d, exact, data):
    """The same terms in the same order as the filtered nested recursion."""
    if exact:
        params = MultiParameter.from_roots(d, {s: data.draw(st.sampled_from(
            [Fraction(1), Fraction(1, 2), Fraction(3, 2)])) for s in d.generators})
    else:
        params = MultiParameter.floating(d, {s: 0.3 for s in d.generators})
    # ball order ends with the longest words; small draws count from there
    b = ball(d, 6)
    word = b.words[len(b) - 1 - data.draw(st.integers(0, len(b) - 1))]
    word += tuple(data.draw(st.lists(st.sampled_from(d.generators), max_size=2)))
    assert cliq_decomposition(params, word) == _nested_cliq_decomposition(params, word)


def test_parse_element_literal(params_quarter):
    x = parse_element_literal(params_quarter, "1*T(e) - 3/2*T(a)")
    ta = HeckeElement.basis(params_quarter, "a")
    assert x == ta * ta
    y = parse_element_literal(params_quarter, "-T(ab) + 2*T(c) - 1/3*T(e)")
    assert y.terms() == [((), Fraction(-1, 3)), (("c",), 2), (("a", "b"), -1)]
    with pytest.raises(ValueError):
        parse_element_literal(params_quarter, "2*S(a)")
    # a sign after a coefficient's exponent stays in its term; T(e) still splits
    tb = HeckeElement.basis(params_quarter, "b")
    assert parse_element_literal(params_quarter, "1e-3*T(a)") == Fraction(1, 1000) * ta
    assert parse_element_literal(params_quarter, "2.5E+2*T(b)-T(a)") == 250 * tb - ta
    assert parse_element_literal(params_quarter, "T(e)-T(a)") == \
        HeckeElement.one(params_quarter) - ta
    # a sign with no term after it: read as the zero element, or dropped
    for text in ("+", "-", "T(a)+", "T(a)--", "T(a) - "):
        with pytest.raises(ValueError, match="dangling sign"):
            parse_element_literal(params_quarter, text)


def test_associativity_big_sample(params_quarter, diagram_a):
    rng = np.random.default_rng(123)
    b = ball(diagram_a, 5)
    for _ in range(60):
        x = rand_element(params_quarter, b, rng)
        y = rand_element(params_quarter, b, rng)
        z = rand_element(params_quarter, b, rng)
        assert (x * y) * z == x * (y * z)


def _left_letter(params, s, state):
    """The one-letter rule on canonical words: the product's reference."""
    d = params.diagram
    p = params.p(s)
    out = {}
    for w, c in state.items():
        sw = d.normal_form((s,) + w)
        out[sw] = out.get(sw, 0) + c
        if len(sw) < len(w):  # s <= w
            if p != 0:
                out[w] = out.get(w, 0) + c * p
    return {w: c for w, c in out.items() if c != 0}


def _word_product(x, y):
    """x * y by the one-letter rule, over x and y keyed by canonical words
    in the order of their keys."""
    d = x.diagram
    total = {}
    for v, cv in x.coeffs.items():
        state = {d.heap_word(w): c for w, c in y.coeffs.items()}
        for s in reversed(d.heap_word(v)):
            state = _left_letter(x.params, s, state)
        for w, c in state.items():
            total[w] = total.get(w, 0) + cv * c
    return {w: c for w, c in total.items() if c != 0}


def _drawn_params(d, exact, data):
    """Exact roots give p_s with coprime denominators (p = -5/6 at 2/3, -24/35
    at 5/7) and p_s = 0 at the root 1."""
    if exact:
        roots = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2), Fraction(1, 3),
                 Fraction(2, 3), Fraction(5, 7)]
        return MultiParameter.from_roots(
            d, {s: data.draw(st.sampled_from(roots)) for s in d.generators})
    return MultiParameter.floating(
        d, {s: data.draw(st.sampled_from([0.3, 0.5, 1.0, 1.7, 2.5])) for s in d.generators})


def _drawn_element(params, data):
    words = st.lists(st.sampled_from(params.diagram.generators), max_size=6)
    out = HeckeElement.zero(params)
    for _ in range(data.draw(st.integers(1, 4))):
        c = Fraction(data.draw(st.integers(-5, 5)) or 1, data.draw(st.integers(1, 4)))
        out = out + (c if params.exact else float(c) * 1.1) * HeckeElement.basis(
            params, data.draw(words))
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(diagrams(max_rank=5), st.booleans(), st.data())
def test_product_matches_word_rule(d, exact, data):
    """The heap-layer product has the coefficients and the key order of the
    one-letter rule on canonical words, exactly in both modes."""
    params = _drawn_params(d, exact, data)
    x, y = _drawn_element(params, data), _drawn_element(params, data)
    assert [(d.heap_word(k), c) for k, c in (x * y).coeffs.items()] == \
        list(_word_product(x, y).items())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diagrams(max_rank=5), st.booleans(), st.data())
def test_inner_is_trace_of_product(d, exact, data):
    """<x, y> read off the coefficients is tau(y* x), exactly in exact mode."""
    params = _drawn_params(d, exact, data)
    x = _drawn_element(params, data)
    y = x if data.draw(st.booleans()) else _drawn_element(params, data)
    oracle = (adjoint(y) * x).trace()
    if exact:
        assert x.inner(y) == oracle
    else:
        assert x.inner(y) == pytest.approx(oracle, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diagrams(max_rank=5), st.booleans(), st.data())
def test_norm2_sq_is_sum_of_squares(d, exact, data):
    """Exact: the integer sum over one denominator is the Fraction sum of
    squares.  Float: the left-to-right sum of squares, bit for bit."""
    params = _drawn_params(d, exact, data)
    x = _drawn_element(params, data) * _drawn_element(params, data)
    acc = Fraction(0) if exact else 0.0
    for c in x.coeffs.values():
        acc = acc + c * c
    assert x.norm2_sq() == acc
    assert type(x.norm2_sq()) is type(acc)


def test_product_builds_no_ball(params_quarter, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Hecke product built a ball")

    monkeypatch.setattr(enumeration, "ball", refuse)
    monkeypatch.setattr(enumeration.Ball, "__init__", refuse)
    x = parse_element_literal(params_quarter, "T(e) - 3/2*T(acb) + T(cbca)")
    y = parse_element_literal(params_quarter, "2*T(bcac) + T(ca)")
    assert (x * y) * x == x * (y * x)


PENTAGON = CoxeterDiagram(list("abcde"), [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"],
                                          ["e", "a"]])


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("d", [CoxeterDiagram(["a", "b", "c"], [["a", "b"]]), PENTAGON],
                         ids=["A", "pentagon"])
def test_arithmetic_reads_no_words(monkeypatch, d, exact):
    """The algebra runs on heap keys: with the canonical-word conversions
    refusing, every operation gives what it gives with them."""
    q = dict(zip(d.generators, [Fraction(1, 4), Fraction(9), Fraction(4, 9), 1, Fraction(1, 9)]))
    params = (MultiParameter.exact_squares(d, q) if exact else
              MultiParameter.floating(d, {s: 1.7 + i for i, s in enumerate(d.generators)}))
    eps = (-1, 1, -1) + (1, -1)[:d.rank - 3]
    x = parse_element_literal(params, "T(e) - 3/2*T(acb) + T(cbca)")
    y = parse_element_literal(params, "2*T(bcac) + T(ca) - 1/3*T(b)")

    def run():
        z = (x + y) * (x - y) * x
        return [z, adjoint(z), z.trace(), x.inner(z), z.norm2_sq(),
                flip_parameters(z, eps), char_value(params, eps, z)]

    expected = run()

    def refuse(*args, **kwargs):
        raise AssertionError("Hecke arithmetic converted a heap to a word")

    for name in ("heap_word", "normal_form"):
        monkeypatch.setattr(CoxeterDiagram, name, refuse)
    assert run() == expected
