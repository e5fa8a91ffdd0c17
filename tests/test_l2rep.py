import hashlib
import math
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rahecke.coxeter import CoxeterDiagram
from rahecke import enumeration
from rahecke.enumeration import Ball, ball, connected_diagram_corpus
from rahecke.hecke import HeckeElement, MultiParameter, cliq_decomposition
from rahecke import l2rep
from test_coxeter import inverse
from test_enumeration import ball_index, diagrams, prefixes
from test_hecke import adjoint


def rep_hecke(a, b):
    """Columns of P_n a P_n for the left-regular action of ``a``, one per v
    in B_n: each term c T_w walked as its own op, which scales T_w by pd(w),
    without a cut on the ball of radius n + reach, reach the longest word of
    ``a``, which holds every term of the walk; then divided by pd(w), summed
    and cut to the rows of B_n, the first ``len(b)`` ids of that ball."""
    d, parts = a.diagram, a.params._p_parts
    reach = max((sum(map(int.bit_count, w)) for w in a.coeffs), default=0)
    walker = l2rep._Walker(ball(d, b.radius + reach))
    ops = [((parts, d.heap_letters(w)), c) for w, c in a.coeffs.items()]
    cols = []
    for v in range(len(b)):
        col = {}
        for op, c in ops:
            pd = l2rep._scale(op)
            for u, x in walker.column(op, v).items():
                if u < len(b):
                    col[u] = col.get(u, 0) + c * x / pd
        cols.append({u: x for u, x in col.items() if x})
    return cols


class Compression:
    """The reference algebra of the full-compression oracles: P_n X P_n as
    its sparse columns over a ball (``rep_hecke``'s output), with the entry
    sum, scaling and column product, each dropping zero entries as they
    arise."""

    def __init__(self, b, cols, exact=True):
        self.ball, self.cols, self.exact = b, cols, exact

    def __add__(self, other):
        cols = []
        for c1, c2 in zip(self.cols, other.cols):
            d = dict(c1)
            for r, val in c2.items():
                nv = d.get(r, 0) + val
                if nv == 0:
                    d.pop(r, None)
                else:
                    d[r] = nv
            cols.append(d)
        return Compression(self.ball, cols, self.exact and other.exact)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        return Compression(self.ball, [{r: c * v for r, v in col.items()}
                                       for col in self.cols], self.exact)

    def __matmul__(self, other):
        cols = []
        for col in other.cols:
            acc = {}
            for mid, v in col.items():
                for r, a in self.cols[mid].items():
                    nv = acc.get(r, 0) + a * v
                    if nv == 0:
                        acc.pop(r, None)
                    else:
                        acc[r] = nv
            cols.append(acc)
        return Compression(self.ball, cols, self.exact and other.exact)

    def to_dense(self):
        m = np.zeros((len(self.cols), len(self.cols)))
        for v, col in enumerate(self.cols):
            for r, val in col.items():
                m[r, v] = float(val)
        return m

    def max_abs_difference(self, other, max_col_length):
        """Largest |entry difference| over the columns delta_v with
        |v| <= max_col_length."""
        worst = Fraction(0) if (self.exact and other.exact) else 0.0
        for v in np.nonzero(self.ball.length <= max_col_length)[0].tolist():
            c1, c2 = self.cols[v], other.cols[v]
            for r in set(c1) | set(c2):
                worst = max(worst, abs(c1.get(r, 0) - c2.get(r, 0)))
        return worst


def rep(a, b):
    """``rep_hecke`` as a reference compression."""
    return Compression(b, rep_hecke(a, b), a.params.exact)


def rep_group_word(d, word, b):
    """The undeformed operator T_w (a permutation): ``rep_hecke`` at q == 1."""
    return rep(HeckeElement.basis(MultiParameter.one(d), word), b)


def proj_p(d, word, b):
    """The diagonal projection onto span{delta_v : word <= v}."""
    one, mask = Fraction(1), b.prefix_mask(d.normal_form(word))
    return Compression(b, [({v: one} if mask[v] else {}) for v in range(len(b))])


def zero_op(b, exact=True):
    """The zero compression on a ball."""
    return Compression(b, [dict() for _ in range(len(b))], exact)


def identity_op(b, exact=True):
    """The identity compression on a ball."""
    one = Fraction(1) if exact else 1.0
    return Compression(b, [{v: one} for v in range(len(b))], exact)


@pytest.fixture(scope="module")
def diagram_a():
    return CoxeterDiagram(["a", "b", "c"], [["a", "b"]])


@pytest.fixture(scope="module")
def params(diagram_a):
    return MultiParameter.exact_squares(diagram_a, {s: Fraction(1, 4) for s in "abc"})


@pytest.fixture(scope="module")
def b6(diagram_a):
    return ball(diagram_a, 6)


def test_rep_identity(params, b6):
    one = rep(HeckeElement.one(params), b6)
    assert one.max_abs_difference(identity_op(b6), 6) == 0


def test_rep_column_at_origin(params, b6):
    x = HeckeElement.basis(params, "ab") - Fraction(2, 3) * HeckeElement.basis(params, "cac")
    R = rep_hecke(x, b6)
    col = {b6.words[r]: v for r, v in R[0].items()}
    assert col == dict(x.terms())


def test_rep_single_generator_rule(params, b6):
    d = params.diagram
    R = rep_hecke(HeckeElement.basis(params, "a"), b6)
    p = params.p("a")
    index = ball_index(b6)
    for v in range(len(b6)):
        w = b6.words[v]
        target = d.multiply(("a",), w)
        expect = {}
        if len(target) <= 6:
            expect[index[target]] = Fraction(1)
        if d.starts_with(("a",), w):
            expect[v] = expect.get(v, 0) + p
        assert R[v] == expect


def test_rep_homomorphism(params, b6):
    rng = np.random.default_rng(2)
    words = [b6.words[v] for v in range(len(b6)) if b6.length[v] <= 2]
    for _ in range(10):
        x = HeckeElement.zero(params)
        y = HeckeElement.zero(params)
        for _ in range(2):
            x = x + Fraction(int(rng.integers(-4, 5)) or 1, 2) * \
                HeckeElement.basis(params, words[int(rng.integers(0, len(words)))])
            y = y + Fraction(int(rng.integers(-4, 5)) or 1, 3) * \
                HeckeElement.basis(params, words[int(rng.integers(0, len(words)))])
        lhs = rep(x, b6) @ rep(y, b6)
        rhs = rep(x * y, b6)
        # the product of compressions is exact where neither factor leaves B_6
        reach = sum(max((len(w) for w, _ in z.terms()), default=0) for z in (x, y))
        assert lhs.max_abs_difference(rhs, 6 - reach) == 0


SQUARES = [Fraction(1), Fraction(1, 4), Fraction(4), Fraction(9, 4), Fraction(1, 9)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diagrams(max_rank=4), st.data())
def test_id_columns_match_word_products(d, data):
    """Every column of ``rep_hecke`` is a * T_v cut to the ball, and every
    column at q == 1 is delta_{wv}, near the ball's edge too,
    where a term may leave the ball and come back.  Both sides run
    ``hecke.walk``, so this checks the ball's tables against ``heap_lmul``;
    ``test_hecke.test_product_matches_word_rule`` checks the rule itself."""
    n = data.draw(st.integers(1, 4))
    q = {s: data.draw(st.sampled_from(SQUARES)) for s in d.generators}
    params = MultiParameter.exact_squares(d, q)
    b, small = ball(d, n), ball(d, 3)
    a = HeckeElement.zero(params)
    for _ in range(data.draw(st.integers(1, 3))):
        w = small.words[data.draw(st.integers(0, len(small) - 1))]
        c = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
        a = a + c * HeckeElement.basis(params, w)
    word = data.draw(st.lists(st.sampled_from(d.generators), max_size=5))
    hecke_cols = rep_hecke(a, b)
    group_cols = rep_group_word(d, word, b).cols
    index = ball_index(b)
    for v in range(len(b)):
        image = a * HeckeElement.basis(params, b.words[v])
        assert hecke_cols[v] == {index[u]: c for u, c in image.terms()
                                 if len(u) <= n}
        target = d.multiply(word, b.words[v])
        assert group_cols[v] == ({index[target]: 1} if len(target) <= n else {})


def test_term_leaving_the_ball_comes_back():
    # ab lies outside B_1, but T_ab delta_a = delta_b + p_a delta_ab
    d = CoxeterDiagram(["a", "b"], [["a", "b"]])
    params = MultiParameter.exact_squares(d, {"a": Fraction(1, 4), "b": Fraction(4)})
    b1 = ball(d, 1)
    index = ball_index(b1)
    ia, ib = index[("a",)], index[("b",)]
    assert rep_hecke(HeckeElement.basis(params, "ab"), b1)[ia] == {ib: 1}
    assert rep_group_word(d, "ab", b1).cols[ia] == {ib: 1}


def test_walker_refuses_a_step_out_of_its_ball():
    # T_ab delta_a passes through ab, outside B_1: the walk on B_1 raises
    # rather than truncate a term that would come back
    d = CoxeterDiagram(["a", "b"], [["a", "b"]])
    params = MultiParameter.exact_squares(d, {"a": Fraction(1, 4), "b": Fraction(4)})
    b1, b2 = ball(d, 1), ball(d, 2)
    op = l2rep._basis_op(params, "ab")
    i1, i2 = ball_index(b1), ball_index(b2)
    with pytest.raises(ValueError, match="leaves the ball"):
        l2rep._Walker(b1).column(op, i1[("a",)])
    # the walk scales T_ab by pd(ab) = pd_a pd_b = 2 * 2, on integers
    pd = l2rep._scale(op)
    assert pd == 4
    assert l2rep._Walker(b2).column(op, i2[("a",)]) == {
        i2[("b",)]: pd, i2[("a", "b")]: pd * params.p("a")}


PENTAGON = CoxeterDiagram("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                                      ("e", "a")])


DIAGRAM_A, FREE3 = CoxeterDiagram("abc", [("a", "b")]), CoxeterDiagram("abc")
GRAM_Q = [Fraction(1, 4), Fraction(1, 9), Fraction(1), Fraction(4), Fraction(9, 4)]


def gram_compression(params, w, b):
    """``l2rep._gram`` as a reference compression: its columns over its
    denominator."""
    cols, den = l2rep._gram(params, w, b)
    return Compression(b, [{r: Fraction(x) / den for r, x in col.items()} for col in cols],
                       params.exact)


def gram_of_product(params, w, b):
    """P_n T_w* T_w P_n as the reference compression of the Hecke product."""
    a = HeckeElement.basis(params, w)
    return rep_hecke(adjoint(a) * a, b)


def components(m):
    """The components of the sparsity graph of the dense matrix ``m``, each
    as its ids in increasing order."""
    count, label = connected_components(sparse.csr_matrix(m != 0), directed=False)
    return [np.flatnonzero(label == k) for k in range(count)]


def block_windows(m):
    """The (min, max) eigenvalue of each diagonal block of ``m`` over the
    components of its sparsity graph."""
    return [(float(vals[0]), float(vals[-1]))
            for vals in (np.linalg.eigvalsh(m[np.ix_(ids, ids)]) for ids in components(m))]


def coset_rep(b, letters, v):
    """The shortest element of the coset W_J v, J = ``letters`` (generator
    indices): left descents in J stripped off one at a time."""
    while (s := next((s for s in letters if b.ldesc[s][v]), None)) is not None:
        v = int(b.lmul[s][v])
    return v


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(connected_diagram_corpus(4)), st.data())
def test_gram_is_the_compression_of_the_product(d, data):
    """On the rank <= 4 corpus at radius 2-6 (balls of at most 200 elements,
    so the reference walks stay small), for a reduced w of each length
    1 <= |w| <= n / 2 and q_s drawn from {1/4, 1/9, 1, 4, 9/4}: the exact
    Gram built from the columns of T_w P_n equals the compression of the
    product T_w* T_w entry for entry; no Gram column leaves the coset
    W_J v of its own element v, J the letters of w, so the Gram is block
    diagonal over those cosets; the block-by-block window is within
    1e-13 * hi of the spectrum of the whole-ball matrix; and at q = 1/4 the
    window of float parameters equals the exact one within 1e-12 relative."""
    n = data.draw(st.sampled_from([n for n in range(6, 1, -1) if len(ball(d, n)) <= 200]))
    b = ball(d, n)
    params = MultiParameter.exact_squares(
        d, {s: data.draw(st.sampled_from(GRAM_Q)) for s in d.generators})
    quarter = MultiParameter.exact_squares(d, {s: Fraction(1, 4) for s in d.generators})
    floating = MultiParameter.floating(d, {s: 0.25 for s in d.generators})
    for length in range(1, n // 2 + 1):
        if not b.sphere_sizes()[length]:
            break
        w = b.words[data.draw(st.integers(b.sphere_start[length], b.sphere_start[length + 1] - 1))]
        gram = gram_compression(params, w, b)
        assert [{r: x for r, x in col.items() if x} for col in gram.cols] == \
            gram_of_product(params, w, b)
        letters = {d.gen_index(s) for s in w}
        assert all(coset_rep(b, letters, r) == coset_rep(b, letters, v)
                   for v, col in enumerate(gram.cols) for r in col)
        vals = np.linalg.eigvalsh(gram.to_dense())
        lo, hi = vals[0], vals[-1]
        window = l2rep.positivity_window(params, w, n)
        assert abs(window[0] - lo) <= 1e-13 * hi and abs(window[1] - hi) <= 1e-13 * hi
        exact = l2rep.positivity_window(quarter, w, n)
        assert all(abs(f - e) <= 1e-12 * e
                   for f, e in zip(l2rep.positivity_window(floating, w, n), exact))


@pytest.mark.parametrize("d,n,word", [(DIAGRAM_A, 6, "abc"), (PENTAGON, 4, "ac"),
                                      (FREE3, 6, "aba")], ids=["A", "pentagon", "free3"])
def test_gram_walks_the_ball_of_radius_n_plus_len_w(d, n, word):
    """The columns of T_w P_n walk on B_{n+|w|}, which holds each of their
    terms; on B_{n+|w|-1} a step leaves the ball, and the walk raises rather
    than cut a term."""
    params = MultiParameter.exact_squares(d, {s: Fraction(1, 4) for s in d.generators})
    b, w = ball(d, n), d.normal_form(word)
    with mock.patch.object(l2rep, "ball", wraps=l2rep.ball) as built:
        l2rep._gram(params, w, b)
    assert built.call_args.args == (d, n + len(w))
    with mock.patch.object(l2rep, "ball", lambda d, radius: ball(d, radius - 1)):
        with pytest.raises(ValueError, match="leaves the ball"):
            l2rep._gram(params, w, b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(connected_diagram_corpus(4)), st.data())
def test_gram_is_symmetric_as_built(d, data):
    """Each pair of columns that share a row of X adds one product to both
    mirror entries, so the Gram is symmetric bit for bit, in exact mode and
    in float mode at q_s that are not squares of rationals: the window's
    eigensolver reads one triangle of it, unsymmetrized.  On the rank <= 4
    corpus at radius 2-6 (at most 200 elements), for a reduced w with
    1 <= |w| <= n / 2, the dense Gram equals its transpose bit for bit."""
    n = data.draw(st.sampled_from([n for n in range(6, 1, -1) if len(ball(d, n)) <= 200]))
    b = ball(d, n)
    w = b.words[data.draw(st.integers(b.sphere_start[1], b.sphere_start[n // 2 + 1] - 1))]
    exact = MultiParameter.exact_squares(
        d, {s: data.draw(st.sampled_from(GRAM_Q)) for s in d.generators})
    floating = MultiParameter.floating(
        d, {s: data.draw(st.sampled_from([2.0, 3.0, 0.5, 5 / 3, 7.0, 0.7])) for s in d.generators})
    for params in (exact, floating):
        bits = gram_compression(params, w, b).to_dense().view(np.uint64)
        assert (bits == bits.T).all()


@pytest.mark.parametrize("d,n,word,q", [(DIAGRAM_A, 6, "abc", 2.0), (PENTAGON, 5, "acb", 0.7)],
                         ids=["A", "pentagon"])
def test_float_gram_is_symmetric_as_built(d, n, word, q):
    """The float Gram is symmetric bit for bit, also on the rank-5 pentagon
    that the corpus of ``test_gram_is_symmetric_as_built`` does not reach;
    it has every diagonal entry ||T_w delta_v||^2 and agrees with the
    compression of the float product within 1e-12 relative."""
    params = MultiParameter.floating(d, {s: q for s in d.generators})
    b, w = ball(d, n), d.normal_form(word)
    m = gram_compression(params, w, b).to_dense()
    bits = m.view(np.uint64)
    assert (bits == bits.T).all() and (m.diagonal() > 0).all()
    ref = Compression(b, gram_of_product(params, w, b), False).to_dense()
    assert _relative(m, ref) <= 1e-12


@pytest.mark.parametrize("d,n,word,q", [
    (DIAGRAM_A, 4, "a", Fraction(1, 4)), (DIAGRAM_A, 6, "abc", Fraction(1, 4)),
    (DIAGRAM_A, 6, "bc", Fraction(1, 9)), (PENTAGON, 4, "ac", Fraction(9, 4)),
    (FREE3, 6, "aba", Fraction(4)),
], ids=["A-a", "A-abc", "A-bc", "pentagon-ac", "free3-aba"])
def test_exact_window_is_that_of_the_product(d, n, word, q):
    """In exact mode the window is, bit for bit, the least and the largest
    end of the spectra of the diagonal blocks of the compression of the
    Hecke product T_w* T_w, over the components of its sparsity graph: the
    two matrices are equal as ``Fraction`` entries, so their floats and
    their components are too."""
    params = MultiParameter.exact_squares(d, {s: q for s in d.generators})
    b = ball(d, n)
    ref = Compression(b, gram_of_product(params, d.normal_form(word), b)).to_dense()
    windows = block_windows(ref)
    assert len(windows) > 1
    assert l2rep.positivity_window(params, word, n) == \
        (min(lo for lo, _ in windows), max(hi for _, hi in windows))


def test_exact_paths_build_no_words(params, diagram_a):
    """No exact path reads word tuples, on the ball it is given or on the
    larger ball that the positivity window walks on."""
    b = Ball(diagram_a, 6)
    with mock.patch.dict(enumeration._BALL_CACHE, clear=True):
        l2rep.verify_action_sweep(diagram_a, b, 7)
        l2rep.verify_cliq_sweep(params, b)
        l2rep.verify_cliq_identity(params, "acb", b)
        l2rep.verify_remark22(params, "a", "c", b)
        l2rep.verify_corollary_split(params, ("a", "c", "b", "c"), 1, b)
        l2rep.q_operator(diagram_a, "a", Fraction(1, 2), b, 5)
        l2rep.verify_action_case(diagram_a, "a", "cb", b)
        l2rep.positivity_window(params, "ac", 6)
        used = [b, *enumeration._BALL_CACHE.values()]
    assert len(used) > 1
    assert all("words" not in x.__dict__ for x in used)


def test_proj_examples(diagram_a, b6):
    d = diagram_a
    pe = proj_p(d, (), b6)
    assert pe.max_abs_difference(identity_op(b6), 6) == 0
    pa = proj_p(d, "a", b6)
    index = ball_index(b6)
    iab, ib = index[("a", "b")], index[("b",)]
    assert pa.cols[iab] == {iab: 1}
    assert pa.cols[ib] == {}


def test_proj_join_rule(diagram_a, b6):
    d = diagram_a
    pa = proj_p(d, "a", b6)
    pb = proj_p(d, "b", b6)
    pc = proj_p(d, "c", b6)
    pab = proj_p(d, "ab", b6)
    assert (pa @ pb).max_abs_difference(pab, 6) == 0
    assert (pa @ pc).max_abs_difference(zero_op(b6), 6) == 0


def test_action_cases(diagram_a, b6):
    for s, w, expect_case in [("a", "c", 1), ("a", "ab", 2), ("a", "b", 3)]:
        case, res = l2rep.verify_action_case(diagram_a, s, w, b6)
        assert case == expect_case and res == 0
    # |w| <= 2: s centralizes w for w in {e, a, b, ab} (s = a, b) and
    # w in {e, c} (s = c); s <= w splits them into cases 2 and 3
    assert l2rep.verify_action_sweep(diagram_a, b6, 2) == ({1: 17, 2: 5, 3: 5}, 0)
    # at radius 0 no column has s*v inside the ball, so nothing is compared
    with pytest.raises(ValueError, match="ball too small"):
        l2rep.verify_action_sweep(diagram_a, ball(diagram_a, 0), 0)
    # a negative max_length would compare nothing; 0 checks the pairs at w = e
    with pytest.raises(ValueError, match="max_length must be >= 0"):
        l2rep.verify_action_sweep(diagram_a, b6, -1)
    assert l2rep.verify_action_sweep(diagram_a, b6, 0) == ({1: 0, 2: 0, 3: 3}, 0)


def _action_pair(d, s, w, b):
    """(case, residual) of the conjugation rule for one pair (s, w) on word
    tuples and whole-ball prefix masks: the per-pair check the sweep
    replaced, compared on |v| <= n - 1."""
    wnf = d.normal_form(w)
    sw = d.multiply((s,), wnf)
    mask_w = b.prefix_mask(wnf)
    sv = b.lmul[d.gen_index(s)]
    lhs = np.where(sv >= 0, mask_w[np.where(sv >= 0, sv, 0)], False).astype(np.int64)
    pw = mask_w.astype(np.int64)
    psw = b.prefix_mask(sw).astype(np.int64)
    if d.centralizes(s, wnf):
        if d.starts_with((s,), wnf):
            case, rhs = 2, psw - pw
        else:
            case, rhs = 3, pw
    else:
        case, rhs = 1, psw
    return case, int(np.abs((lhs - rhs)[b.length <= b.radius - 1]).max())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diagrams(max_rank=4), st.integers(1, 5), st.data())
def test_action_sweep_matches_pairs(d, n, data):
    """The sweep on ids gives the case counts and violations of the per-pair
    check, the last sphere included (there lmul and rmul both read -1)."""
    max_length = data.draw(st.integers(0, n + 1))
    b = ball(d, n)
    cases, bad = {1: 0, 2: 0, 3: 0}, 0
    for v in range(len(b)):
        if b.length[v] > max_length:
            break
        for s in d.generators:
            case, res = _action_pair(d, s, b.words[v], b)
            cases[case] += 1
            bad += res != 0
    assert l2rep.verify_action_sweep(d, b, max_length) == (cases, bad)


def test_remark22(params, b6):
    r1, r2 = l2rep.verify_remark22(params, "a", "c", b6)
    assert r1 == 0 and r2 == 0
    with pytest.raises(ValueError):
        l2rep.verify_remark22(params, "a", "ab", b6)  # a <= ab: wrong hypotheses


def test_cliq_identity(params, diagram_a):
    b8 = ball(diagram_a, 8)
    for w in ("a", "ab", "abc", "acbc", "abcbca"):
        assert l2rep.verify_cliq_identity(params, w, b8) == 0
    mixed = MultiParameter.exact_squares(
        diagram_a, {"a": Fraction(1, 4), "b": Fraction(4), "c": Fraction(9)})
    for w in ("ab", "acb"):
        assert l2rep.verify_cliq_identity(mixed, w, b8) == 0


@pytest.mark.parametrize("n", [0, 1])
def test_empty_domain_is_refused(params, diagram_a, n):
    # T_s X T_s is exact on |v| <= n - 2, which holds no column here
    b = ball(diagram_a, n)
    with pytest.raises(ValueError, match="ball too small"):
        l2rep.verify_remark22(params, "a", "cb", b)
    with pytest.raises(ValueError, match="ball too small"):
        l2rep.verify_action_case(diagram_a, "a", "cb", b)


# The identity suites as the products of full compressions they replace,
# compared on the same columns (Remark 2.2's second identity on |v| <= n - 2).


def _full_remark22(params, s, w, b):
    d = params.diagram
    ts = rep(HeckeElement.basis(params, (s,)), b)
    ps = proj_p(d, (s,), b)
    ident = identity_op(b, exact=params.exact)
    sw = d.multiply((s,), d.normal_form(w))
    return ((ts @ (ident - ps) @ ts).max_abs_difference(ps, b.radius - 2),
            (ts @ proj_p(d, w, b) @ ts).max_abs_difference(
                proj_p(d, sw, b), b.radius - 2))


def _full_cliq(params, w, b):
    d = params.diagram
    wnf = d.normal_form(w)
    lhs = rep(HeckeElement.basis(params, wnf), b)
    rhs = zero_op(b, exact=params.exact)
    for wp, gamma, wpp, coeff in l2rep.cliq_decomposition(params, wnf):
        term = (rep_group_word(d, wp, b) @ proj_p(d, d.normal_form(gamma), b)
                @ rep_group_word(d, wpp, b))
        rhs = rhs + term.scaled(coeff)
    return lhs.max_abs_difference(rhs, b.radius - len(wnf))


def _full_corollary(params, g, power, b):
    d = params.diagram
    letters = tuple(g) * power
    lhs = rep(HeckeElement.basis(params, letters), b)
    x = zero_op(b, exact=params.exact)
    for i, t in enumerate(letters):
        if params.p(t) != 0:
            term = (proj_p(d, letters[:i + 1], b)
                    @ rep_group_word(d, letters[:i] + letters[i + 1:], b))
            x = x + term.scaled(params.p(t))
    rhs = rep_group_word(d, letters, b) + proj_p(d, letters[:1], b) @ x
    return lhs.max_abs_difference(rhs, b.radius - len(letters) - 1)


def _full_action_case(d, s, w, b):
    """``verify_action_case`` as the product of full compressions it
    replaced: (case, residual of T_s P_w T_s against the case's projections
    on |v| <= n - 2)."""
    wnf = d.normal_form(w)
    ts, pw = rep_group_word(d, (s,), b), proj_p(d, wnf, b)
    psw = proj_p(d, d.multiply((s,), wnf), b)
    if not d.centralizes(s, wnf):
        case, rhs = 1, psw
    elif d.starts_with((s,), wnf):
        case, rhs = 2, psw - pw
    else:
        case, rhs = 3, pw
    return case, (ts @ pw @ ts).max_abs_difference(rhs, b.radius - 2)


def test_action_case_matches_full_compressions():
    """Every s and every w with |w| <= 2 on the balls of radius 2 to 4 of
    the rank <= 4 corpus: the walked case equals the full-compression one
    in case, residual and residual type."""
    pairs = 0
    for d in connected_diagram_corpus(4):
        for n in (2, 3, 4):
            b = ball(d, n)
            for v in range(b.sphere_start[min(n, 2) + 1]):
                for s in d.generators:
                    case, res = l2rep.verify_action_case(d, s, b.words[v], b)
                    full = _full_action_case(d, s, b.words[v], b)
                    assert (case, res) == full and type(res) is type(full[1])
                    assert res == 0
                    pairs += 1
    assert pairs == 1299


def test_action_case_sees_a_wrong_walk(diagram_a, b6, monkeypatch):
    """With T_s walked as T_e, T_s P_w T_s is P_w, so case 1 (P_sw) shows a
    residual that the full compressions do not."""
    group_op = l2rep._group_op
    monkeypatch.setattr(l2rep, "_group_op", lambda d, word: group_op(d, ()))
    case, res = l2rep.verify_action_case(diagram_a, "a", "c", b6)
    assert case == 1 and res == 1
    assert _full_action_case(diagram_a, "a", "c", b6) == (1, 0)


def _scale_one_term(params, w):
    """cliq_decomposition with one coefficient doubled: a wrong identity."""
    terms = cliq_decomposition(params, w)
    wp, gamma, wpp, coeff = terms[-1]
    return terms[:-1] + [(wp, gamma, wpp, 2 * coeff)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(diagrams(max_rank=4), st.data())
def test_suites_match_full_compressions(d, data):
    """Each suite's residual equals the one of its full-matrix formula, also
    under a broken clique decomposition."""
    n = data.draw(st.integers(2, 4))
    params = MultiParameter.exact_squares(
        d, {s: data.draw(st.sampled_from(SQUARES)) for s in d.generators})
    b, small = ball(d, n), ball(d, 3)
    w = small.words[data.draw(st.integers(0, len(small) - 1))]
    s = data.draw(st.sampled_from(d.generators))
    if len(w) + 2 <= n:
        decomposition = _scale_one_term if data.draw(st.booleans()) else cliq_decomposition
        with mock.patch.object(l2rep, "cliq_decomposition", decomposition):
            assert l2rep.verify_cliq_identity(params, w, b) == _full_cliq(params, w, b)
    if not (d.centralizes(s, w) or d.starts_with((s,), w)):
        assert l2rep.verify_remark22(params, s, w, b) == _full_remark22(params, s, w, b)
    if w and len(w) + 2 <= n:
        assert l2rep.verify_corollary_split(params, w, 1, b) == \
            (_full_corollary(params, w, 1, b), sum(params.p(t) != 0 for t in w))


@pytest.mark.parametrize("power,n", [(1, 6), (2, 10)])
def test_corollary_matches_full_compressions(diagram_a, power, n):
    g = ("a", "c", "b", "c")
    q = {"a": Fraction(1, 4), "b": Fraction(1, 9), "c": Fraction(4)}
    params = MultiParameter.exact_squares(diagram_a, q)
    res, terms = l2rep.verify_corollary_split(params, g, power, ball(diagram_a, n))
    assert terms == 4 * power
    assert res == _full_corollary(params, g, power, ball(diagram_a, n))


def test_suites_refuse_float_parameters(diagram_a):
    """The identity suites compare on integers and take exact parameters
    only: each refuses float parameters before it walks."""
    floating = MultiParameter.floating(diagram_a, {s: 0.25 for s in "abc"})
    b = ball(diagram_a, 6)
    with mock.patch.object(l2rep, "walk") as walked:
        for suite in (lambda: l2rep.verify_remark22(floating, "a", "c", b),
                      lambda: l2rep.verify_cliq_identity(floating, "acb", b),
                      lambda: l2rep.verify_cliq_sweep(floating, b),
                      lambda: l2rep.verify_corollary_split(floating, "acbc", 1, b)):
            with pytest.raises(ValueError, match="need exact parameters"):
                suite()
        walked.assert_not_called()


def test_broken_decomposition_residual(diagram_a, monkeypatch):
    q = {"a": Fraction(1, 4), "b": Fraction(4), "c": Fraction(9)}
    params = MultiParameter.exact_squares(diagram_a, q)
    monkeypatch.setattr(l2rep, "cliq_decomposition", _scale_one_term)
    b = ball(diagram_a, 6)
    for w in ("ab", "acb"):
        res = l2rep.verify_cliq_identity(params, w, b)
        assert res != 0 and res == _full_cliq(params, w, b)


def test_cliq_walks_only_domain_columns(monkeypatch):
    """On the radius-9 pentagon ball (20,901 elements) with |w| = 7 the
    residual is taken on |v| <= 2: T_w is walked on exactly those columns,
    and each term of the decomposition adds at most two walks per column."""
    d = CoxeterDiagram(list("abcde"), [["a", "b"], ["b", "c"], ["c", "d"],
                                       ["d", "e"], ["e", "a"]])
    params = MultiParameter.exact_squares(d, {s: Fraction(1, 4) for s in d.generators})
    b = ball(d, 9)
    w = b.words[b.sphere_start[7]]
    walked = []
    column = l2rep._Walker.column

    def counting(self, op, v):
        walked.append((op, v))
        return column(self, op, v)

    monkeypatch.setattr(l2rep._Walker, "column", counting)
    assert l2rep.verify_cliq_identity(params, w, b) == 0
    domain = range(b.sphere_start[3])
    lhs = l2rep._basis_op(params, w)
    assert sorted(v for op, v in walked if op == lhs) == list(domain)
    assert len(walked) <= len(domain) * (1 + 2 * len(cliq_decomposition(params, w)))


@pytest.mark.parametrize("broken", [False, True])
def test_cliq_sweep_matches_words(diagram_a, broken, monkeypatch):
    """The sweep equals the per-word loop over |w| <= n - 2, also under a
    broken clique decomposition, where the residuals are nonzero."""
    params = MultiParameter.exact_squares(
        diagram_a, {"a": Fraction(1, 4), "b": Fraction(4), "c": Fraction(9)})
    if broken:
        monkeypatch.setattr(l2rep, "cliq_decomposition", _scale_one_term)
    b = ball(diagram_a, 6)
    words = [w for w in b.words if len(w) <= 4]
    worst = max(l2rep.verify_cliq_identity(params, w, b) for w in words)
    assert (worst != 0) == broken
    assert l2rep.verify_cliq_sweep(params, b) == (len(words), worst)
    with pytest.raises(ValueError, match="ball too small"):
        l2rep.verify_cliq_sweep(params, ball(diagram_a, 1))


def test_corollary_split(params, diagram_a):
    g = ("a", "c", "b", "c")
    res, terms = l2rep.verify_corollary_split(params, g, 1, ball(diagram_a, 6))
    assert res == 0 and terms == 4
    with pytest.raises(ValueError):
        l2rep.verify_corollary_split(params, g, 1, ball(diagram_a, 4))
    for power in (0, -2):
        with pytest.raises(ValueError, match="power must be >= 1"):
            l2rep.verify_corollary_split(params, g, power, ball(diagram_a, 6))


def test_q_operator(diagram_a):
    b5 = ball(diagram_a, 5)
    d1, tail, omega = l2rep.q_operator(diagram_a, (), Fraction(1, 2), b5, 4)
    assert len(d1) == len(b5)
    assert d1[0] == 1
    assert d1[ball_index(b5)[("a",)]] == Fraction(3, 2)
    # (1 - 1/2)^-2 - sum_{l <= 4} (l + 1) / 2^l
    assert omega == 2 and tail == 0.4375
    d2, tail5, _ = l2rep.q_operator(diagram_a, (), Fraction(1, 2), b5, 5)
    assert tail5 == 0.25
    assert all(y >= x for x, y in zip(d1, d2))
    with pytest.raises(ValueError):
        l2rep.q_operator(diagram_a, (), Fraction(3, 2), b5, 4)
    for cutoff in (-1, -3):
        with pytest.raises(ValueError, match="cutoff must be >= 0"):
            l2rep.q_operator(diagram_a, (), Fraction(1, 2), b5, cutoff)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(diagrams(), st.integers(0, 4), st.integers(0, 5), st.data())
def test_q_operator_matches_prefix_sums(d, radius, cutoff, data):
    """Each diagonal entry is the sum of q^|p| over the prefixes p <= v with
    u <= p^-1 and |p| <= cutoff, and the tail bounds what the ball shows of
    the rest: sum_{cutoff < l <= radius} q^l kappa_v(l) at every v."""
    b = ball(d, radius)
    u = data.draw(st.sampled_from(ball(d, 2).words))
    den = data.draw(st.integers(2, 9))
    q = Fraction(data.draw(st.integers(1, den - 1)), den)
    diag, tail, omega = l2rep.q_operator(d, u, q, b, cutoff)
    for v, w in enumerate(b.words):
        pre = prefixes(d, w)
        assert diag[v] == sum((q ** len(p) for p in pre
                               if len(p) <= cutoff and d.starts_with(u, inverse(d, p))),
                              Fraction(0))
        assert sum((q ** len(p) for p in pre if len(p) > cutoff), Fraction(0)) <= tail


def op_norm(x: Compression) -> float:
    """Norm of the compression matrix, a certified lower bound on the
    operator norm (dense; balls above DENSE_LIMIT are refused)."""
    if len(x.cols) > l2rep.DENSE_LIMIT:
        raise ValueError("ball too large for a dense norm")
    return float(np.linalg.norm(x.to_dense(), 2))


def test_spectrum_single_generator():
    single = CoxeterDiagram(["a"])
    params = MultiParameter.exact_squares(single, {"a": Fraction(1, 4)})
    b = ball(single, 1)
    ta = rep(HeckeElement.basis(params, "a"), b)
    vals = np.linalg.eigvalsh(ta.to_dense())
    lo, hi = vals[0], vals[-1]
    assert abs(lo + 2) < 1e-12 and abs(hi - 0.5) < 1e-12
    assert abs(op_norm(ta) - 2) < 1e-9


def test_dense_limit_refused():
    free3 = CoxeterDiagram(["a", "b", "c"])
    big = ball(free3, 11)
    assert len(big) > l2rep.DENSE_LIMIT
    ident = identity_op(big)
    with pytest.raises(ValueError):
        op_norm(ident)


def test_positivity_window_runs_on_a_ball_above_the_dense_limit():
    """DENSE_LIMIT bounds one block of the Gram, not the ball: on free3 at
    radius 11, a ball above the limit, the window of T_a is [q, 1/q]."""
    free3 = CoxeterDiagram(["a", "b", "c"])
    params = MultiParameter.exact_squares(free3, {s: Fraction(1, 4) for s in "abc"})
    assert len(ball(free3, 11)) > l2rep.DENSE_LIMIT
    lo, hi = l2rep.positivity_window(params, "a", 11)
    assert abs(lo - 0.25) < 1e-9 and abs(hi - 4) < 1e-9


def test_positivity_window_refuses_a_block_before_building_it():
    """A block above DENSE_LIMIT is refused before its dense matrix is
    built: at the size of the largest block every block reaches the
    eigensolver, and one below, none does."""
    params = MultiParameter.exact_squares(FREE3, {s: Fraction(1, 4) for s in "abc"})
    b = ball(FREE3, 6)
    blocks = components(gram_compression(params, ("a", "b"), b).to_dense())
    limit = max(map(len, blocks))
    with mock.patch.object(l2rep.np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spectrum:
        with mock.patch.object(l2rep, "DENSE_LIMIT", limit):
            l2rep.positivity_window(params, "ab", 6)
        assert sorted(len(c.args[0]) for c in spectrum.call_args_list) == \
            sorted(map(len, blocks))
        spectrum.reset_mock()
        with mock.patch.object(l2rep, "DENSE_LIMIT", limit - 1), \
                pytest.raises(ValueError, match="block too large"):
            l2rep.positivity_window(params, "ab", 6)
        spectrum.assert_not_called()


def test_positivity_window_refuses_float_certification_first(diagram_a):
    """Exact certification of float parameters is refused before the Gram
    matrix is built or its spectrum taken."""
    floating = MultiParameter.floating(diagram_a, {s: 0.25 for s in "abc"})
    with mock.patch.object(l2rep, "_gram", wraps=l2rep._gram) as built, \
            mock.patch.object(l2rep.np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spectrum:
        with pytest.raises(ValueError, match="needs exact parameters"):
            l2rep.positivity_window(floating, "a", 4, certify_exact=True)
        built.assert_not_called()
        spectrum.assert_not_called()
        l2rep.positivity_window(floating, "a", 4)
        built.assert_called_once()


def test_op_norm_monotone_in_radius(params, diagram_a):
    a = HeckeElement.basis(params, "ac")
    norms = [op_norm(rep(a, ball(diagram_a, n))) for n in (3, 4, 5, 6)]
    for x, y in zip(norms, norms[1:]):
        assert y >= x - 1e-9


def test_positivity_window(params, diagram_a):
    lo, hi = l2rep.positivity_window(params, "a", 4, certify_exact=True)
    assert abs(lo - 0.25) < 1e-9 and abs(hi - 4.0) < 1e-9
    lo, hi = l2rep.positivity_window(params, "ac", 6)
    assert lo >= 1 / 16 - 1e-9 and hi <= 16 + 1e-9
    one = MultiParameter.one(diagram_a)
    lo, hi = l2rep.positivity_window(one, "ab", 6)
    assert abs(lo - 1) < 1e-9 and abs(hi - 1) < 1e-9
    with pytest.raises(ValueError):
        l2rep.positivity_window(params, "abca", 4)


@pytest.mark.parametrize("q", [Fraction(1, 10**4), Fraction(1, 10**6), Fraction(10**6)],
                         ids=["1e-4", "1e-6", "1e6"])
def test_positivity_window_certifies_far_from_q_1(diagram_a, q):
    """Far from q = 1 the bounds of T_abc are [q^3, q^-3] or its mirror, as
    wide as [1e-18, 1e18]: the float ends pass them by at most DENSE_TOL
    times the upper bound, and the exact certificate, at zero tolerance,
    holds."""
    params = MultiParameter.exact_squares(diagram_a, {s: q for s in "abc"})
    hi_bound = float(max(q, 1 / q)) ** 3
    lo, hi = l2rep.positivity_window(params, "abc", 6, certify_exact=True)
    tol = l2rep.DENSE_TOL * hi_bound
    assert 1 / hi_bound - tol <= lo <= hi <= hi_bound + tol


def test_positivity_window_tolerance_is_relative_to_the_upper_bound(params):
    """A float end may pass its bound by DENSE_TOL times the upper bound and
    no more: with an eigensolver whose ends lie past a bound by twice that,
    the call is refused, and half of it is accepted (a margin that an
    absolute DENSE_TOL would refuse, since the upper bound is 64)."""
    lo_bound, hi_bound = 1 / 64, 64.0  # T_abc at q = 1/4
    tol = l2rep.DENSE_TOL * hi_bound
    for ends in [(lo_bound, hi_bound + 2 * tol), (lo_bound - 2 * tol, hi_bound)]:
        with mock.patch.object(l2rep.np.linalg, "eigvalsh", return_value=np.array(ends)), \
                pytest.raises(AssertionError, match="window violated"):
            l2rep.positivity_window(params, "abc", 6)
    ends = (lo_bound - tol / 2, hi_bound + tol / 2)
    assert tol / 2 > l2rep.DENSE_TOL
    with mock.patch.object(l2rep.np.linalg, "eigvalsh", return_value=np.array(ends)):
        assert l2rep.positivity_window(params, "abc", 6) == ends


def test_exact_psd():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    assert l2rep.exact_psd(a)
    b = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]
    assert not l2rep.exact_psd(b)
    c = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert l2rep.exact_psd(c)
    d = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert not l2rep.exact_psd(d)


def test_haagerup_single_letter(diagram_a):
    # x = T_a at q = 1/4: ||x|| = 2, ||x||_2 = 1, l = 1
    (out,) = l2rep.haagerup_ratio(diagram_a, 0.25, 1, 6, 1, seed=0, iters=40)
    # the sample is a random combination of the three letters; the triangle
    # inequality bounds the ratio by max ||T_s|| * sqrt(3) = 2 sqrt(3)
    assert 0 < out["max_ratio"] <= 2 * math.sqrt(3) + 1e-6
    b = ball(diagram_a, 6)
    pattern = _pattern(b, (0.25 - 1) / 0.5, 1)
    onehot = np.zeros((b.sphere_sizes()[1], 1))
    onehot[ball_index(b)[("a",)] - b.sphere_start[1]] = 1.0
    norm = l2rep.sphere_operator_norms(pattern, onehot, iters=60)[0]
    assert abs(norm - 2.0) < 1e-3


def test_haagerup_builds_no_words():
    d = CoxeterDiagram(["h1", "h2", "h3", "h4"], [["h1", "h3"]])
    l2rep.haagerup_ratio(d, 0.5, 2, 5, 3)
    assert "words" not in ball(d, 5).__dict__


@pytest.mark.parametrize("q,l,trials,iters,message", [
    (0.5, 0, 1, 8, "l must be >= 1"),
    (0.5, 1, 0, 8, "trials must be >= 1"),
    (0.5, 1, -1, 8, "trials must be >= 1"),
    (0.5, 2, 3, 0, "iters must be >= 1"),
    (math.nan, 1, 1, 8, "q must be positive and finite"),
    (math.inf, 1, 1, 8, "q must be positive and finite"),
], ids=["l-0", "trials-0", "trials-negative", "iters-0", "q-nan", "q-inf"])
def test_haagerup_refuses_bad_arguments(diagram_a, q, l, trials, iters, message):
    """Each refusal comes before any ball is built; at iters = 0 the ratios
    were a vacuous 0.0, at an infinite or nan q they were nan."""
    with mock.patch.object(l2rep, "ball") as built:
        with pytest.raises(ValueError, match=message):
            l2rep.haagerup_ratio(diagram_a, q, l, 6, trials, iters=iters)
    built.assert_not_called()


def test_power_iteration_refuses_no_iterations(diagram_a):
    pattern = _pattern(ball(diagram_a, 5), 0.5, 1)
    with pytest.raises(ValueError, match="iters must be >= 1"):
        l2rep.sphere_operator_norms(pattern, np.ones((3, 2)), iters=0)


def test_sphere_pattern_refuses_an_empty_sphere():
    """The radius and the max_length-sphere are checked before any pattern
    is built."""
    d = CoxeterDiagram(["a", "b"], [["a", "b"]])  # four elements, spheres 1, 2, 1
    with mock.patch.object(l2rep, "sphere_patterns") as built:
        with pytest.raises(ValueError, match="need a nonempty sphere"):
            l2rep.haagerup_ratio(d, 0.5, 3, 5, 2)
        with pytest.raises(ValueError, match=r"need n >= l \+ 2"):
            l2rep.haagerup_ratio(d, 0.5, 4, 5, 2)
    built.assert_not_called()


def _pattern(b, p, l):
    """The l-sphere's pattern, the last one of the chain up to l."""
    *_, pattern = l2rep.sphere_patterns(b, p, l)
    assert pattern.shape == (len(b), b.sphere_start[b.radius - l + 1])
    return pattern


def _trie_passes(b, p, l):
    """The trie walk that ``sphere_patterns`` replaced, kept as its oracle:
    ``(forward, backward)`` for x = sum_w c_w T_w over the l-sphere on
    vectors over B_{n-l} and B_n.  The ball's generation tree, cut at depth
    l and pruned of elements with no extension to length l, is the trie of
    the sphere words.  Forward is the Horner recursion; its edge for s at
    depth k is the block of T_s from B_{n-k-1} into B_{n-k}.  Backward runs
    the same edges transposed from the root and collects at the leaves."""
    n, size, parent = b.radius, b.sphere_start, b.parent
    blocks = []
    for i in range(b.diagram.rank):
        jump = np.nonzero(b.lmul[i] >= 0)[0]
        desc = np.nonzero(b.ldesc[i])[0] if p else jump[:0]
        t_s = sparse.csr_matrix((np.r_[np.ones(len(jump)), np.full(len(desc), p)],
                                 (np.r_[jump, desc], np.r_[b.lmul[i][jump], desc])),
                                shape=(len(b), len(b)))
        blocks.append([t_s[:size[n - k + 1], :size[n - k]] for k in range(l)])
    alive = np.zeros(size[l + 1], dtype=bool)
    alive[size[l]:] = True
    for k in range(l, 0, -1):
        alive[parent[size[k]:size[k + 1]][alive[size[k]:size[k + 1]]]] = True
    children: dict[int, list[tuple[int, int]]] = {}
    for c in np.nonzero(alive)[0][1:].tolist():  # the root is its own parent
        children.setdefault(int(parent[c]), []).append((c, int(b.plast[c])))

    def forward(coeffs, vec, u=0, k=0):
        if k == l:
            return coeffs[u - size[l]] * vec
        return sum(blocks[i][k] @ forward(coeffs, vec, c, k + 1) for c, i in children[u])

    def backward(coeffs, vec, u=0, k=0):
        if k == l:
            return coeffs[u - size[l]] * vec
        return sum(backward(coeffs, blocks[i][k].T @ vec, c, k + 1) for c, i in children[u])

    return forward, backward


def _sphere_case(d, q, n, l, c_seed):
    """(ball, p, coefficients, dense P_n x P_{n-l}) for a random x on the
    l-sphere at q_s = q for every s; the dense block comes from the exact
    ``rep_hecke``."""
    pf = MultiParameter.floating(d, {s: q for s in d.generators})
    b = ball(d, n)
    c = np.random.default_rng(c_seed).standard_normal(b.sphere_sizes()[l])
    x = HeckeElement.zero(pf)
    for v, cw in zip(b.sphere(l), c):
        x = x + float(cw) * HeckeElement.basis(pf, b.words[v])
    dense = rep(x, b).to_dense()[:, :b.sphere_start[n - l + 1]]
    return b, pf.p(d.generators[0]), c, dense


def _relative(x, y):
    return np.abs(x - y).max() / max(np.abs(y).max(), 1e-300)


def _check_sphere_passes(d, q, n, l, c_seed):
    """Every pattern of the chain up to l gives forward and backward passes
    equal to the trie's; the l-th is exactly P_n x P_{n-l} and its
    transpose, as the dense compression gives them, and the power-iteration
    norm is a lower bound on its norm."""
    b, p, c, dense = _sphere_case(d, q, n, l, c_seed)
    rng = np.random.default_rng(c_seed)
    for k, pattern in enumerate(l2rep.sphere_patterns(b, p, l), 1):
        ck = c if k == l else rng.standard_normal(b.sphere_sizes()[k])
        m = pattern.matrix(ck[:, None])
        assert m.shape == (len(b), b.sphere_start[n - k + 1])
        fwd, bwd = m @ np.eye(m.shape[1]), m.T @ np.eye(m.shape[0])
        forward, backward = _trie_passes(b, p, k)
        assert _relative(fwd, forward(ck, np.eye(m.shape[1]))) <= 1e-12
        assert _relative(bwd, backward(ck, np.eye(m.shape[0]))) <= 1e-12
    assert k == l
    assert _relative(fwd, dense) <= 1e-12
    assert _relative(bwd, dense.T) <= 1e-12
    est = l2rep.sphere_operator_norms(pattern, c[:, None], iters=20)[0]
    assert est <= float(np.linalg.norm(dense, 2)) * (1 + 1e-9)


def test_fast_norm_matches_dense(diagram_a):
    b, p, c, dense = _sphere_case(diagram_a, 0.49, 7, 2, 9)
    pattern = _pattern(b, p, 2)
    # a batch of x and 2x: each column runs on its own block
    fast = l2rep.sphere_operator_norms(pattern, np.c_[c, 2 * c], iters=60)
    exact = float(np.linalg.norm(dense, 2))
    for scale, norm in zip((1, 2), fast):
        assert norm <= scale * exact + 1e-6
        assert norm >= scale * exact * 0.98


@settings(max_examples=40, deadline=None, derandomize=True)
@given(diagrams(max_rank=4), st.data())
def test_sphere_passes_match_rep_hecke(d, data):
    n = data.draw(st.integers(3, 6))
    l = data.draw(st.integers(1, n - 2))
    assume(ball(d, n).sphere_sizes()[l] > 0)
    q = data.draw(st.one_of(st.just(1.0), st.floats(0.2, 0.95)))
    _check_sphere_passes(d, q, n, l, data.draw(st.integers(0, 2 ** 16)))


@pytest.mark.parametrize("n,l", [(5, 2), (5, 3), (6, 4)])
def test_sphere_passes_prune_dead_ends(n, l):
    # c commutes with a and b and comes last, so no canonical word extends c
    d = CoxeterDiagram(["a", "b", "c"], [["a", "c"], ["b", "c"]])
    for q in (0.6, 1.0):
        _check_sphere_passes(d, q, n, l, n + l)


def _recording_matrices(built):
    """``SpherePattern.matrix`` patched to append each matrix it builds,
    from any thread, to ``built``."""
    matrix = l2rep.SpherePattern.matrix

    def recorded(self, coeffs):
        m = matrix(self, coeffs)
        built.append(m)
        return m

    return mock.patch.object(l2rep.SpherePattern, "matrix", recorded)


def _check_sorted_pattern(pattern, shape, u, v, w, val):
    """The pattern's CSR arrays equal those of a stable argsort of u."""
    order = np.argsort(u, kind="stable")
    indptr = np.r_[0, np.cumsum(np.bincount(u, minlength=shape[0]))]
    assert pattern.shape == shape
    assert pattern.indptr.dtype == pattern.indices.dtype == np.int32
    assert pattern.indptr.tolist() == indptr.tolist()
    assert pattern.indices.tolist() == v[order].tolist()
    assert pattern.w.tolist() == w[order].tolist()
    assert pattern.val.tobytes() == val[order].tobytes()


def _per_call_layout(pattern, batch):
    """The block-diagonal ``(indices, indptr)`` as ``SpherePattern.matrix``
    once built it on every call."""
    (rows, cols), nnz = pattern.shape, len(pattern.val)
    offsets = np.arange(batch, dtype=np.int32 if batch * nnz < 2**31 else np.int64)[:, None]
    return ((pattern.indices + cols * offsets).ravel(),
            np.r_[(pattern.indptr[:-1] + nnz * offsets).ravel(), batch * nnz])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(connected_diagram_corpus(5)), st.integers(3, 7),
       st.sampled_from([0.0, -0.3, 0.9]), st.integers(1, 3))
def test_sphere_pattern_layout(d, n, p, l):
    """Each pattern of the chain holds its triples in the order of a stable
    argsort by u; its layout of every width 1-9 is the per-call formula's;
    and the two groups of a batch build their matrices on one index
    buffer."""
    b = ball(d, n)
    assume(l <= n - 2 and b.sphere_sizes()[l] > 0)
    triples = []

    class Recorded(l2rep.SpherePattern):
        def __init__(self, shape, u, v, w, val):
            triples.append((shape, u.copy(), v.copy(), w.copy(), val.copy()))
            super().__init__(shape, u, v, w, val)

    with mock.patch.object(l2rep, "SpherePattern", Recorded):
        patterns = list(l2rep.sphere_patterns(b, p, l))
    assert len(patterns) == len(triples) == l
    for pattern, args in zip(patterns, triples):
        _check_sorted_pattern(pattern, *args)
        for batch in range(1, 10):
            for got, want in zip(pattern.layout(batch), _per_call_layout(pattern, batch)):
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
    built = []
    coeffs = np.random.default_rng(n).standard_normal((b.sphere_sizes()[l], 4))
    with _with_cpus(2), _recording_matrices(built):
        l2rep.sphere_operator_norms(patterns[-1], coeffs, iters=1)
    assert len(built) == 2
    assert np.shares_memory(built[0].indices, built[1].indices)
    assert np.shares_memory(built[0].indptr, built[1].indptr)


@pytest.mark.parametrize("rows,u", [
    (4, [3]),
    (8, [5, 1, 4, 1, 5, 0, 2, 6]),
    (8, [2] * 40 + [0, 7] * 3 + [2] * 21),
    (8, [7, 0, 7, 3, 7, 7]),
    (enumeration.DEFAULT_ELEMENT_CAP, [enumeration.DEFAULT_ELEMENT_CAP - 1, 0] * 8),
], ids=["nnz-1", "nnz-power-of-two", "repeated-row", "last-row", "ids-at-the-cap"])
def test_sphere_pattern_packed_sort(rows, u):
    """The packed keys u << bits | position give the stable order by u when
    there are no position bits (nnz 1), when nnz - 1 fills its bits (nnz a
    power of two), when a row repeats many times, and at the last row, the
    cap's last id too."""
    u = np.array(u, dtype=np.int32)
    rng = np.random.default_rng(len(u))
    v = rng.integers(0, 5, len(u)).astype(np.int32)
    w, val = rng.integers(0, 3, len(u)), rng.standard_normal(len(u))
    _check_sorted_pattern(l2rep.SpherePattern((rows, 5), u, v, w, val), (rows, 5), u, v, w, val)


@pytest.mark.parametrize("iters", [1, 3, 8])
def test_power_iteration_skips_the_unread_transposed_product(diagram_a, iters):
    """Each iteration makes one forward product; every one but the last
    also makes the transposed product that feeds the next."""
    b, p, c, _ = _sphere_case(diagram_a, 0.49, 7, 2, 3)
    pattern = _pattern(b, p, 2)
    counts = {"forward": 0, "transposed": 0}

    class Counted:
        def __init__(self, m, key):
            self.m, self.key = m, key

        def __matmul__(self, x):
            counts[self.key] += 1
            return self.m @ x

        @property
        def T(self):
            return Counted(self.m.T, "transposed")

    matrix = l2rep.SpherePattern.matrix
    with mock.patch.object(l2rep.SpherePattern, "matrix",
                           lambda self, coeffs: Counted(matrix(self, coeffs), "forward")):
        counted = l2rep.sphere_operator_norms(pattern, np.c_[c, -c], iters=iters)
    assert counts == {"forward": iters, "transposed": iters - 1}
    assert counted.tolist() == l2rep.sphere_operator_norms(pattern, np.c_[c, -c],
                                                           iters=iters).tolist()


# The first 16 hex digits of the sha256 of the float.hex strings of every
# ratio, then every max_ratio, of haagerup_ratio for l = 1..5 (19 trials,
# seed 0, 8 iterations), recorded when each length still built its own
# pattern: the chained build keeps every triple and the order of every sum.
HAAGERUP_RATIO_DIGESTS = {
    ("A", 7, 0.35): "1f72ffde9f65cc92", ("A", 7, 0.7): "09609020f87ed3d9",
    ("A", 7, 1.0): "ac5cca1edf5e46af", ("A", 7, 1.6): "d9d9e06738da69c3",
    ("A", 10, 0.35): "c1ee0f8afee14d72", ("A", 10, 0.7): "7082cb6f0cb1528f",
    ("A", 10, 1.0): "3250798c073b94fd", ("A", 10, 1.6): "49ff260c77e0e242",
    ("pentagon", 7, 0.35): "09261909a9eb399d", ("pentagon", 7, 0.7): "18c7b31bcf791952",
    ("pentagon", 7, 1.0): "3ece4cc21fe75594", ("pentagon", 7, 1.6): "8118bf00abf23031",
    ("pentagon", 10, 0.35): "7bf3817481849ca5", ("pentagon", 10, 0.7): "ed0e3e9dae4d6f5a",
    ("pentagon", 10, 1.0): "075c09e8a23e020d", ("pentagon", 10, 1.6): "3dec4567c124521f",
}


@pytest.mark.parametrize("name,n,q", sorted(HAAGERUP_RATIO_DIGESTS),
                         ids=lambda x: str(x))
def test_haagerup_ratios_bit_identical(diagram_a, name, n, q):
    d = PENTAGON if name == "pentagon" else diagram_a
    out = l2rep.haagerup_ratio(d, q, 5, n, 19)
    assert [r["l"] for r in out] == [1, 2, 3, 4, 5]
    hexes = [x.hex() for r in out for x in r["ratios"]] + [r["max_ratio"].hex() for r in out]
    digest = hashlib.sha256(" ".join(hexes).encode()).hexdigest()[:16]
    assert digest == HAAGERUP_RATIO_DIGESTS[name, n, q]


def _with_cpus(cpus):
    """The process's CPU affinity read as ``cpus`` CPUs."""
    return mock.patch.object(l2rep.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                             create=True)


def _one_group(pattern, coeffs, iters, seed):
    """``sphere_operator_norms`` as one group: the same start block, then
    ``_group_norms`` on the whole batch."""
    vec = np.ascontiguousarray(
        np.random.default_rng(seed).standard_normal((pattern.shape[1], coeffs.shape[1])).T)
    vec /= l2rep._row_norms(vec)[:, None]
    return l2rep._group_norms(pattern, coeffs, vec, iters)


@pytest.mark.parametrize("name,q", [("A", 0.35), ("A", 1.6),
                                    ("pentagon", 0.35), ("pentagon", 1.6)])
def test_column_groups_are_bit_identical(diagram_a, name, q):
    """Every CPU count, so every group count the rule allows (g <= batch //
    2, at least two columns a group), gives the one-group estimates bit for
    bit, on batches of 1 to 9 columns; the pool's threads end with the call.
    On the radius-9 pentagon, one-column groups would not: numpy's row
    reduction of a one-row array differs there in the last bits."""
    d = PENTAGON if name == "pentagon" else diagram_a
    b = ball(d, 9)  # wide enough that one-column groups would differ
    for l, pattern in enumerate(l2rep.sphere_patterns(b, (q - 1) / math.sqrt(q), 2), 1):
        coeffs = np.random.default_rng(l).standard_normal((b.sphere_sizes()[l], 9))
        for batch in range(1, 10):
            chunk = coeffs[:, :batch]
            want = _one_group(pattern, chunk, 3, l)
            for cpus in range(1, batch + 1):
                before = threading.active_count()
                with _with_cpus(cpus):
                    got = l2rep.sphere_operator_norms(pattern, chunk, iters=3, seed=l)
                assert threading.active_count() == before
                assert [x.hex() for x in got] == [x.hex() for x in want], (l, batch, cpus)


def test_column_groups_start_threads_by_the_rule(diagram_a):
    """g = min(CPUs, batch // 2) groups of at least two columns: a batch
    under four columns, or a one-CPU affinity, starts no thread.  The
    calling thread runs the first group; the pool starts a worker for each
    other group unless one is already idle, and none outlives the call."""
    b = ball(diagram_a, 6)
    pattern = _pattern(b, 0.5, 2)
    coeffs = np.random.default_rng(0).standard_normal((b.sphere_sizes()[2], 9))
    widths = []
    matrix = l2rep.SpherePattern.matrix

    def recorded(self, c):
        widths.append(c.shape[1])
        return matrix(self, c)

    started = []
    start = threading.Thread.start
    with mock.patch.object(threading.Thread, "start",
                           lambda self: (started.append(self), start(self))[1]), \
            mock.patch.object(l2rep.SpherePattern, "matrix", recorded):
        for cpus, batch, groups in [(8, 1, [1]), (8, 2, [2]), (8, 3, [3]), (1, 9, [9]),
                                    (2, 4, [2, 2]), (2, 9, [4, 5]), (8, 9, [2, 2, 2, 3])]:
            started.clear()
            widths.clear()
            with _with_cpus(cpus):
                l2rep.sphere_operator_norms(pattern, coeffs[:, :batch], iters=2)
            assert sorted(widths) == sorted(groups), (cpus, batch)
            assert 1 <= len(started) < len(groups) if len(groups) > 1 else not started
            assert not any(t.is_alive() for t in started)


def test_groups_share_one_layout_under_thread_switching(diagram_a):
    """Eight column groups (an 8-CPU affinity, so more threads than the
    host may have cores), switching every microsecond, each build their
    matrix on the one layout of their width that the calling thread built,
    and give the one-group estimates bit for bit, every time."""
    b = ball(diagram_a, 7)
    pattern = _pattern(b, 0.5, 2)
    coeffs = np.random.default_rng(3).standard_normal((b.sphere_sizes()[2], 16))
    want = [x.hex() for x in _one_group(pattern, coeffs, 4, 0)]
    built = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _with_cpus(8), _recording_matrices(built):
            for _ in range(5):
                got = l2rep.sphere_operator_norms(pattern, coeffs, iters=4)
                assert [x.hex() for x in got] == want
    finally:
        sys.setswitchinterval(interval)
    indices, indptr = pattern.layout(2)
    assert len(built) == 40
    assert all(np.shares_memory(m.indices, indices) and np.shares_memory(m.indptr, indptr)
               for m in built)
