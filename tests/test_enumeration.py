import hashlib
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rahecke import enumeration
from rahecke.coxeter import CoxeterDiagram
from rahecke.enumeration import (Ball, BallCapExceeded, NormalFormAutomaton,
                                 ball, connected_diagram_corpus, sphere_weight)


def commutes(diagram, s, t):
    """True iff s != t and the exponent of (s, t) is 2, read off the
    diagram's conflict masks."""
    return not diagram.conflict[diagram.gen_index(s)] >> diagram.gen_index(t) & 1


def cliques(diagram):
    """All cliques of the commuting graph, the empty clique included."""
    out = []

    def extend(base, candidates):
        out.append(base)
        for i, s in enumerate(candidates):
            extend(base + (s,), [t for t in candidates[i + 1:] if commutes(diagram, s, t)])

    extend((), diagram.generators)
    return out


def ball_index(b):
    """The element id of every canonical word of the ball."""
    return {w: v for v, w in enumerate(b.words)}


def components(diagram):
    """Sub-diagrams induced on the connected components of the infinity graph,
    each on its generators in diagram order, in order of their first one."""
    gens, seen, out = diagram.generators, set(), []
    for root in gens:
        if root in seen:
            continue
        stack = [root]
        seen.add(root)
        comp = set()
        while stack:
            u = stack.pop()
            comp.add(u)
            for t in gens:
                if t not in seen and t != u and not commutes(diagram, u, t):
                    seen.add(t)
                    stack.append(t)
        comp = [s for s in gens if s in comp]
        out.append(CoxeterDiagram(comp, [(s, t) for i, s in enumerate(comp) for t in comp[i + 1:]
                                         if commutes(diagram, s, t)]))
    return out


@pytest.fixture(scope="module")
def diagram_a():
    return CoxeterDiagram(["a", "b", "c"], [["a", "b"]])


def q_const(d, v):
    return {s: Fraction(v) for s in d.generators}


def test_ball_sizes(diagram_a):
    dinf = CoxeterDiagram(["a", "b"])
    assert ball(dinf, 3).sphere_sizes() == [1, 2, 2, 2]
    assert ball(diagram_a, 2).sphere_sizes() == [1, 3, 5]
    assert ball(diagram_a, 0).sphere_sizes() == [1]


def test_ball_sorted_and_indexed(diagram_a):
    b = ball(diagram_a, 5)
    assert b.words[0] == ()
    lengths = [len(w) for w in b.words]
    assert lengths == sorted(lengths)
    index = ball_index(b)
    for i, w in enumerate(b.words):
        assert index[w] == i


def test_ball_is_brute_force_ball(diagram_a):
    """The automaton-generated ball contains exactly the distinct canonical
    forms of all letter sequences up to the radius."""
    d = diagram_a
    radius = 4
    seen = {(): None}
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for s in d.generators:
                u = d.multiply(w, (s,))
                if len(u) == len(w) + 1 and u not in seen:
                    seen[u] = None
                    nxt.append(u)
        frontier = nxt
    b = ball(d, radius)
    assert set(b.words) == set(seen)


def test_ball_cap(monkeypatch):
    """``Ball`` reads ``DEFAULT_ELEMENT_CAP`` when it is built."""
    d = CoxeterDiagram(["a", "b", "c"])
    size = len(Ball(d, 4))
    monkeypatch.setattr(enumeration, "DEFAULT_ELEMENT_CAP", 50)
    with pytest.raises(BallCapExceeded, match="ball of radius 10 exceeds cap 50"):
        Ball(d, 10)
    # a fresh ball of exactly cap elements builds; one more is refused
    monkeypatch.setattr(enumeration, "DEFAULT_ELEMENT_CAP", size)
    assert len(Ball(d, 4)) == size
    monkeypatch.setattr(enumeration, "DEFAULT_ELEMENT_CAP", size - 1)
    with pytest.raises(BallCapExceeded):
        Ball(d, 4)


def test_ball_cache_evicts_least_recently_used(monkeypatch):
    d = CoxeterDiagram(["a", "b", "c"])  # |B_2|, |B_3|, |B_4| = 10, 22, 46
    built = []

    class Counted(Ball):
        def __init__(self, diagram, radius):
            built.append(radius)
            super().__init__(diagram, radius)

    monkeypatch.setattr(enumeration, "_BALL_CACHE", {})
    monkeypatch.setattr(enumeration, "Ball", Counted)
    monkeypatch.setattr(enumeration, "DEFAULT_ELEMENT_CAP", 10 + 22 + 46 - 1)
    b2, b3 = ball(d, 2), ball(d, 3)
    assert ball(d, 2) is b2 and built == [2, 3]  # a hit rebuilds nothing
    ball(d, 4)  # over the bound: b3 is now the least recently used
    assert [key[1] for key in enumeration._BALL_CACHE] == [2, 4]
    again = ball(d, 3)
    assert again is not b3 and built == [2, 3, 4, 3]
    for name in ("parent", "plast", "length", "rmul", "lmul", "ldesc"):
        assert np.array_equal(getattr(again, name), getattr(b3, name))
    assert again.sphere_start == b3.sphere_start
    assert [key[1] for key in enumeration._BALL_CACHE] == [4, 3]  # b2 went next


def test_ball_builds_no_words():
    b = Ball(CoxeterDiagram(["a", "b", "c"], [["a", "b"]]), 5)
    assert "words" not in b.__dict__
    assert b.words[b.rmul[ball_index(b)[("b",)], 0]] == ("a", "b")  # a, b commute


def test_prefix_mask(diagram_a):
    d = diagram_a
    b = ball(d, 5)
    for probe in [(), ("a",), ("a", "b"), ("c", "a")]:
        mask = b.prefix_mask(probe)
        for v in range(len(b)):
            assert mask[v] == d.starts_with(probe, b.words[v])


def test_sphere_weight_examples(diagram_a):
    dinf = CoxeterDiagram(["a", "b"])
    for l in (1, 2, 3):
        assert sphere_weight(dinf, q_const(dinf, 1), l) == 2
    vals = [sphere_weight(diagram_a, q_const(diagram_a, 1), l) for l in range(4)]
    assert vals == [1, 3, 5, 8]
    assert sphere_weight(diagram_a, q_const(diagram_a, 1), 0) == 1
    # weighted: multiplicative over letters
    q = {"a": Fraction(1, 2), "b": Fraction(3), "c": Fraction(1, 5)}
    b = ball(diagram_a, 3)
    expect = sum(
        Fraction(1) * _prod(q, b.words[v]) for v in b.sphere(3)
    )
    assert sphere_weight(diagram_a, q, 3, b) == expect


def _prod(q, word):
    out = Fraction(1)
    for s in word:
        out *= q[s]
    return out


def test_submultiplicativity(diagram_a):
    d = diagram_a
    for q in (q_const(d, 1), {"a": Fraction(1, 2), "b": Fraction(2), "c": Fraction(1, 3)}):
        b = ball(d, 8)
        a = [sphere_weight(d, q, l, b) for l in range(9)]
        for l in range(9):
            for m in range(9 - l):
                assert a[l + m] <= a[l] * a[m]


def test_sphere_weights_build_no_words(diagram_a):
    b = Ball(diagram_a, 6)
    q = {"a": Fraction(1, 2), "b": Fraction(3), "c": Fraction(1, 5)}
    sphere_weight(diagram_a, q, 6, b)
    assert "words" not in b.__dict__


def test_element_weights_stop_at_the_sphere(diagram_a):
    b = ball(diagram_a, 6)
    q = {"a": Fraction(1, 2), "b": Fraction(3), "c": Fraction(1, 5)}
    for l in range(7):
        nums, den = b.weight_numerators(q, l)
        assert den == 10
        words = b.words[:b.sphere_start[l + 1]]
        assert [Fraction(n, den ** len(w)) for n, w in zip(nums, words)] == [_prod(q, w) for w in words]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_sphere_weight_is_the_word_product(data):
    """sphere_weight over one denominator equals the per-word product at
    rational q with distinct denominators, and at float q it is the float
    product along the generation tree, summed in ball order, bit for bit."""
    d = data.draw(diagrams(max_rank=4))
    dens = data.draw(st.lists(st.integers(1, 12), min_size=d.rank, max_size=d.rank, unique=True))
    q = {s: Fraction(data.draw(st.integers(1, 30)), den) for s, den in zip(d.generators, dens)}
    qf = {s: float(v) for s, v in q.items()}
    b = ball(d, 5)
    for l in range(6):
        words = [b.words[v] for v in b.sphere(l)]
        assert sphere_weight(d, q, l, b) == sum(_prod(q, w) for w in words)
        tree = []
        for w in words:
            x = 1.0
            for s in w:
                x *= qf[s]
            tree.append(x)
        assert repr(sphere_weight(d, qf, l, b)) == repr(sum(tree))


def prefixes(diagram, w):
    """All v <= w in the weak right order, as canonical words."""
    return {diagram.heap_word(p) for p in diagram.splits(diagram.heap(diagram.normal_form(w)))}


def kappa(diagram, w, l):
    """kappa_w(l) = #{v <= w with |v| = l}."""
    return sum(1 for p in prefixes(diagram, w) if len(p) == l)


def test_kappa(diagram_a):
    d = diagram_a
    assert kappa(d, "ab", 1) == 2
    for w in ["", "a", "ab", "abcb", "acbc"]:
        word = d.normal_form(w)
        assert kappa(d, word, 0) == 1
        assert kappa(d, word, len(word)) == 1
    # prefix sets agree with a starts_with scan over a ball
    b = ball(d, 4)
    for v in range(len(b)):
        w = b.words[v]
        direct = {u for u in (b.words[x] for x in range(len(b)))
                  if d.starts_with(u, w)}
        assert prefixes(d, w) == direct


def test_automaton_counts_match_balls():
    for d in connected_diagram_corpus(4):
        aut = NormalFormAutomaton(d)
        b = ball(d, 6)
        assert aut.sphere_counts(6) == b.sphere_sizes()


def test_automaton_weighted_sums(diagram_a):
    d = diagram_a
    q = {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(2)}
    aut = NormalFormAutomaton(d)
    series = aut.sphere_series([q[s] for s in d.generators], 6)
    b = ball(d, 6)
    for l in range(7):
        assert series[l] == sphere_weight(d, q, l, b)


def test_corpus():
    corpus = connected_diagram_corpus(5)
    assert len(corpus) == 31
    by_rank = {}
    for d in corpus:
        by_rank[d.rank] = by_rank.get(d.rank, 0) + 1
        assert d.is_irreducible()
    assert by_rank == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}


def test_component_count_convolution():
    """Sphere counts of a reducible diagram are the convolution of the
    component counts."""
    d = CoxeterDiagram(list("abcd"),
                       [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]])
    # infinity edges: only c-d; components {a}, {b}, {c,d}
    comps = components(d)
    assert sorted(len(c.generators) for c in comps) == [1, 1, 2]
    full = ball(d, 5).sphere_sizes()
    parts = [ball(c, 5).sphere_sizes() for c in comps]
    conv = [1] + [0] * 5
    for part in parts:
        new = [0] * 6
        for i, x in enumerate(conv):
            for j, y in enumerate(part):
                if i + j <= 5:
                    new[i + j] += x * y
        conv = new
    assert conv == full


# sha256 of each Ball array over the rank <= 5 corpus at radius 6, in corpus
# order; recorded from the frozenset blocked-set implementation that the
# automaton-driven construction replaced.
BALL_ARRAY_DIGESTS = {
    "words": "3672143b845c254a07e3d5cf8c1eda63875c6c6e155c41cf7819232ff8ee6625",
    "parent": "0c2b6c5b1c4822a7072aa8712bae204e4889cfaafadc07081a337f53724ec1c2",
    "plast": "4311b2a18f5677c3aad275f2ae6076143ec5cc92348d593d2e96af3b8a62da70",
    "length": "1029acd3bcf2758bd02daa898515ff53bc331dbf14e09029dc6f54880ab2b04b",
    "sphere_start": "8b5430c9d9f60b5dfda3d2a3aa172f0c5aa9e95d0e44ba9d5aa80004f67b1a1a",
    "rmul": "b047a9da2db4223c311863b4a63f6e377035012f1623a4f8b750d7af3a19f6c4",
    "lmul": "d0bc29a66d53506f42cfd971445aacf3880aff76ec5a5e198fbe3086e94c700d",
    "ldesc": "1f05c17fa55a20b2027dc2ba24d037070cf11df8961d9f8cd02310232df99034",
}


def test_ball_arrays_unchanged_on_corpus():
    hashes = {name: hashlib.sha256() for name in BALL_ARRAY_DIGESTS}
    for d in connected_diagram_corpus(5):
        b = Ball(d, 6)
        hashes["words"].update("\n".join(" ".join(w) for w in b.words).encode() + b"\0")
        for name in BALL_ARRAY_DIGESTS:
            if name != "words":
                hashes[name].update(np.asarray(getattr(b, name), dtype="<i8").tobytes())
    assert {name: h.hexdigest() for name, h in hashes.items()} == BALL_ARRAY_DIGESTS


@st.composite
def diagrams(draw, max_rank=5):
    """A right-angled diagram of rank <= max_rank with random commuting pairs."""
    names = "abcde"[: draw(st.integers(1, max_rank))]
    pairs = list(combinations(names, 2))
    commuting = [pair for pair, keep in
                 zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                          max_size=len(pairs))))
                 if keep]
    return CoxeterDiagram(list(names), commuting)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(diagrams(), st.integers(0, 5))
def test_kappa_polynomial_bound(d, radius):
    """kappa_w(l) <= C(l + omega - 1, omega - 1), omega the clique number.

    The prefixes of w are the order ideals of its heap; incomparable pieces
    commute, so the heap is a union of omega chains (Dilworth), and an ideal
    is fixed by how many pieces it takes from each chain."""
    omega = max(len(c) for c in cliques(d))
    for w in ball(d, radius).words:
        for l, count in Counter(len(v) for v in prefixes(d, w)).items():
            assert count <= math.comb(l + omega - 1, omega - 1)


@PROPERTY_SETTINGS
@given(diagrams(), st.integers(0, 6))
def test_ball_spheres_match_automaton(d, radius):
    assert Ball(d, radius).sphere_sizes() == NormalFormAutomaton(d).sphere_counts(radius)


@PROPERTY_SETTINGS
@given(diagrams(), st.integers(0, 4))
def test_ball_words_are_distinct_normal_forms(d, radius):
    """Ball words are the distinct normal forms of all letter sequences of
    length <= radius, in (length, ShortLex) order."""
    forms = {d.normal_form(seq) for n in range(radius + 1)
             for seq in product(d.generators, repeat=n)}
    gidx = {s: i for i, s in enumerate(d.generators)}
    assert Ball(d, radius).words == sorted(
        forms, key=lambda w: (len(w), [gidx[s] for s in w]))


@PROPERTY_SETTINGS
@given(diagrams(), st.integers(0, 5))
@example(CoxeterDiagram(["a", "b", "c"], [["a", "b"]]), 4)
def test_multiplication_tables(d, radius):
    """Every entry of the int32 tables is the ball index of its product, or
    -1 past the radius, and ``ldesc`` is the left-descent relation."""
    b = Ball(d, radius)
    for name in ("parent", "plast", "length", "rmul", "lmul"):
        assert getattr(b, name).dtype == np.int32, name
    assert b.ldesc.dtype == bool
    index = ball_index(b)
    for v, wv in enumerate(b.words):
        for i, s in enumerate(d.generators):
            assert b.rmul[v, i] == index.get(d.multiply(wv, (s,)), -1)
            assert b.lmul[i, v] == index.get(d.multiply((s,), wv), -1)
            assert b.ldesc[i, v] == d.starts_with((s,), wv)


def test_clique_number_is_the_largest_clique():
    for d in connected_diagram_corpus(5):
        assert d.clique_number() == max(len(c) for c in cliques(d))
