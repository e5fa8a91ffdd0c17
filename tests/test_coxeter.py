import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rahecke.coxeter import CoxeterDiagram, DiagramError, parse_diagram
from rahecke.enumeration import ball, connected_diagram_corpus
from test_enumeration import commutes, components, diagrams


@pytest.fixture(scope="module")
def diagram_a():
    return CoxeterDiagram(["a", "b", "c"], [["a", "b"]])


@pytest.fixture(scope="module")
def dinfty():
    return CoxeterDiagram(["a", "b"])


@pytest.fixture(scope="module")
def path3():
    # a < b < c with ab and bc commuting; exhibits the nonlocal ShortLex moves
    return CoxeterDiagram(["a", "b", "c"], [["a", "b"], ["b", "c"]])


def test_parse_diagram_roundtrip():
    d = parse_diagram('{"generators": ["a", "b", "c"], "commuting": [["a", "b"]]}')
    assert d.generators == ("a", "b", "c")
    assert commutes(d, "a", "b") and commutes(d, "b", "a")
    assert not commutes(d, "a", "c")
    assert d.conflict == (0b101, 0b110, 0b111)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(diagrams(max_rank=5))
def test_key_rebuilds_the_diagram(d):
    """The key's pairs rebuild the same masks, and the masks are symmetric
    with the diagonal set."""
    again = CoxeterDiagram(d.generators, d.key()[1])
    assert again == d and again.conflict == d.conflict
    for i, row in enumerate(d.conflict):
        assert row >> i & 1
        assert all((row >> j & 1) == (d.conflict[j] >> i & 1) for j in range(d.rank))


def test_key_sorts_pairs_by_name():
    d = CoxeterDiagram(["c", "a", "b"], [["a", "c"], ["b", "c"], ["b", "a"]])
    assert d.key() == (("c", "a", "b"), (("a", "b"), ("c", "a"), ("c", "b")))


def test_parse_diagram_errors():
    with pytest.raises(DiagramError):
        parse_diagram({"generators": ["a", "a"]})
    with pytest.raises(DiagramError):
        parse_diagram({"generators": ["a"], "commuting": [["a", "a"]]})
    with pytest.raises(DiagramError):
        parse_diagram({"generators": ["a", "b"], "commuting": [["a", "x"]]})
    with pytest.raises(DiagramError):
        parse_diagram({"generators": []})
    with pytest.raises(DiagramError):
        parse_diagram("not json")


def test_normal_form_examples(diagram_a):
    d = diagram_a
    assert d.normal_form("aa") == ()
    assert d.normal_form("ba") == ("a", "b")
    assert d.normal_form("bacb") == ("a", "b", "c", "b")


def test_normal_form_nonlocal_move(path3):
    # c commutes with b but not a; b commutes with both: the canonical word
    # of cab requires moving b across two positions.
    assert path3.normal_form("cab") == ("b", "c", "a")


def test_multiply_examples(diagram_a):
    d = diagram_a
    assert d.multiply("a", "ab") == ("b",)
    assert d.multiply("c", "ab") == ("c", "a", "b")
    assert d.multiply("ab", "") == ("a", "b")


def test_starts_with(diagram_a):
    d = diagram_a
    assert d.starts_with("", "ab")
    assert d.starts_with("b", "ab")
    assert not d.starts_with("c", "ab")
    assert d.starts_with("ab", "ab")


def test_join_meet_examples(diagram_a):
    d = diagram_a
    assert d.join("a", "b") == ("a", "b")
    assert d.join("a", "c") is None
    assert d.join("ab", "ab") == ("a", "b")


def test_centralizes(diagram_a):
    d = diagram_a
    assert d.centralizes("a", "a")
    assert d.centralizes("a", "b")
    assert not d.centralizes("a", "c")


def test_irreducible_components(diagram_a):
    assert diagram_a.is_irreducible()
    assert CoxeterDiagram(["a"]).is_irreducible()
    square = CoxeterDiagram(["a", "b", "c", "d"],
                            [["a", "b"], ["a", "c"], ["a", "d"],
                             ["b", "c"], ["b", "d"], ["c", "d"]])
    assert not square.is_irreducible()
    comps = components(square)
    assert sorted(c.generators for c in comps) == [("a",), ("b",), ("c",), ("d",)]


def test_components_exhaustive_small():
    # is_irreducible against union-find on every diagram with 4 and 5 generators
    from itertools import combinations
    for names in (list("abcd"), list("abcde")):
        pairs = list(combinations(names, 2))
        for mask in range(1 << len(pairs)):
            commuting = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            d = CoxeterDiagram(names, commuting)
            parent = {x: x for x in names}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for (s, t) in set(pairs) - set(commuting):  # the infinity edges
                parent[find(s)] = find(t)
            assert d.is_irreducible() == (len({find(x) for x in names}) == 1)


def test_covering_closed_path(diagram_a, dinfty):
    assert diagram_a.covering_closed_path() == ("a", "c", "b", "c")
    assert dinfty.covering_closed_path() == ("a", "b")
    assert CoxeterDiagram(["a", "b"], [["a", "b"]]).covering_closed_path() is None
    assert CoxeterDiagram(["a"]).covering_closed_path() is None


def _covering_path_by_names(d):
    """The covering path by a depth-first walk over name adjacency lists."""
    adj = {s: [t for t in d.generators if t != s and not commutes(d, s, t)]
           for s in d.generators}
    walk, seen = [], set()

    def dfs(u):
        walk.append(u)
        seen.add(u)
        for x in adj[u]:
            if x not in seen:
                dfs(x)
                walk.append(u)

    dfs(d.generators[0])
    if len(walk) > 1 and walk[-1] == walk[0]:
        walk.pop()
    return tuple(walk)


def test_covering_path_on_the_corpus():
    for d in connected_diagram_corpus(5):
        expected = _covering_path_by_names(d) if d.rank >= 2 else None
        assert d.covering_closed_path() == expected


def test_covering_path_properties():
    pent = CoxeterDiagram(list("abcde"),
                          [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]])
    for d in (pent, CoxeterDiagram(["a", "b", "c"], [["a", "b"]])):
        g = d.covering_closed_path()
        assert set(g) == set(d.generators)
        for x, y in zip(g, g[1:]):
            assert not commutes(d, x, y) and x != y
        assert not commutes(d, g[0], g[-1]) and g[0] != g[-1]
        # power growth |g^n| = n |g|
        for n in range(1, 5):
            assert len(d.normal_form(g * n)) == n * len(g)


def test_element_serialization(diagram_a):
    d = diagram_a
    assert d.format_element(()) == "e"
    assert d.parse_element("e") == ()
    assert d.parse_element("1") == ()
    assert d.format_element(("a", "b")) == "ab"
    assert d.parse_element("bacb") == ("a", "b", "c", "b")
    withe = CoxeterDiagram(["d", "e"])
    assert withe.format_element(()) == "1"
    assert withe.parse_element("e") == ("e",)
    multi = CoxeterDiagram(["s1", "s2"])
    assert multi.format_element(("s1", "s2")) == "s1.s2"
    assert multi.parse_element("s1.s2.s1") == ("s1", "s2", "s1")


@st.composite
def word_and_diagram(draw):
    which = draw(st.integers(0, 2))
    if which == 0:
        d = CoxeterDiagram(["a", "b", "c"], [["a", "b"]])
    elif which == 1:
        d = CoxeterDiagram(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    else:
        d = CoxeterDiagram(list("abcd"), [["a", "c"], ["b", "d"]])
    word = draw(st.lists(st.sampled_from(d.generators), max_size=12))
    return d, tuple(word)


@given(word_and_diagram())
@settings(max_examples=150, deadline=None)
def test_normal_form_idempotent_and_invariant(data):
    d, word = data
    nf = d.normal_form(word)
    assert d.normal_form(nf) == nf
    # invariance under an allowed adjacent swap
    lst = list(word)
    for i in range(len(lst) - 1):
        if commutes(d, lst[i], lst[i + 1]):
            swapped = lst[:i] + [lst[i + 1], lst[i]] + lst[i + 2:]
            assert d.normal_form(swapped) == nf
            break


def inverse(d, w):
    """Canonical word of w^-1: generators are involutions, so a word of w
    read backwards spells w^-1."""
    return d.normal_form(reversed(w))


@given(word_and_diagram(), word_and_diagram())
@settings(max_examples=100, deadline=None)
def test_length_inequality(data1, data2):
    d, v = data1
    _, w = data2
    w = tuple(x for x in w if x in d.generators)
    v, w = d.normal_form(v), d.normal_form(w)
    prod = d.multiply(inverse(d, v), w)
    assert len(prod) >= len(w) - len(v)
    assert (len(prod) == len(w) - len(v)) == d.starts_with(v, w)


def test_left_order_cancellation_theorem(diagram_a):
    """s <= v and s <= w imply (v <= w iff s v <= s w), over a radius-7 ball."""
    d = diagram_a
    b = ball(d, 7)
    elems = [b.words[v] for v in range(len(b))]
    for s in d.generators:
        below = [w for w in elems if d.starts_with((s,), w)]
        for v in below:
            sv = d.multiply((s,), v)
            for w in below:
                sw = d.multiply((s,), w)
                assert d.starts_with(v, w) == d.starts_with(sv, sw)


@pytest.mark.parametrize("gens,commuting,rad", [
    (["a", "b", "c"], [["a", "b"]], 6),
    (["a", "b", "c"], [["a", "b"], ["b", "c"]], 5),
    (["a", "b"], [], 6),
    (list("abcd"), [["a", "c"], ["b", "d"], ["a", "d"]], 4),
])
def test_join_against_brute_force(gens, commuting, rad):
    """join() against exhaustive upper-bound scans: any common upper bound of
    v, w (lengths <= rad) has length <= |v| + |w|, so a ball of radius 2*rad
    contains the full candidate set."""
    import numpy as np
    d = CoxeterDiagram(gens, commuting)
    small = ball(d, rad)
    pool = ball(d, 2 * rad)
    elems = [small.words[v] for v in range(len(small))]
    masks = {w: pool.prefix_mask(w) for w in elems}
    for v in elems:
        for w in elems:
            got = d.join(v, w)
            common = masks[v] & masks[w]
            if got is None:
                assert not common.any(), (v, w)
            else:
                # ball order is (length, ShortLex): the first common upper
                # bound is the length-lex least one
                first = int(np.argmax(common))
                assert common[first] and pool.words[first] == got
                # least: every upper bound of {v, w} lies above the join
                above = pool.prefix_mask(got)
                assert not (common & ~above).any()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(diagrams(max_rank=5), st.data())
def test_heap_layers_match_normal_forms(d, data):
    """Heap layers are a canonical key: word -> layers -> word is the
    identity, and left-multiplying the layers by s gives the layers and the
    canonical word of s.w, flagged exactly when s is a left descent of w."""
    raw = tuple(data.draw(st.lists(st.sampled_from(d.generators), max_size=10)))
    w = d.normal_form(raw)
    layers = d.heap(raw)
    assert layers == d.heap(w)
    assert d.heap_word(layers) == w
    for s in d.generators:
        slayers, below = d.heap_lmul(layers, d.gen_index(s))
        assert d.heap_word(slayers) == d.normal_form((s,) + w)
        assert slayers == d.heap((s,) + w)
        assert below == (s in _word_descents(d, w))


# -- the word rule, kept as the heap engine's oracle ---------------------------


def _blockers(d, s):
    """Letters that s cannot move past: s itself and its non-commuting ones."""
    return {t for t in d.generators if not commutes(d, s, t)}


def _word_nf(d, word):
    """Cancel a pair of equal letters whenever the letters strictly between
    them all commute with it, restarting after every cancellation; then emit
    the smallest letter that commutes with everything before it, greedily."""
    letters = list(word)
    changed = True
    while changed:
        changed = False
        for i, x in enumerate(letters):
            blocked = False
            for j in range(i + 1, len(letters)):
                if letters[j] == x and not blocked:
                    del letters[j], letters[i]
                    changed = True
                    break
                blocked = blocked or letters[j] in _blockers(d, x)
            if changed:
                break
    out = []
    while letters:
        best, shield = None, set()
        for i, x in enumerate(letters):
            if x not in shield and (best is None or d.gen_index(x) < d.gen_index(letters[best])):
                best = i
            shield |= _blockers(d, x)
        out.append(letters.pop(best))
    return tuple(out)


def _unshielded(d, s, word):
    """Position of the first s in ``word`` that commutes with every letter
    before it, or -1 when a letter not commuting with s comes first."""
    for i, x in enumerate(word):
        if x in _blockers(d, s):
            return i if x == s else -1
    return -1


def _word_strip(d, s, word):
    i = _unshielded(d, s, word)
    return None if i < 0 else _word_nf(d, word[:i] + word[i + 1:])


def _word_starts_with(d, v, w):
    cur = _word_nf(d, w)
    for t in _word_nf(d, v):
        i = _unshielded(d, t, cur)
        if i < 0:
            return False
        cur = cur[:i] + cur[i + 1:]
    return True


def _word_descents(d, word):
    found, shield = set(), set()
    for x in word:
        if x not in shield:
            found.add(x)
        shield |= _blockers(d, x)
    return sorted(found, key=d.gen_index)


def _word_prefixes(d, word, memo=None):
    """All v <= w: e, and s.v for each left descent s of w and each v <= s.w."""
    memo = {} if memo is None else memo
    if word not in memo:
        memo[word] = {()} | {_word_nf(d, (s,) + p) for s in _word_descents(d, word)
                             for p in _word_prefixes(d, _word_strip(d, s, word), memo)}
    return memo[word]


def _mask_letters(d, mask):
    return [s for s in d.generators if mask >> d.gen_index(s) & 1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(diagrams(max_rank=5), st.data())
def test_heap_engine_matches_word_rule(d, data):
    """Normal forms, descents, left strips and the weak order of the heap
    engine agree with the word rule on unreduced random words."""
    words = st.lists(st.sampled_from(d.generators), max_size=8).map(tuple)
    raw, other = data.draw(words), data.draw(words)
    w = _word_nf(d, raw)
    assert d.normal_form(raw) == w
    layers = d.heap(raw)
    assert _mask_letters(d, d.heap_descents(layers)) == _word_descents(d, w)
    assert _mask_letters(d, layers[0] if layers else 0) == _word_descents(d, w[::-1])
    for s in d.generators:
        stripped, below = d.heap_lmul(layers, d.gen_index(s))
        expected = _word_strip(d, s, w)
        assert below == (expected is not None)
        if below:
            assert d.heap_word(stripped) == expected
    # a random v is rarely below w; a prefix of w, or one letter more, often is
    k = data.draw(st.integers(0, len(w)))
    for v in (other, w[:k], w[:k] + other[:1], other + raw):
        assert d.starts_with(v, raw) == _word_starts_with(d, v, raw)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(diagrams(max_rank=5), st.data())
def test_splits_are_the_prefixes(d, data):
    """The splits of w are exactly the v <= w of a starts_with scan, and of
    the word rule's descent recursion; each (P, U) has P.U = w with
    |P| + |U| = |w|."""
    b = ball(d, 6)
    w = b.words[data.draw(st.integers(0, len(b) - 1))]
    splits = d.splits(d.heap(w))
    prefixes = {d.heap_word(p) for p in splits}
    assert len(prefixes) == len(splits)
    assert prefixes == {v for v in ball(d, len(w)).words if d.starts_with(v, w)}
    assert prefixes == _word_prefixes(d, w)
    for p, u in splits.items():
        pw, uw = d.heap_word(p), d.heap_word(u)
        assert d.multiply(pw, uw) == w
        assert len(pw) + len(uw) == len(w)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(diagrams(max_rank=5), st.data())
def test_centralizes_is_commuting_products(d, data):
    """s centralizes w exactly when s.w and w.s have one normal form, on
    unreduced words too."""
    w = tuple(data.draw(st.lists(st.sampled_from(d.generators), max_size=8)))
    for s in d.generators:
        assert d.centralizes(s, w) == (d.normal_form((s,) + w) == d.normal_form(w + (s,)))
