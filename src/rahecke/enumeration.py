"""Ball and sphere enumeration, weighted sphere sums, and counting oracles.

Canonical (ShortLex) words are the language of one finite automaton,
``NormalFormAutomaton``: after a canonical word w, the letter t may be
appended exactly when t is not blocked, and the blocked set updates by

    B(wt) = {t}  |  {s < t : s commutes with t}  |  {s in B(w) : s commutes with t}.

The first part forbids the cancellation tt, the second forbids a word that a
single swap would make lexicographically smaller, and the third propagates
older obstructions through a commuting letter.  Enumeration knows this rule
only through the automaton; ``CoxeterDiagram.heap_letters`` reads the same
order off a heap (``normal_form`` goes through it), and
``test_ball_words_are_distinct_normal_forms`` checks the two against each
other.  Everything here follows the automaton's integer transition table:
``Ball`` generates each sphere from the previous one on arrays and keeps only
int32 tables, read and written with ``take`` and flat assignments at intp
indices (word tuples are derived on first read), and
``NormalFormAutomaton.sphere_series`` is the exact transfer-matrix oracle for
sphere counts and weighted sphere sums.  Ball weights q_w are integers over
one denominator: ``Ball.weight_numerators`` multiplies the numerators out
along the generation tree, and ``sphere_weight`` builds one Fraction per
sphere.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .coxeter import CoxeterDiagram, Word

DEFAULT_ELEMENT_CAP = 2_000_000


class BallCapExceeded(RuntimeError):
    """Ball construction would exceed the configured element cap."""


class Ball:
    """All elements of word length <= radius, sorted by (length, ShortLex),
    held as int32 tables (ids stay below ``DEFAULT_ELEMENT_CAP``).

    ``parent[v]`` is v with its last letter removed and ``plast[v]`` the
    index of that letter (the root is its own parent, with ``plast`` -1), so
    the children of an element are contiguous.  ``rmul[v, i]`` is the index
    of ``v * s_i`` and ``lmul[i][v]`` the index of ``s_i * v``; entries are
    -1 when the product leaves the ball.  ``rmul`` is a view of one flat
    array read at v*k + i, k the rank; those flat indices are computed in
    intp, since they pass 2**31 on large balls of high rank.  ``ldesc[i][v]``
    says whether s_i is a left descent of v.  ``words`` is built from
    ``parent``/``plast`` on first read, for the exact paths that work on
    word tuples.
    """

    def __init__(self, diagram: CoxeterDiagram, radius: int):
        if radius < 0:
            raise ValueError("radius must be >= 0")
        self.diagram = diagram
        self.radius = radius
        k = diagram.rank

        # table[state, i]: the automaton state after appending s_i, -1 if blocked
        aut = NormalFormAutomaton(diagram)
        table = np.full((len(aut.states), k), -1, dtype=np.int32)
        for st, row in enumerate(aut.transitions):
            for ti, nxt in row:
                table[st, ti] = nxt

        # Children of a sphere in row-major (parent, letter) order are the
        # next sphere in ShortLex order.
        parents = [np.zeros(1, dtype=np.int32)]
        plasts = [np.full(1, -1, dtype=np.int32)]
        state = np.zeros(1, dtype=np.int32)
        sphere_start = [0, 1]
        for _ in range(radius):
            nxt = table.take(state, axis=0)
            pi, ti = np.nonzero(nxt >= 0)
            if sphere_start[-1] + len(pi) > DEFAULT_ELEMENT_CAP:
                raise BallCapExceeded(f"ball of radius {radius} exceeds cap {DEFAULT_ELEMENT_CAP}")
            parents.append(pi + sphere_start[-2])
            plasts.append(ti)
            state = nxt[pi, ti]
            sphere_start.append(sphere_start[-1] + len(pi))

        n = sphere_start[-1]
        self.parent = parent = np.concatenate(parents, dtype=np.int32)
        self.plast = plast = np.concatenate(plasts, dtype=np.int32)
        self.length = np.repeat(np.arange(radius + 1, dtype=np.int32), np.diff(sphere_start))
        self.sphere_start = sphere_start  # sphere l = [start[l], start[l+1])

        # Right multiplication table rm[v*k + i] = v * s_i, sphere by sphere:
        # the tree edges u -> u*t and their inverses, then the other right
        # descents of v = u*t, which are the right descents s of u that
        # commute with t.  For those v*s = (u*s)*t lies in the previous
        # sphere, whose ascents are all filled by the time v's sphere is
        # reached; each such pair also fills the ascent (v*s)*s = v.
        rm = np.full(n * k, -1, dtype=np.int32)
        self.rmul = rmul = rm.reshape(n, k)  # a view: writes to rm show in it
        comm = np.array([[not c >> j & 1 for j in range(k)] for c in diagram.conflict])
        letter = plast.astype(np.intp)
        for l in range(1, radius + 1):
            lo, hi = sphere_start[l], sphere_start[l + 1]
            u, t = parent[lo:hi], letter[lo:hi]
            rm[u.astype(np.intp) * k + t] = np.arange(lo, hi)
            rm[np.arange(lo * k, hi * k, k) + t] = u
            # flat index j = (v - lo)*k + s over the sphere's (v, s) pairs
            # with u*s shorter than u (-1 reads as the largest uint32)
            us = rmul.take(u, axis=0).ravel()
            hit = comm.take(t, axis=0).ravel() & (us.view(np.uint32) < sphere_start[l - 1])
            j = np.flatnonzero(hit)
            vi, si = np.divmod(j, k)
            w = rm.take(us.take(j).astype(np.intp) * k + t.take(vi)).astype(np.intp)
            rm[j + lo * k] = w
            rm[w * k + si] = vi + lo

        # Left multiplication via s*(u t) = (s*u) t along the generation tree,
        # one sphere at a time: every parent lies in the previous sphere, so
        # s*u lies in the ball.
        lmul = np.empty((k, n), dtype=np.int32)
        for i in range(k):
            row = lmul[i]
            row[0] = rm[i]
            for l in range(1, radius + 1):
                lo, hi = sphere_start[l], sphere_start[l + 1]
                su = row.take(parent[lo:hi]).astype(np.intp)
                su *= k
                su += letter[lo:hi]
                row[lo:hi] = rm.take(su)
        self.lmul = lmul
        # |s*v| = |v| -+ 1 and the ball is sorted by length, so s is a left
        # descent of v iff s*v comes before v; -1, an ascent out of the ball,
        # reads as the largest uint32
        self.ldesc = lmul.view(np.uint32) < np.arange(n, dtype=np.uint32)

    @functools.cached_property
    def words(self) -> list[Word]:
        """The canonical word of every element, in ball order."""
        gens = self.diagram.generators
        words: list[Word] = [()]
        for u, t in zip(self.parent[1:].tolist(), self.plast[1:].tolist()):
            words.append(words[u] + (gens[t],))
        return words

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.parent)

    def sphere(self, l: int) -> range:
        if l < 0 or l > self.radius:
            raise ValueError(f"sphere {l} not enumerated (radius {self.radius})")
        return range(self.sphere_start[l], self.sphere_start[l + 1])

    def sphere_sizes(self) -> list[int]:
        return [self.sphere_start[l + 1] - self.sphere_start[l] for l in range(self.radius + 1)]

    def letters(self, v: int) -> list[int]:
        """The generator indices of v's canonical word, read off the
        generation tree."""
        out = []
        while v:
            out.append(int(self.plast[v]))
            v = int(self.parent[v])
        return out[::-1]

    def prefix_mask(self, prefix: Word) -> np.ndarray:
        """Boolean array over the ball: prefix <= v."""
        return self.letter_mask([self.diagram.gen_index(t) for t in prefix])

    def letter_mask(self, letters: Sequence[int]) -> np.ndarray:
        """``prefix_mask`` of the word with these generator indices, stripping
        one letter at a time across all elements at once."""
        alive = np.ones(len(self), dtype=bool)
        cur = np.arange(len(self), dtype=np.int32)
        for ti in letters:
            alive &= self.ldesc[ti].take(cur)
            cur = np.where(alive, self.lmul[ti].take(cur), 0)
        return alive

    def weight_numerators(self, q: Mapping[str, Fraction], l: int) -> tuple[list, int]:
        """(nums, den) with q_w = nums[v] / den**|v| for every ball element v
        of length <= l, in ball order: den is the lcm of the q_s
        denominators, and nums multiply out along the generation tree.  Float
        weights take den = 1, so nums are the float weights themselves."""
        qs = [q[s] for s in self.diagram.generators]
        if all(isinstance(x, Fraction) for x in qs):
            den = math.lcm(*(x.denominator for x in qs))
            step, out = [x.numerator * (den // x.denominator) for x in qs], [1]
        else:
            den, step, out = 1, qs, [1.0]
        top = self.sphere_start[min(l, self.radius) + 1]
        for u, t in zip(self.parent[1:top].tolist(), self.plast[1:top].tolist()):
            out.append(out[u] * step[t])
        return out, den


_BALL_CACHE: dict[tuple, Ball] = {}  # least recently used first


def ball(diagram: CoxeterDiagram, radius: int) -> Ball:
    """Memoized ball construction.  The cache keeps at most
    ``DEFAULT_ELEMENT_CAP`` elements in all (besides the ball just returned),
    evicting the least recently used balls first."""
    key = (diagram.key(), radius)
    b = _BALL_CACHE.get(key)
    if b is None:
        b = Ball(diagram, radius)
    _BALL_CACHE.pop(key, None)
    _BALL_CACHE[key] = b
    total = sum(map(len, _BALL_CACHE.values()))
    while total > DEFAULT_ELEMENT_CAP and len(_BALL_CACHE) > 1:
        total -= len(_BALL_CACHE.pop(next(iter(_BALL_CACHE))))
    return b


def sphere_weight(diagram: CoxeterDiagram, q: Mapping[str, Fraction], l: int,
                  b: Ball | None = None):
    """a_l(q) = sum of q_w over the sphere of radius l."""
    if b is None or b.radius < l:
        b = ball(diagram, l)
    nums, den = b.weight_numerators(q, l)
    sphere = b.sphere(l)
    total = sum(nums[sphere.start:sphere.stop])
    return total if isinstance(nums[0], float) else Fraction(total, den ** l)


class NormalFormAutomaton:
    """The canonical-word automaton as an integer transition table.

    ``states[i]`` is a blocked set as a bitmask, bit i for generator i, built
    from ``CoxeterDiagram.conflict``; state 0 is the empty set, the state
    of the empty word.  ``transitions[i]`` lists ``(generator index, next
    state)`` for every generator not blocked in state i, in generator order,
    so following it from state 0 emits the canonical words in ShortLex
    order.  With per-generator weights it computes exact weighted sphere sums
    without enumerating elements.
    """

    def __init__(self, diagram: CoxeterDiagram):
        self.diagram = diagram
        states: list[int] = [0]
        pos: dict[int, int] = {0: 0}
        trans: list[list[tuple[int, int]]] = []  # state -> [(gen index, next state)]
        for b in states:  # states grows while it is walked
            row: list[tuple[int, int]] = []
            for t, conflict in enumerate(diagram.conflict):
                if b >> t & 1:
                    continue
                # t, and the letters of b or before t that commute with t
                nb = 1 << t | (b | ((1 << t) - 1)) & ~conflict
                j = pos.setdefault(nb, len(states))
                if j == len(states):
                    states.append(nb)
                row.append((t, j))
            trans.append(row)
        self.states = states
        self.transitions = trans

    def sphere_series(self, weights: Sequence, lmax: int) -> list:
        """[S_0, ..., S_lmax] with S_l = sum over canonical words of length l
        of the product of per-letter weights."""
        zero = weights[0] * 0
        vec = [zero] * len(self.states)
        vec[0] = weights[0] * 0 + (Fraction(1) if isinstance(weights[0], Fraction) else 1)
        out = [vec[0]]
        for _ in range(lmax):
            new = [zero] * len(self.states)
            for st, amount in enumerate(vec):
                if amount == 0:
                    continue
                for ti, nxt in self.transitions[st]:
                    new[nxt] += amount * weights[ti]
            vec = new
            out.append(sum(vec, zero))
        return out

    def sphere_counts(self, lmax: int) -> list[int]:
        return [int(x) for x in self.sphere_series([Fraction(1)] * self.diagram.rank, lmax)]


@functools.cache
def connected_diagram_corpus(max_rank: int = 5) -> tuple[CoxeterDiagram, ...]:
    """All irreducible right-angled diagrams with at most ``max_rank``
    generators, one per isomorphism class of the underlying infinity graph;
    built once per ``max_rank``."""
    out: list[CoxeterDiagram] = []
    from itertools import combinations, permutations

    for n in range(1, max_rank + 1):
        names = [chr(ord("a") + i) for i in range(n)]
        vpairs = list(combinations(range(n), 2))
        seen: set[frozenset] = set()
        for mask in range(1 << len(vpairs)):
            edges = {vpairs[i] for i in range(len(vpairs)) if mask >> i & 1}  # infinity graph
            d = CoxeterDiagram(names, [(names[i], names[j]) for (i, j) in vpairs
                                       if (i, j) not in edges])
            if not d.is_irreducible():
                continue
            canon = min(
                tuple(sorted(tuple(sorted((p[i], p[j]))) for (i, j) in edges))
                for p in permutations(range(n))
            )
            if canon in seen:
                continue
            seen.add(canon)
            out.append(d)
    return tuple(out)
