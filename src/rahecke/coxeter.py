"""Right-angled Coxeter systems: diagrams, canonical words, and the weak order.

A right-angled Coxeter system is described by its set of generators together
with the symmetric relation of commuting pairs (exponent 2); all other pairs
of distinct generators have exponent infinity.  The diagram encodes that
relation once, as the bitmasks ``CoxeterDiagram.conflict``, and every module
reads it from there.  Two reduced words represent the same element exactly
when they differ by swaps of adjacent commuting letters, so an element is its
heap of pieces (Cartier-Foata; Viennot, "Heaps of pieces I"), and the heap is
its key: letters are added one at a time on the left, a letter equal to an
unshielded piece cancels it, and the canonical word (the ShortLex-least
reduced word under the input generator order) is the greedy lexicographic
reading of the heap.  Normal forms, descents and the weak order all run on
the heap's layers: the left descents are one scan from the deepest layer and
the right descents are the top layer; the prefixes P <= w, each with its
remainder P^-1 w, come from one recursion that strips left descents
(``splits``), and joins strip common descents the same way.  Inside, letters
are generator indices (``heap_lmul`` takes one, ``heap_letters`` returns
them); names appear only where words are parsed or printed: ``heap`` reads
one, rejecting unknown letters, and ``heap_word`` spells one.
"""

from __future__ import annotations

import json
from functools import cache, reduce
from operator import or_
from typing import Iterable, Mapping, Sequence

Word = tuple[str, ...]

EMPTY: Word = ()

#: Generator names that would make element serialization ambiguous.  "e" is
#: allowed as a generator; when present, the identity is spelled "1" instead.
_RESERVED_NAMES = {"1", ""}
_FORBIDDEN_CHARS = set(".,=*()[]{} \t\n")


class DiagramError(ValueError):
    """Malformed diagram description or unknown generator."""


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CoxeterDiagram:
    """A right-angled Coxeter diagram.

    Parameters
    ----------
    generators:
        Ordered sequence of distinct generator names.  The order fixes the
        ShortLex order used by all canonical-word computations.
    commuting:
        Pairs ``(s, t)`` of distinct generators with exponent 2.  The relation
        is symmetrized; self-pairs are rejected.

    ``conflict[i]`` is the bitmask of the generators that do not commute with
    generator i, bit i included (ss cancels, it is never a free swap).
    """

    def __init__(self, generators: Sequence[str], commuting: Iterable[Sequence[str]] = ()):
        gens = tuple(generators)
        if not gens:
            raise DiagramError("diagram needs at least one generator")
        if len(set(gens)) != len(gens):
            raise DiagramError("duplicate generator")
        self.generators: tuple[str, ...] = gens
        self._gidx: dict[str, int] = {s: i for i, s in enumerate(gens)}
        conflict = [(1 << len(gens)) - 1] * len(gens)
        for pair in commuting:
            if len(pair) != 2:
                raise DiagramError(f"commuting entry {pair!r} is not a pair")
            s, t = pair
            if s not in self._gidx or t not in self._gidx:
                raise DiagramError(f"unknown generator in pair ({s!r}, {t!r})")
            if s == t:
                raise DiagramError(f"self-pair ({s!r}, {s!r})")
            i, j = self._gidx[s], self._gidx[t]
            conflict[i] &= ~(1 << j)
            conflict[j] &= ~(1 << i)
        self.conflict: tuple[int, ...] = tuple(conflict)

    # -- basic structure ---------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.generators)

    def gen_index(self, s: str) -> int:
        return self._gidx[s]

    def key(self) -> tuple:
        """(generators, commuting pairs (s, t) with s before t, sorted)."""
        gens, conflict = self.generators, self.conflict
        return (gens, tuple(sorted((gens[i], gens[j]) for i in range(len(gens))
                                   for j in range(i + 1, len(gens))
                                   if not conflict[i] >> j & 1)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoxeterDiagram) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"CoxeterDiagram(generators={list(self.generators)!r})"

    # -- canonical words ---------------------------------------------------

    def normal_form(self, word: Iterable[str]) -> Word:
        """ShortLex-least reduced word of the element spelled by ``word``."""
        return self.heap_word(self.heap(word))

    def multiply(self, v: Iterable[str], w: Iterable[str]) -> Word:
        return self.normal_form(tuple(v) + tuple(w))

    # -- heaps of pieces ---------------------------------------------------
    # An element is its heap (Cartier-Foata; Viennot, "Heaps of pieces I"),
    # keyed by layers of generator bitmasks, layer 0 at the top: a letter lies
    # one layer below the deepest letter right of it that it does not commute
    # with, or in layer 0, so letters added on the left move no other letter.

    def heap_lmul(self, layers: tuple[int, ...], i: int) -> tuple[tuple[int, ...], bool]:
        """Layers of s*w from the layers of w, and whether s <= w; s is
        generator i."""
        bit, conflict = 1 << i, self.conflict[i]
        k = len(layers) - 1
        while k >= 0 and not layers[k] & conflict:
            k -= 1
        if k >= 0 and layers[k] & bit:  # s <= w; a layer it empties is the last
            rest = layers[k] ^ bit
            return layers[:k] + ((rest,) if rest else ()) + layers[k + 1:], True
        if k + 1 == len(layers):
            return layers + (bit,), False
        return layers[:k + 1] + (layers[k + 1] | bit,) + layers[k + 2:], False

    def heap(self, word: Iterable[str]) -> tuple[int, ...]:
        """Heap layers of the element spelled by ``word``; DiagramError names
        an unknown letter."""
        letters = tuple(word)
        for x in letters:
            if x not in self._gidx:
                raise DiagramError(f"unknown generator {x!r}")
        layers: tuple[int, ...] = ()
        for s in reversed(letters):
            layers = self.heap_lmul(layers, self._gidx[s])[0]
        return layers

    def heap_letters(self, layers: Sequence[int]) -> tuple[int, ...]:
        """Generator indices of the canonical word of the element with these
        heap layers, right to left.  Greedy ShortLex on the pieces read
        deepest first: repeatedly take the smallest letter that commutes with
        every piece before it."""
        conflict, rank = self.conflict, len(self.generators)
        full = (1 << rank) - 1
        rest = [i for layer in reversed(layers) for i in _bits(layer)]
        out: list[int] = []
        while rest:
            best_k, best, shield = -1, rank, 0
            for k, i in enumerate(rest):
                if i < best and not shield >> i & 1:
                    best_k, best = k, i
                shield |= conflict[i]
                if shield == full:
                    break
            out.append(rest.pop(best_k))
        out.reverse()
        return tuple(out)

    def heap_word(self, layers: Sequence[int]) -> Word:
        """Canonical word of the element with these heap layers."""
        return tuple(map(self.generators.__getitem__, self.heap_letters(layers)[::-1]))

    def heap_descents(self, layers: Sequence[int]) -> int:
        """Bitmask of the left descents s <= w of the element with these
        layers: the pieces that no deeper piece conflicts with, in one scan
        from the deepest layer.  The right descents are ``layers[0]``: a
        piece lies in layer 0 exactly when nothing right of it conflicts."""
        conflict, full = self.conflict, (1 << len(self.generators)) - 1
        found = shield = 0
        for layer in reversed(layers):
            found |= layer & ~shield
            for i in _bits(layer):
                shield |= conflict[i]
            if shield == full:
                break
        return found

    # -- weak right Bruhat order --------------------------------------------

    def starts_with(self, v: Sequence[str], w: Sequence[str]) -> bool:
        """The order v <= w, i.e. |v^-1 w| == |w| - |v|."""
        # Strip the letters of v off the front of w one descent at a time.
        layers = self.heap(w)
        for i in reversed(self.heap_letters(self.heap(v))):
            layers, below = self.heap_lmul(layers, i)
            if not below:
                return False
        return True

    def splits(self, layers: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Every prefix P <= w, keyed by its layers, with the layers of its
        remainder U = P^-1 w, so that PU = w and |P| + |U| = |w|; w is given
        by its layers.  The splits of w are (e, w) and, for each left descent
        s, the splits (P, U) of s.w turned into (s.P, U)."""
        memo = {}

        def rec(rest: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, ...]]:
            got = memo.get(rest)
            if got is None:
                got = {(): rest}
                for i in _bits(self.heap_descents(rest)):
                    for p, u in rec(self.heap_lmul(rest, i)[0]).items():
                        got[self.heap_lmul(p, i)[0]] = u
                memo[rest] = got
            return got

        return rec(tuple(layers))

    def join(self, v: Sequence[str], w: Sequence[str]) -> Word | None:
        """Least upper bound in the weak right order, or None if there is none."""
        v = tuple(v)
        # The least u with w <= v.u (reduced product), on the layers: a left
        # descent common to what is left of v and of w is stripped off both;
        # otherwise every descent of w must commute past all of v (else no
        # upper bound exists), and the least one moves into u.
        gens, conflict = self.generators, self.conflict
        lv, lw, u = self.heap(v), self.heap(w), []
        while lw:
            dw = self.heap_descents(lw)
            common = dw & self.heap_descents(lv)
            t = next(_bits(common or dw))
            if common:
                lv = self.heap_lmul(lv, t)[0]
            else:
                content = reduce(or_, lv, 0)
                if any(conflict[i] & content for i in _bits(dw)):
                    return None
                u.append(gens[t])
            lw = self.heap_lmul(lw, t)[0]
        return self.normal_form(v + tuple(u))

    def centralizes(self, s: str, w: Sequence[str]) -> bool:
        """True iff s*w == w*s, i.e. s commutes with every other letter of w."""
        if s not in self._gidx:
            raise DiagramError(f"unknown generator {s!r}")
        i = self._gidx[s]
        return not reduce(or_, self.heap(w), 0) & self.conflict[i] & ~(1 << i)

    # -- diagram shape -----------------------------------------------------

    def clique_number(self) -> int:
        """Size of the largest clique of the commuting graph: the lowest
        candidate is left out, or taken with the candidates it commutes with."""
        conflict = self.conflict

        @cache
        def rec(cand: int) -> int:
            i = next(_bits(cand), None)
            return 0 if i is None else max(rec(cand ^ 1 << i), 1 + rec(cand & ~conflict[i]))

        return rec((1 << len(self.generators)) - 1)

    def is_irreducible(self) -> bool:
        """True iff the graph of infinite exponents on the generators is
        connected: one flood fill from generator 0 over the conflict masks."""
        seen = frontier = 1
        while frontier:
            frontier = reduce(or_, map(self.conflict.__getitem__, _bits(frontier))) & ~seen
            seen |= frontier
        return seen == (1 << len(self.generators)) - 1

    def covering_closed_path(self) -> Word | None:
        """A closed path in the diagram visiting every generator, or None.

        Consecutive letters (and the first/last pair) have infinite exponent.
        Built by depth-first traversal of the infinity graph, lowest
        generator first, recording every arrival including backtracks and
        dropping the final return to the root.  Returns None when the
        infinity graph is disconnected or the rank is less than 2.
        """
        if self.rank < 2 or not self.is_irreducible():
            return None
        walk: list[int] = []
        seen = 0

        def dfs(u: int) -> None:
            nonlocal seen
            walk.append(u)
            seen |= 1 << u
            for x in _bits(self.conflict[u]):
                if not seen >> x & 1:
                    dfs(x)
                    walk.append(u)

        dfs(0)
        # walk ends back at the root; drop that final repeat.
        if len(walk) > 1 and walk[-1] == walk[0]:
            walk.pop()
        return tuple(self.generators[i] for i in walk)

    # -- serialization -----------------------------------------------------

    def format_element(self, word: Sequence[str]) -> str:
        if not word:
            return "1" if "e" in self._gidx else "e"
        if all(len(s) == 1 for s in self.generators):
            return "".join(word)
        return ".".join(word)

    def parse_element(self, text: str) -> Word:
        text = text.strip()
        if text in ("", "1"):
            return EMPTY
        if text == "e" and "e" not in self._gidx:
            return EMPTY
        if "." in text or any(len(s) > 1 for s in self.generators):
            letters = [x for x in text.split(".") if x]
        else:
            letters = list(text)
        return self.normal_form(letters)


def parse_diagram(source: str | Mapping) -> CoxeterDiagram:
    """Build a diagram from a JSON document or an equivalent mapping.

    Expected shape: ``{"generators": ["a", "b"], "commuting": [["a", "b"]]}``.
    """
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise DiagramError(f"invalid JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, Mapping):
        raise DiagramError("diagram description must be a JSON object")
    gens = data.get("generators")
    if not isinstance(gens, list) or not gens:
        raise DiagramError("'generators' must be a non-empty list")
    for g in gens:
        if not isinstance(g, str) or not g:
            raise DiagramError(f"bad generator name {g!r}")
        if g in _RESERVED_NAMES:
            raise DiagramError(f"generator name {g!r} is reserved")
        if any(c in _FORBIDDEN_CHARS for c in g):
            raise DiagramError(f"generator name {g!r} contains forbidden characters")
    commuting = data.get("commuting", [])
    if not isinstance(commuting, list):
        raise DiagramError("'commuting' must be a list of pairs")
    for pair in commuting:
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(g, str) for g in pair)):
            raise DiagramError(f"commuting entry {pair!r} is not a list of two generator names")
    return CoxeterDiagram(gens, commuting)
