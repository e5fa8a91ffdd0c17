"""Exact arithmetic in the multi-parameter Hecke algebra of a right-angled
Coxeter system.

Basis symbols T_w are keyed by the heap layers of w (``CoxeterDiagram.heap``)
from construction to output.  Words appear only where an element is parsed or
printed: ``HeckeElement.basis`` takes one, ``HeckeElement.terms()`` gives the
canonical words in ShortLex order, and ``cliq_decomposition`` returns words.
Products follow the one-letter rule

    T_s T_w = T_{sw}                 if s is not below w,
    T_s T_w = T_{sw} + p_s T_w       if s <= w,      p_s = (q_s - 1) / sqrt(q_s),

extended letter by letter over the left factor and bilinearly by ``walk``,
which ``l2rep`` runs on the ids of a ball too.  The left key's letters come
off its layers as generator indices, right to left (``heap_letters``), and
``CoxeterDiagram.heap_lmul`` puts one index on a right key in one scan.  In
exact mode every q_s must be the square of a rational, so p_s, character
values, and the central-projection coefficients all stay rational.  Exact
products run on Python integers over one denominator: each factor's
coefficients become numerators over their least common denominator, the
walk scales T_s by the denominator of p_s, and one ``Fraction`` per output
key is built at the end.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from . import enumeration, growth
from .coxeter import CoxeterDiagram, DiagramError, Word


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _over_lcm(coeffs: Iterable) -> tuple[list[int], int]:
    """Rational coefficients as integer numerators over their least common
    denominator."""
    coeffs = list(coeffs)
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def walk(state: dict, letters: Sequence[int], parts: Sequence[tuple],
         step: Callable[[Hashable, int], tuple[Hashable, bool]]) -> dict:
    """pd(w) T_w ``state``, ``letters`` the generator indices of a word of w,
    right to left: letter s takes c at key to c pd_s at s.key and, if
    s <= key, c pn_s at key, where p_s = pn_s / pd_s with (pn_s, pd_s) =
    ``parts[s]`` and ``step(key, s) = (s.key, s <= key)``.  Zero sums are
    dropped after each letter; with no letters ``state`` itself returns."""
    for s in letters:
        pn, pd = parts[s]
        out: dict = {}
        for key, c in state.items():
            skey, below = step(key, s)
            out[skey] = out.get(skey, 0) + c * pd
            if below and pn:
                out[key] = out.get(key, 0) + c * pn
        state = {key: c for key, c in out.items() if c}
    return state


class MultiParameter:
    """Per-generator deformation parameters q_s and their square roots
    (rational in exact mode, floats in float mode)."""

    def __init__(self, diagram: CoxeterDiagram, q: Mapping[str, object],
                 roots: Mapping[str, object], exact: bool):
        self.diagram = diagram
        self.q = growth.positive_parameters(diagram, q, Fraction if exact else float)
        self.roots = dict(roots)
        self.exact = exact
        self._p = {s: (self.q[s] - 1) / self.roots[s] for s in diagram.generators}
        # p_s = pn_s / pd_s in lowest terms by generator index; float mode
        # keeps pd_s = 1
        self._p_parts = [(p.numerator, p.denominator) if exact else (p, 1)
                         for p in self._p.values()]

    # -- constructors --------------------------------------------------------

    @classmethod
    def exact_squares(cls, diagram: CoxeterDiagram, q: Mapping[str, Fraction]) -> "MultiParameter":
        """Exact mode; every q_s must be the square of a rational."""
        qq = growth.positive_parameters(diagram, q)
        roots = {}
        for s, val in qq.items():
            roots[s] = rational_sqrt(val)
            if roots[s] is None:
                raise ValueError(
                    f"q[{s!r}] = {val} is not a square of a rational; "
                    "exact mode needs squares"
                )
        return cls(diagram, qq, roots, exact=True)

    @classmethod
    def from_roots(cls, diagram: CoxeterDiagram, roots: Mapping[str, Fraction]) -> "MultiParameter":
        r = {s: Fraction(roots[s]) for s in diagram.generators}
        return cls(diagram, {s: v * v for s, v in r.items()}, r, exact=True)

    @classmethod
    def floating(cls, diagram: CoxeterDiagram, q: Mapping[str, float]) -> "MultiParameter":
        qq = growth.positive_parameters(diagram, q, float)
        return cls(diagram, qq, {s: math.sqrt(v) for s, v in qq.items()}, exact=False)

    @classmethod
    def one(cls, diagram: CoxeterDiagram) -> "MultiParameter":
        """The undeformed point q == 1 (group algebra)."""
        return cls.exact_squares(diagram, {s: Fraction(1) for s in diagram.generators})

    # -- derived scalars -----------------------------------------------------

    def p(self, s: str):
        """p_s = (q_s - 1) / sqrt(q_s)."""
        return self._p[s]

    def char_gen(self, s: str, eps_s: int):
        """Character value on T_s for sign eps_s: eps_s * q_s ** (eps_s / 2)."""
        r = self.roots[s]
        return eps_s * (r if eps_s == 1 else 1 / r)

    def flipped(self, eps: Sequence[int]) -> "MultiParameter":
        """Parameters (q_s ** eps_s); exact roots flip with the sign."""
        emap = dict(zip(self.diagram.generators, eps))
        if self.exact:
            roots = {
                s: (self.roots[s] if emap[s] == 1 else 1 / self.roots[s])
                for s in self.diagram.generators
            }
            return MultiParameter.from_roots(self.diagram, roots)
        q = {
            s: (self.q[s] if emap[s] == 1 else 1.0 / self.q[s])
            for s in self.diagram.generators
        }
        return MultiParameter.floating(self.diagram, q)

    def abs_flip(self, eps: Sequence[int]) -> dict[str, Fraction]:
        """|q_eps| as a plain mapping for the growth module (exact mode)."""
        if not self.exact:
            raise ValueError("exact region decisions need exact parameters")
        return growth.flipped_parameter(self.diagram, self.q, eps)

    def same_as(self, other: "MultiParameter") -> bool:
        return (self.diagram == other.diagram and self.exact == other.exact
                and self.q == other.q)

    def __repr__(self) -> str:
        mode = "exact" if self.exact else "float"
        return f"MultiParameter({mode}, {self.q})"


class HeckeElement:
    """Finite linear combination of basis symbols T_w, keyed by the heap
    layers of w (``CoxeterDiagram.heap``)."""

    __slots__ = ("diagram", "params", "coeffs")

    def __init__(self, params: MultiParameter,
                 coeffs: Mapping[tuple[int, ...], object] | None = None):
        self.diagram = params.diagram
        self.params = params
        cleaned = {}
        if coeffs:
            for w, c in coeffs.items():
                if c != 0:
                    cleaned[w] = c
        self.coeffs: dict[tuple[int, ...], object] = cleaned

    @classmethod
    def zero(cls, params: MultiParameter) -> "HeckeElement":
        return cls(params)

    @classmethod
    def one(cls, params: MultiParameter) -> "HeckeElement":
        return cls.basis(params, ())

    @classmethod
    def basis(cls, params: MultiParameter, word: Iterable[str]) -> "HeckeElement":
        unit = Fraction(1) if params.exact else 1.0
        return cls(params, {params.diagram.heap(word): unit})

    # -- linear structure ----------------------------------------------------

    def _require_same(self, other: "HeckeElement") -> None:
        if not self.params.same_as(other.params):
            raise ValueError("parameter mismatch between Hecke elements")

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        self._require_same(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return HeckeElement(self.params, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        self._require_same(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) - c
        return HeckeElement(self.params, out)

    def scaled(self, c) -> "HeckeElement":
        return HeckeElement(self.params, {w: c * v for w, v in self.coeffs.items()})

    def __rmul__(self, c) -> "HeckeElement":
        if isinstance(c, HeckeElement):
            return NotImplemented
        return self.scaled(c)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HeckeElement)
                and self.params.same_as(other.params)
                and self.coeffs == other.coeffs)

    def terms(self) -> list[tuple[Word, object]]:
        """(canonical word, coefficient) pairs in ShortLex order."""
        return sorted(((self.diagram.heap_word(k), c) for k, c in self.coeffs.items()),
                      key=lambda t: (len(t[0]), t[0]))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "HeckeElement(0)"
        bits = [f"{c}*T({self.diagram.format_element(w)})" for w, c in self.terms()]
        return "HeckeElement(" + " + ".join(bits) + ")"

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return self.scaled(other)
        self._require_same(other)
        d, exact, parts = self.diagram, self.params.exact, self.params._p_parts
        # ``walk`` takes a left term v to pd(v) T_v y.  Exact coefficients
        # run as integers over each factor's common denominator, a left term
        # is pre-scaled by big / pd(v), and every output key meets the one
        # denominator big dx dy.  Float mode has pd_s = 1.
        if exact:
            left, dx = _over_lcm(self.coeffs.values())
            right, dy = _over_lcm(other.coeffs.values())
        else:
            left, dx = self.coeffs.values(), 1
            right, dy = other.coeffs.values(), 1
        letters = [d.heap_letters(v) for v in self.coeffs]
        pds = [math.prod(parts[s][1] for s in v) for v in letters]
        big = math.lcm(*pds)
        start = dict(zip(other.coeffs, right))
        total: dict[tuple[int, ...], object] = {}
        for v, cv, pdv in zip(letters, left, pds):
            cv = cv * (big // pdv)
            for key, c in walk(start, v, parts, d.heap_lmul).items():
                total[key] = total.get(key, 0) + cv * c
        if exact:
            den = big * dx * dy
            return HeckeElement(self.params, {key: Fraction(n, den)
                                              for key, n in total.items() if n != 0})
        return HeckeElement(self.params, total)

    # -- trace, l2 -----------------------------------------------------------

    def trace(self):
        """tau(x): the coefficient of T_e."""
        zero = Fraction(0) if self.params.exact else 0.0
        return self.coeffs.get((), zero)

    def inner(self, other: "HeckeElement"):
        """<x, y> = tau(y* x) = sum_w x_w y_w: the T_w are orthonormal and the
        coefficients real."""
        self._require_same(other)
        acc = Fraction(0) if self.params.exact else 0.0
        for w, c in self.coeffs.items():
            cy = other.coeffs.get(w)
            if cy is not None:
                acc = acc + cy * c
        return acc

    def norm2_sq(self):
        if self.params.exact:
            nums, den = _over_lcm(self.coeffs.values())
            return Fraction(sum(n * n for n in nums), den * den)
        acc = 0.0
        for c in self.coeffs.values():
            acc = acc + c * c
        return acc


def flip_parameters(a: HeckeElement, eps: Sequence[int]) -> HeckeElement:
    """Image of ``a`` under the isomorphism T_s -> eps_s T_s over (q_s**eps_s)."""
    d = a.diagram
    return HeckeElement(a.params.flipped(eps),
                        {w: math.prod(eps[i] for i in d.heap_letters(w)) * c
                         for w, c in a.coeffs.items()})


def char_value(params: MultiParameter, eps: Sequence[int], a: HeckeElement):
    """chi_{q_eps}(a): linear extension of T_s -> eps_s q_s ** (eps_s/2)."""
    if not params.same_as(a.params):
        raise ValueError("parameter mismatch")
    d, one = a.diagram, Fraction(1) if params.exact else 1.0
    chars = [params.char_gen(s, e) for s, e in zip(d.generators, eps)]
    acc = 0 * one
    for w, c in a.coeffs.items():
        # the canonical word's letter order, which float rounding follows
        acc = acc + c * math.prod((chars[i] for i in reversed(d.heap_letters(w))), start=one)
    return acc


def central_projection_partial(params: MultiParameter, eps: Sequence[int],
                               cutoff: int) -> HeckeElement:
    """Partial sum E^(i) of the central projection series for the pattern eps.

    E^(i) = (1/W(|q_eps|)) * sum_{|w| <= i} (sqrt q)_{w,eps} T_w.  Requires
    |q_eps| strictly inside the convergence region, so that the normalization
    W(|q_eps|) is an exact positive rational.  The coefficients (sqrt q)_{w,eps}
    are the character values chi_eps(T_w), integers over den^|w| multiplied
    out along the ball's generation tree, so each coefficient is one Fraction.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if not params.exact:
        raise ValueError("central projections need exact parameters")
    d = params.diagram
    w_value = growth.growth_value(d, params.abs_flip(eps))
    b = enumeration.ball(d, cutoff)
    chars = {s: params.char_gen(s, e) for s, e in zip(d.generators, eps)}
    nums, den = b.weight_numerators(chars, cutoff)
    scale = [den ** l * w_value.numerator for l in range(cutoff + 1)]
    return HeckeElement(params, {d.heap(w): Fraction(n * w_value.denominator, scale[len(w)])
                                 for w, n in zip(b.words, nums)})


def cliq_decomposition(params: MultiParameter, w: Sequence[str]
                       ) -> list[tuple[Word, tuple[str, ...], Word, object]]:
    """Terms (w', Gamma, w'', coefficient) expressing T_w over the undeformed
    operators and clique projections:

        T_w = sum over terms of (prod_{s in Gamma} p_s) T_{w'}^(1) P_Gamma T_{w''}^(1)

    where w = w' (prod Gamma) w'' with additive lengths, Gamma a commuting set
    of generators, and w' minimal in the sense that no generator commuting
    with all of Gamma is a right descent of w'.
    """
    d = params.diagram
    gens, conflict = d.generators, d.conflict
    one = Fraction(1) if params.exact else 1.0
    out: list[tuple[Word, tuple[str, ...], Word, object]] = []
    splits = d.splits(d.heap(w))
    for wp, top, u in sorted(((d.heap_word(p), p[0] if p else 0, u) for p, u in splits.items()),
                             key=lambda item: (len(item[0]), item[0])):
        # Gamma runs over the subsets of the left descents of u = w'^-1 w,
        # which pairwise commute (u is reduced), so each s in Gamma strips
        # off what is left.  The movers (generators commuting with all of
        # Gamma and not in it) must avoid the right descents of w', its
        # top layer; ~conflict[i] is what commutes with generator i.
        def extend(gamma: tuple[str, ...], movers: int, rest: tuple[int, ...],
                   coeff, cands: list[int]) -> None:
            if not movers & top:
                out.append((wp, gamma, d.heap_word(rest), coeff))
            for k, i in enumerate(cands):
                extend(gamma + (gens[i],), movers & ~conflict[i], d.heap_lmul(rest, i)[0],
                       coeff * params.p(gens[i]), cands[k + 1:])

        descents = d.heap_descents(u)
        extend((), (1 << len(gens)) - 1, u, one,
               [i for i in range(len(gens)) if descents >> i & 1])
    return out


def parse_rational(text: str) -> Fraction:
    """A rational such as '3/4'; DiagramError names a malformed one, 1/0 included."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise DiagramError(f"bad rational {text!r}") from None


def parse_float(text: str) -> float:
    """A rational such as '3/4' or '1e-3' as a float; DiagramError names one
    past the float range."""
    try:
        return float(parse_rational(text))
    except OverflowError:
        raise DiagramError(f"{text.strip()!r} is past the float range") from None


#: A term read up to the e of its coefficient's exponent, as in ``1e`` of 1e-3.
_EXPONENT = re.compile(r"[^*(]*[0-9.][eE]")


def parse_element_literal(params: MultiParameter, text: str) -> HeckeElement:
    """Parse literals like ``1*T(e) - 3/2*T(a) + T(ab)``; a sign right after
    the e of a coefficient's exponent (``1e-3*T(a)``) stays in its term."""
    d = params.diagram
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty element literal")
    terms: list[tuple[int, str]] = []
    sign = 1
    cur = ""
    for ch in s:
        if ch in "+-" and _EXPONENT.fullmatch(cur):
            cur += ch
        elif ch in "+-" and cur:
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch in "+-":
            sign = sign * (1 if ch == "+" else -1)
        else:
            cur += ch
    if not cur:
        raise ValueError(f"dangling sign in element literal {text!r}")
    terms.append((sign, cur))
    acc = HeckeElement.zero(params)
    for sgn, term in terms:
        if "*" in term:
            coef_text, basis_text = term.split("*", 1)
        else:
            coef_text, basis_text = "1", term
        if not (basis_text.startswith("T(") and basis_text.endswith(")")):
            raise ValueError(f"bad basis factor in {term!r}; expected T(word)")
        word = d.parse_element(basis_text[2:-1])
        coef = parse_rational(coef_text) if params.exact else parse_float(coef_text)
        acc = acc + (sgn * coef) * HeckeElement.basis(params, word)
    return acc
