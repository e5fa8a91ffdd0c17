"""Sphere-sum calculus for free-product diagrams (no commuting pairs).

In a free product of k involutions every element has a unique reduced word,
and the sphere sums h_l = sum_{|w|=l} T_w satisfy the three-term recursion

    h_1 h_l = h_{l+1} + p h_l + (k-1) h_{l-1}   (l >= 2, equal parameters q)
    h_1 h_1 = h_2 + p h_1 + k
    h_1 h_0 = h_1

so radial elements (linear combinations of the h_l) form a commutative
algebra in which products, traces and l2-norms are exact rational
computations of size linear in the cutoff.  This scales the central
projection partial sums to cutoffs far beyond what ball enumeration can
reach; equality with the generic Hecke machinery is checked at small cutoffs
by the tests.

For per-letter multiplicative weights (possibly of mixed sign) the weighted
sphere sums come from the canonical-word automaton's transfer recursion,
which is what the cross-pattern inner products of two projection series use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .coxeter import CoxeterDiagram
from .enumeration import NormalFormAutomaton
from .hecke import MultiParameter


def is_free_product(diagram: CoxeterDiagram) -> bool:
    gens = diagram.generators
    return all(
        not diagram.commutes(s, t)
        for i, s in enumerate(gens) for t in gens[i + 1:]
    )


class RadialModel:
    """Radial (sphere-sum) algebra of a free product of k involutions at a
    single exact parameter q = r^2."""

    def __init__(self, k: int, r: Fraction):
        if k < 2:
            raise ValueError("need at least two generators")
        self.k = k
        self.r = Fraction(r)
        self.q = self.r * self.r
        self.p = (self.q - 1) / self.r

    # vectors are lists of Fractions, index l = coefficient of h_l

    def sphere_size(self, l: int) -> int:
        return 1 if l == 0 else self.k * (self.k - 1) ** (l - 1)

    def mul_h1(self, vec: Sequence[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * (len(vec) + 1)
        for l, c in enumerate(vec):
            if c == 0:
                continue
            if l == 0:
                out[1] += c
            else:
                out[l + 1] += c
                out[l] += c * self.p
                if l == 1:
                    out[0] += c * self.k
                else:
                    out[l - 1] += c * (self.k - 1)
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def product(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
        """Product of two radial elements in the h-basis."""
        # x * h_m computed by the recursion h_{m+1} = h_1 h_m - p h_m - c_m h_{m-1}
        # with c_1 = k, c_m = k - 1 for m >= 2.
        out = [Fraction(0)]
        xh_prev: list[Fraction] = []          # x * h_{m-1}
        xh = [Fraction(c) for c in x]         # x * h_0 = x
        for m, coef in enumerate(y):
            if coef != 0:
                for l, c in enumerate(xh):
                    if l >= len(out):
                        out.extend([Fraction(0)] * (l - len(out) + 1))
                    out[l] += coef * c
            if m == len(y) - 1:
                break
            nxt = self.mul_h1(xh)
            if m >= 1:
                for l, c in enumerate(xh):
                    nxt[l] -= self.p * c
                cm = self.k if m == 1 else self.k - 1
                for l, c in enumerate(xh_prev):
                    nxt[l] -= cm * c
            while len(nxt) > 1 and nxt[-1] == 0:
                nxt.pop()
            xh_prev, xh = xh, nxt
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def trace(self, vec: Sequence[Fraction]) -> Fraction:
        return Fraction(vec[0]) if vec else Fraction(0)

    def norm2_sq(self, vec: Sequence[Fraction]) -> Fraction:
        acc = Fraction(0)
        for l, c in enumerate(vec):
            acc += c * c * self.sphere_size(l)
        return acc

    # -- central projection partial sums -------------------------------------

    def growth_value(self, t: Fraction) -> Fraction:
        """W at the constant parameter t (exact; requires convergence)."""
        den = 1 - (self.k - 1) * t
        if den <= 0 or t <= 0:
            raise ValueError("parameter outside the convergence region")
        return (1 + t) / den

    def projection_coefficient(self, eps: int) -> Fraction:
        """Coefficient multiplier per letter: eps * q**(eps/2)."""
        return eps * (self.r if eps == 1 else 1 / self.r)

    def e_partial(self, eps: int, cutoff: int) -> list[Fraction]:
        """h-basis vector of E^(cutoff) for the constant sign pattern eps."""
        t = self.q if eps == 1 else 1 / self.q
        w_value = self.growth_value(t)
        gamma = self.projection_coefficient(eps)
        return [gamma ** l / w_value for l in range(cutoff + 1)]

    def idempotent_residual_sq(self, eps: int, cutoff: int) -> Fraction:
        e = self.e_partial(eps, cutoff)
        sq = self.product(e, e)
        diff = [a - b for a, b in zip(sq, e + [Fraction(0)] * (len(sq) - len(e)))]
        return self.norm2_sq(diff)

    def eigen_residual_sq(self, eps: int, cutoff: int) -> Fraction:
        """|| T_a E^(i) - chi(T_a) E^(i) ||_2^2 for the first generator a.

        T_a h_l splits over the sphere parts that do and do not start with a;
        with n_a(l) = (k-1)^(l-1) elements starting with a, the coefficient of
        T_u in T_a E^(i) is beta_{l-1} + p beta_l on the starting part and
        beta_{l+1} on the rest, where beta_l is the sphere coefficient of
        E^(i).
        """
        beta = self.e_partial(eps, cutoff)

        def b(l: int) -> Fraction:
            return beta[l] if 0 <= l < len(beta) else Fraction(0)

        chi = self.projection_coefficient(eps)
        total = Fraction(0)
        # l = 0 (the identity component): coefficient beta_1 from T_a h_1 -> k? no:
        # T_a T_a = T_e + p T_a contributes to T_e with beta_1; T_a T_e -> T_a only.
        total += (b(1) - chi * b(0)) ** 2
        for l in range(1, cutoff + 2):
            n_start = (self.k - 1) ** (l - 1)
            n_rest = self.sphere_size(l) - n_start
            c_start = b(l - 1) + self.p * b(l)
            c_rest = b(l + 1)
            total += n_start * (c_start - chi * b(l)) ** 2
            total += n_rest * (c_rest - chi * b(l)) ** 2
        return total


def cross_pattern_inner(params: MultiParameter, eps1: Sequence[int],
                        eps2: Sequence[int], cutoff: int) -> Fraction:
    """<E^(i)_{eps1}, E^(i)_{eps2}> for a free-product diagram, exactly.

    The basis coefficients multiply letterwise, so the inner product is a
    weighted sphere-sum series with per-letter weight
    (sqrt q)_{s,eps1} * (sqrt q)_{s,eps2}, normalized by both W values.
    """
    from . import growth

    d = params.diagram
    if not is_free_product(d):
        raise ValueError("radial calculus needs a free-product diagram")
    norm = Fraction(1)
    for eps in (eps1, eps2):
        norm *= growth.growth_value(d, params.abs_flip(eps))
    weights = []
    for s, e1, e2 in zip(d.generators, eps1, eps2):
        weights.append(params.char_gen(s, e1) * params.char_gen(s, e2))
    sums = NormalFormAutomaton(d).sphere_series(weights, cutoff)
    return sum(sums) / norm
