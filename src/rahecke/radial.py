"""Exact sphere-sum formulas for the central projection partial sums.

The partial sum E^(i) = (1/W) sum_{|w| <= i} (sqrt q)_{w,eps} T_w has
coefficients that multiply letterwise, so its traces, inner products and
eigen residuals are weighted sphere sums, which the canonical-word
automaton's transfer recursion gives exactly on any right-angled diagram:

* ``cross_pattern_inner``: <E^(i)_{eps1}, E^(i)_{eps2}> is the sphere-sum
  series with per-letter weight (sqrt q)_{s,eps1} (sqrt q)_{s,eps2};
* ``eigen_residuals_sq``: by the one-letter rule and
  chi_s^2 - p_s chi_s - 1 = 0, T_s E^(i) - chi_s E^(i) lives on the edge
  sphere |w| = i, at the w with s not below w, and its squared norm is
  (1 + |q_eps|_s) / W^2 * d_i, with d_i the weighted sphere sum at |q_eps|
  over {|w| = i : s not below w}.  The words of length i with s <= w are
  s u for the u of length i - 1 with s not below u, so with a_i the whole
  weighted sphere sum, d_i = a_i - q_s d_{i-1} and d_0 = 1.

In a free product of k involutions at one parameter q the sphere sums
h_l = sum_{|w|=l} T_w also satisfy the three-term recursion

    h_1 h_l = h_{l+1} + p h_l + (k-1) h_{l-1}   (l >= 2)
    h_1 h_1 = h_2 + p h_1 + k
    h_1 h_0 = h_1

so radial elements form a commutative algebra (``RadialModel``) in which
products, and hence the idempotent residual ||E^(i)^2 - E^(i)||_2^2, are
exact rational computations of size linear in the cutoff.  Products and
norms run on integers over one denominator, with one Fraction per output
entry.  Equality with the generic Hecke machinery is checked at small
cutoffs by the tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import growth
from .enumeration import NormalFormAutomaton
from .hecke import MultiParameter, _over_lcm


class RadialModel:
    """Radial (sphere-sum) algebra of a free product of k involutions at a
    single exact parameter q = r^2."""

    def __init__(self, k: int, r: Fraction):
        if k < 2:
            raise ValueError("need at least two generators")
        if r <= 0:
            raise ValueError("r must be > 0")
        self.k = k
        self.r = Fraction(r)
        self.q = self.r * self.r
        self.p = (self.q - 1) / self.r

    # vectors are lists of Fractions, index l = coefficient of h_l

    def sphere_size(self, l: int) -> int:
        return 1 if l == 0 else self.k * (self.k - 1) ** (l - 1)

    def product(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> list[Fraction]:
        """Product of two radial elements in the h-basis.

        x * h_m follows the recursion h_{m+1} = h_1 h_m - p h_m - c_m h_{m-1}
        (c_1 = k, c_m = k - 1 for m >= 2; h_1 h_0 = h_1) on the integer
        vectors z_m = dx pd^m (x * h_m), with p = pn/pd and x = X/dx, so the
        result is sum_m Y_m pd^(M-m) z_m over the one denominator
        dx dy pd^M, with y = Y/dy of length M + 1."""
        pn, pd = self.p.numerator, self.p.denominator
        xs, dx = _over_lcm(x)
        ys, dy = _over_lcm(y)
        if not xs or not ys:
            return [Fraction(0)]
        top, k = len(ys) - 1, self.k
        acc = [0] * (len(xs) + top)
        prev, z = [], xs + [0] * top        # z_{m-1} and z_m, padded to one length
        for m, ym in enumerate(ys):
            if ym:
                scale = ym * pd ** (top - m)
                acc = [a + scale * c for a, c in zip(acc, z)]
            if m == top:
                break
            # pd h_1 z_m: sphere l rises to l + 1 and falls to l - 1 with
            # multiplicity k (l = 1) or k - 1 (l >= 2); the p h_l that h_1
            # adds for l >= 1 cancels against -p h_m except at l = 0 (m >= 1)
            nxt = ([pd * k * z[1]] + [pd * (a + (k - 1) * b) for a, b in zip(z, z[2:])]
                   + [pd * z[-2]])
            if m == 0:
                nxt[1:] = [c + pn * b for c, b in zip(nxt[1:], z[1:])]
            else:
                nxt[0] -= pn * z[0]
                cm = pd * pd * (k if m == 1 else k - 1)
                nxt = [c - cm * b for c, b in zip(nxt, prev)]
            prev, z = z, nxt
        while len(acc) > 1 and acc[-1] == 0:
            acc.pop()
        den = dx * dy * pd ** top
        return [Fraction(a, den) for a in acc]

    def norm2_sq(self, vec: Sequence[Fraction]) -> Fraction:
        nums, den = _over_lcm(vec)
        return Fraction(sum(n * n * self.sphere_size(l) for l, n in enumerate(nums)), den * den)

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
        if eps not in (1, -1):
            raise ValueError("eps must be 1 or -1")
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        t = self.q if eps == 1 else 1 / self.q
        w_value = self.growth_value(t)
        gamma = self.projection_coefficient(eps)
        return [gamma ** l / w_value for l in range(cutoff + 1)]

    def idempotent_residual_sq(self, eps: int, cutoff: int) -> Fraction:
        e = self.e_partial(eps, cutoff)
        sq = self.product(e, e)
        diff = [a - b for a, b in zip(sq, e + [Fraction(0)] * (len(sq) - len(e)))]
        return self.norm2_sq(diff)


def cross_pattern_inner(params: MultiParameter, eps1: Sequence[int],
                        eps2: Sequence[int], cutoff: int) -> Fraction:
    """<E^(i)_{eps1}, E^(i)_{eps2}> at i = cutoff, exactly.

    The basis coefficients multiply letterwise, so the inner product is a
    weighted sphere-sum series with per-letter weight
    (sqrt q)_{s,eps1} * (sqrt q)_{s,eps2}, normalized by both W values.
    """
    d = params.diagram
    norm = Fraction(1)
    for eps in (eps1, eps2):
        norm *= growth.growth_value(d, params.abs_flip(eps))
    weights = []
    for s, e1, e2 in zip(d.generators, eps1, eps2):
        weights.append(params.char_gen(s, e1) * params.char_gen(s, e2))
    sums = NormalFormAutomaton(d).sphere_series(weights, cutoff)
    return sum(sums) / norm


def eigen_residuals_sq(params: MultiParameter, eps: Sequence[int], s: str,
                       cutoff: int) -> list[Fraction]:
    """[||T_s E^(i) - chi_eps(T_s) E^(i)||_2^2 for i = 0..cutoff], exactly,
    as (1 + |q_eps|_s) / W^2 * d_i, d_i = a_i - q_s d_{i-1} on one pass of
    the sphere series a_i.  Refuses flips whose |q_eps| is not strictly
    inside the region."""
    d = params.diagram
    q = params.abs_flip(eps)
    w_value = growth.growth_value(d, q)
    a = NormalFormAutomaton(d).sphere_series([q[t] for t in d.generators], cutoff)
    scale = (1 + q[s]) / (w_value * w_value)
    out, di = [], Fraction(0)
    for ai in a:
        di = ai - q[s] * di
        out.append(scale * di)
    return out
