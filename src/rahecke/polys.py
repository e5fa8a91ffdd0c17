"""Dense univariate polynomials over the rationals, with Sturm-based
real-root counting and exact bisection.

Polynomials are lists of Fractions, lowest degree first, with no trailing
zeros (the zero polynomial is the empty list).  A Sturm chain is kept as
integer coefficient lists (each member scaled once by a positive rational),
and every sign in it is taken at x = a/b by integer Horner evaluation.

``isolate_smallest_positive_root`` is the one bisection routine.  It runs in
two phases: Sturm counts until the bracket isolates the root, then the sign
of the polynomial alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Poly = list[Fraction]

# Width of every isolating interval that smallest_positive_root returns.
BISECTION_WIDTH = Fraction(1, 2 ** 64)


def trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def from_coeffs(cs) -> Poly:
    return trim([Fraction(c) for c in cs])


def degree(p: Poly) -> int:
    return len(p) - 1


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim([
        (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
        for i in range(n)
    ])


def neg(p: Poly) -> Poly:
    return [-c for c in p]


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p: Poly, c: Fraction) -> Poly:
    return trim([a * c for a in p])


def evaluate(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return trim([c * i for i, c in enumerate(p)][1:])


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) - 1 >= dq and rem:
        c = rem[-1] / lead
        k = len(rem) - 1 - dq
        quo[k] = c
        for i in range(len(q)):
            rem[k + i] -= c * q[i]
        trim(rem)
        if not rem:
            break
    return trim(quo), rem


def gcd_poly(p: Poly, q: Poly) -> Poly:
    a, b = list(p), list(q)
    while b:
        a, b = b, divmod_poly(a, b)[1]
    if a:
        a = scale(a, Fraction(1) / a[-1])  # monic
    return a


def exact_div(p: Poly, q: Poly) -> Poly:
    quo, rem = divmod_poly(p, q)
    if rem:
        raise ValueError("division is not exact")
    return quo


def squarefree_part(p: Poly) -> Poly:
    if degree(p) < 1:
        return list(p)
    g = gcd_poly(p, derivative(p))
    if degree(g) < 1:
        return list(p)
    return exact_div(p, g)


def sturm_chain(p: Poly) -> list[list[int]]:
    """Sturm chain of a squarefree polynomial, each member scaled once to
    primitive integer coefficients (lowest degree first).  The scale is
    positive, so every sign, and with it every Sturm count, is unchanged."""
    chain = [list(p), derivative(p)]
    while chain[-1]:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(neg(rem))
    return [_primitive(c) for c in chain if c]


def _primitive(p: Poly) -> list[int]:
    den = lcm(*(Fraction(c).denominator for c in p))
    ints = [int(c * den) for c in p]
    g = gcd(*ints)
    return [c // g for c in ints]


def _sign(p: list[int], a: int, b: int) -> int:
    """Sign of p(a/b) for integer p and b > 0: integer Horner on the
    homogenised sum c_i a^i b^(n-i)."""
    acc = 0
    bp = 1
    for c in reversed(p):
        acc = acc * a + c * bp
        bp *= b
    return (acc > 0) - (acc < 0)


def sign_variations(chain: list[list[int]], x: Fraction) -> int:
    a, b = x.numerator, x.denominator
    signs = [s for s in (_sign(p, a, b) for p in chain) if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def count_roots(chain: list[list[int]], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b] for a squarefree chain."""
    return sign_variations(chain, a) - sign_variations(chain, b)


def cauchy_bound(p: Poly) -> Fraction:
    """All real roots of p lie in (-B, B)."""
    lead = abs(p[-1])
    return Fraction(1) + Fraction(max(abs(c) for c in p)) / lead


def smallest_positive_root(p: Poly) -> tuple[Fraction, Fraction] | None:
    """Isolating interval for the smallest positive real root of p.

    Returns dyadic (lo, hi] with lo < root <= hi, hi - lo <= BISECTION_WIDTH
    and exactly one root of p inside, or (r, r) when the root is hit exactly,
    or None when p has no positive real root.  Requires p(0) != 0.
    """
    f = squarefree_part(p)
    if degree(f) < 1:
        return None
    if evaluate(f, Fraction(0)) == 0:
        raise ValueError("polynomial vanishes at 0")
    return isolate_smallest_positive_root(sturm_chain(f))


def isolate_smallest_positive_root(chain: list[list[int]]
                                   ) -> tuple[Fraction, Fraction] | None:
    """The bisection behind ``smallest_positive_root``, given the Sturm chain
    of the squarefree part (whose head must not vanish at 0).

    Phase 1 bisects on Sturm counts until (lo, hi] holds exactly one root and
    lo > 0.  From then on the root lies in (lo, mid] exactly when f(mid) = 0
    or sign f(mid) != sign f(lo), so phase 2 evaluates f alone, at dyadic
    points kept as integer numerators over a common power of 2.  Both phases
    test the same predicate, so the brackets are those of a Sturm-count
    bisection.
    """
    hi = Fraction(1)
    bound = cauchy_bound(chain[0])
    while hi < bound:
        hi *= 2
    lo = Fraction(0)
    if count_roots(chain, lo, hi) == 0:
        return None
    while count_roots(chain, lo, hi) != 1 or lo == 0:
        mid = (lo + hi) / 2
        if _sign(chain[0], mid.numerator, mid.denominator) == 0:
            # mid is a rational root; it is the smallest in (lo, hi] unless
            # the deflated polynomial still has one strictly below it.
            f = exact_div(from_coeffs(chain[0]), [-mid, Fraction(1)])
            chain = sturm_chain(f)
            if count_roots(chain, lo, mid) == 0:
                return (mid, mid)
            hi = mid
        elif count_roots(chain, lo, mid) >= 1:
            hi = mid
        else:
            lo = mid
    # Phase 2: lo = a/d and hi = b/d with d a power of 2.
    f = chain[0]
    d = max(lo.denominator, hi.denominator)
    a, b = int(lo * d), int(hi * d)
    s_lo = _sign(f, a, d)
    while (b - a) * BISECTION_WIDTH.denominator > BISECTION_WIDTH.numerator * d:
        a, b, d = 2 * a, 2 * b, 2 * d
        m = (a + b) // 2
        s = _sign(f, m, d)
        if s == 0:
            return (Fraction(m, d), Fraction(m, d))
        if s != s_lo:
            b = m
        else:
            a = m
    return (Fraction(a, d), Fraction(b, d))


def power_series_inverse(p: Poly, nterms: int) -> list[Fraction]:
    """First ``nterms`` coefficients of 1/p as a power series; p(0) != 0."""
    if not p or p[0] == 0:
        raise ValueError("series inverse requires a unit constant term")
    inv0 = Fraction(1) / p[0]
    out = [inv0]
    for n in range(1, nterms):
        acc = Fraction(0)
        for k in range(1, min(n, len(p) - 1) + 1):
            acc += p[k] * out[n - k]
        out.append(-inv0 * acc)
    return out
