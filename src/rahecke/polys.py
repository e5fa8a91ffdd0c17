"""Dense univariate integer polynomials and exact isolation of the smallest
positive real root by Descartes' rule of signs on dyadic cells.

Polynomials are lists of ints, lowest degree first, with no trailing zeros
(the zero polynomial is the empty list).  Division is by pseudo-remainders
scaled by |lc|^k, so a remainder is a positive multiple of the rational one
and keeps its sign; the one gcd, of f and f', is a primitive remainder
sequence (W. S. Brown, J. ACM 18, 1971).  Every sign is taken at x = a/b by
integer Horner evaluation.

``isolate_smallest_positive_root`` is the one isolation routine.  It runs in
two phases, both on integers over one power of 2.  Phase 1 is Descartes
subdivision (Collins and Akritas, SYMSAC 1976; Rouillier and Zimmermann,
J. Comput. Appl. Math. 162, 2004) on dyadic cells of (0, 1] or (0, 2^j]:
the sign variations of a cell's polynomial, mapped to (0, 1), reversed and
shifted by 1, bound its roots in the cell, exactly when they are 0 or 1.
Cells are taken left first, so the first that reads 1 holds the smallest
positive root; it then halves on the sign of the polynomial alone until the
cell leaves 0.  A repeated root reads 2 or more in every cell around it, so
the polynomial is replaced by its squarefree part (one gcd) the first time a
cell reads 2 or more, and not otherwise.  Phase 2 does not bisect: the
bracket that bisecting on that sign would end in is a cell of a dyadic grid
known in advance, and safeguarded Newton on the integer points of that grid
finds it: the exact sign at every iterate narrows the bracket.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Poly = list[int]

# Width of every isolating interval that isolate_smallest_positive_root returns.
BISECTION_BITS = 64
BISECTION_WIDTH = Fraction(1, 2 ** BISECTION_BITS)


def trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def derivative(p: Poly) -> Poly:
    return trim([c * i for i, c in enumerate(p)][1:])


def primitive(p: Poly) -> Poly:
    """p divided by the gcd of its coefficients; the sign is kept."""
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else list(p)


def prem(p: Poly, q: Poly) -> Poly:
    """Remainder of |lc q|^k * p by q, k the number of division steps: a
    positive multiple of the rational remainder, so every sign is kept."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = len(q) - 1
    lead = abs(q[-1])
    sign = 1 if q[-1] > 0 else -1
    while rem and len(rem) - 1 >= dq:
        c = sign * rem[-1]
        k = len(rem) - 1 - dq
        rem = [lead * a for a in rem]
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        trim(rem)
    return rem


def exact_div(p: Poly, q: Poly) -> Poly:
    """p / q over the integers; raises unless q divides p.  For primitive q
    this is exact whenever the rational division is (Gauss's lemma)."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = len(q) - 1
    quo = [0] * max(0, len(p) - dq)
    while rem and len(rem) - 1 >= dq:
        c, r = divmod(rem[-1], q[-1])
        if r:
            break
        k = len(rem) - 1 - dq
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        trim(rem)
    if rem:
        raise ValueError("division is not exact")
    return trim(quo)


def _sign(p: Poly, a: int, b: int) -> int:
    """Sign of p(a/b) for integer p and b > 0: integer Horner on the
    homogenised sum c_i a^i b^(n-i)."""
    acc = 0
    bp = 1
    for c in reversed(p):
        acc = acc * a + c * bp
        bp *= b
    return (acc > 0) - (acc < 0)


def cauchy_bound(p: Poly) -> Fraction:
    """All real roots of p lie in (-B, B)."""
    lead = abs(p[-1])
    return Fraction(1) + Fraction(max(abs(c) for c in p)) / lead


def _squarefree(f: Poly) -> Poly:
    """f divided by gcd(f, f'), the last member of their primitive remainder
    sequence: the same roots as f, each simple."""
    g, r = primitive(f), primitive(derivative(f))
    while r:
        g, r = r, primitive(prem(g, r))
    return exact_div(f, g)


def _shift(p: Poly) -> Poly:
    """p(x + 1), the Taylor shift by 1 in n(n + 1)/2 additions."""
    q = list(p)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += q[j + 1]
    return q


def _descartes(p: Poly) -> int:
    """Descartes' bound on the roots of p in (0, 1), counted with
    multiplicity: the sign variations of (1 + x)^n p(1 / (1 + x)).  It
    exceeds the count by an even number, so it is exact when 0 or 1."""
    signs = [c > 0 for c in _shift(p[::-1]) if c]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def isolate_smallest_positive_root(f: Poly) -> tuple[Fraction, Fraction] | None:
    """Isolating interval for the smallest positive real root of an integer
    polynomial f with f(0) != 0; repeated roots are allowed.

    Returns dyadic (lo, hi] with lo < root <= hi, hi - lo <= BISECTION_WIDTH
    and exactly one root of f inside, or (r, r) when the root is hit exactly,
    or None when f has no positive real root.

    Phase 1 starts at (0, w]: w = 1 when f(0) and f(1) differ in sign, so
    that a root lies in (0, 1); otherwise, unless f's coefficients have no
    sign variation (no positive root), w = 2^j, the least with 2^j >= the
    Cauchy bound.  A cell is lo = a/d, hi = (a + w)/d, d a power of 2, with
    P(x) a positive multiple of f(lo + (hi - lo) x).  A cell whose
    Descartes bound is 0 is dropped; one whose bound is 2 or more is split,
    left half first: the left half's P is P(x/2) 2^n, the right half's that
    shifted by 1, whose value at 0 is zero exactly when the midpoint m is a
    root; m is then returned once the left half is found to hold none.  The
    first cell whose bound is 1 holds the smallest positive root, simple.
    While lo = 0 that root lies in (lo, mid] exactly when f(mid) = 0 or
    sign f(mid) != sign f(0), so phase 1 halves on the sign of f alone until
    lo > 0; phase 2 (``_refine``) then returns the bracket that bisecting on
    that sign ends in.  Each cell is a dyadic cell of (0, w], so that
    bracket is the cell of the final grid that holds the root, whichever
    cell phase 1 ends in.
    """
    if sum(f) * f[0] < 0:
        w = 1
    elif all(c * f[0] >= 0 for c in f):
        return None
    else:
        w, bound = 1, cauchy_bound(f)
        while w < bound:
            w *= 2
    cells = [(0, 1, [c * w ** i for i, c in enumerate(f)])]
    while cells:
        a, d, p = cells.pop()
        if p is None:
            return (Fraction(a, d), Fraction(a, d))
        count = _descartes(p)
        if count >= 2 and d == 1:
            # The start cell is the only one with d = 1: f is made
            # squarefree at most once, and only where a root may repeat.
            f = _squarefree(f)
            p = [c * w ** i for i, c in enumerate(f)]
            count = _descartes(p)
        if count == 1:
            break
        if count >= 2:
            n = len(p) - 1
            left = [c << (n - i) for i, c in enumerate(p)]
            right = _shift(left)
            cells.append((2 * a + w, 2 * d, right if right[0] else None))
            cells.append((2 * a, 2 * d, left))
    else:
        return None
    b = a + w
    while a == 0:
        m, b, d = b, 2 * b, 2 * d  # the midpoint of (0, b/d] is b/2d
        sign = _sign(f, m, d)
        if sign == 0:
            return (Fraction(m, d), Fraction(m, d))
        if (sign > 0) != (f[0] > 0):
            b = m
        else:
            a = m
    return _refine(f, a, b, d)


def _refine(f: Poly, a: int, b: int, d: int) -> tuple[Fraction, Fraction]:
    """Phase 2: the root t0 of f in (a/d, b/d), bracketed on the final grid.

    Requires the phase-1 bracket: d a power of 2, a > 0, and exactly one
    root of f in (a/d, b/d), simple, and none in (0, a/d].  So f has the sign
    of f(0) on (0, t0) and the other sign on (t0, b/d].

    Bisecting on that sign keeps w = b - a and doubles d at every step until
    w/d <= BISECTION_WIDTH.  It therefore ends in the cell
    ((A + w j)/D, (A + w (j+1))/D) that holds t0, where D = d 2^K, A = a 2^K
    and K is the least k >= 0 with w 2^BISECTION_BITS <= d 2^k; or at
    (t0, t0) when t0 is a point of that grid, for then it is a midpoint on
    the way.  Here j is found by safeguarded Newton on the points
    P = A + w j, started at the midpoint of (lo, hi) = (0, 2^K).  The sign
    of each F(P) (``_newton_step``) narrows (lo, hi), so the loop ends in
    bisection's bracket whatever the steps.  A step shorter than one grid
    point moves one point towards t0.  A step that would leave (lo, hi)
    goes to the point next to the end it passed while that end is phase
    1's, so a root within one cell of it is not approached by halving;
    otherwise it goes to the midpoint.  After K iterates only midpoints are
    taken, so at most 2K values of F are computed.
    """
    w = b - a
    k = max(0, (w - 1).bit_length() + BISECTION_BITS - (d.bit_length() - 1))
    big_a, big_d = a << k, d << k
    lo, hi, n = 0, 1 << k, 0
    j = hi // 2
    while hi - lo > 1:
        value, step = _newton_step(f, big_a + w * j, big_d)
        if value == 0:
            r = Fraction(big_a + w * j, big_d)
            return (r, r)
        up = (value > 0) == (f[0] > 0)
        lo, hi = (j, hi) if up else (lo, j)
        n += 1
        nxt = j + (1 if up else -1) if abs(step) < w else j - step // w
        if n >= k:
            j = (lo + hi) // 2
        elif lo < nxt < hi:
            j = nxt
        elif nxt <= lo == 0:
            j = 1
        elif nxt >= hi == 1 << k:
            j = hi - 1
        else:
            j = (lo + hi) // 2
    return (Fraction(big_a + w * lo, big_d), Fraction(big_a + w * hi, big_d))


def _newton_step(f: Poly, p: int, d: int) -> tuple[int, int]:
    """(F(p), F(p) // F'(p)) for F(P) = d^n f(P/d), the step 0 when F'(p) = 0:
    F(p) has the sign of f(p/d), and p minus the step is the Newton step
    towards a root of f on the grid 1/d."""
    acc = dacc = 0
    dp = 1
    for c in reversed(f):
        dacc = dacc * p + acc
        acc = acc * p + c * dp
        dp *= d
    return acc, acc // dacc if dacc else 0
