"""Dense univariate integer polynomials, with Sturm-based real-root counting
and exact root isolation.

Polynomials are lists of ints, lowest degree first, with no trailing zeros
(the zero polynomial is the empty list).  Division is by pseudo-remainders
scaled by |lc|^k, so a remainder is a positive multiple of the rational one
and keeps its sign; Sturm chains are primitive remainder sequences (W. S.
Brown, J. ACM 18, 1971) ending in gcd(p, p'), so one chain both tests p for
squares and counts its roots.  Every sign is taken at x = a/b by integer Horner
evaluation.

``isolate_smallest_positive_root`` is the one isolation routine.  It runs in
two phases, both on integers over one power of 2.  Phase 1 bisects on Sturm
counts, from (0, 1] when the counts at 0 and 1 put a root there, until the
bracket (0, hi] holds exactly one root; it then halves on the sign of the
polynomial alone until the bracket leaves 0.  Phase 2 does not bisect: the
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


def degree(p: Poly) -> int:
    return len(p) - 1


def evaluate(p: Poly, x: Fraction | int) -> Fraction | int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


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


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of a squarefree polynomial, each member primitive: p, p'
    and the negated pseudo-remainders.  Each member is a positive multiple
    of the rational Sturm chain's, so every sign and Sturm count is too.
    The last member is gcd(p, p') times a constant."""
    chain = [primitive(p), primitive(derivative(p))]
    while chain[-1]:
        rem = prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(primitive([-c for c in rem]))
    return [c for c in chain if c]


def squarefree_sturm_chain(p: Poly) -> list[Poly]:
    """The Sturm chain of the squarefree part of a nonconstant p.  The
    remainder sequence of p ends in g = gcd(p, p') up to sign: a constant
    when p is squarefree, so the chain is p's own; otherwise the chain is
    that of p / g."""
    chain = sturm_chain(p)
    g = chain[-1]
    if degree(g) < 1:
        return chain
    return sturm_chain(exact_div(p, g if g[-1] > 0 else [-c for c in g]))


def _sign(p: Poly, a: int, b: int) -> int:
    """Sign of p(a/b) for integer p and b > 0: integer Horner on the
    homogenised sum c_i a^i b^(n-i)."""
    acc = 0
    bp = 1
    for c in reversed(p):
        acc = acc * a + c * bp
        bp *= b
    return (acc > 0) - (acc < 0)


def _variations(chain: list[Poly], a: int, b: int) -> int:
    """Sign variations of the chain at a/b, b > 0, zeros skipped."""
    signs = [s for s in (_sign(p, a, b) for p in chain) if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def cauchy_bound(p: Poly) -> Fraction:
    """All real roots of p lie in (-B, B)."""
    lead = abs(p[-1])
    return Fraction(1) + Fraction(max(abs(c) for c in p)) / lead


def isolate_smallest_positive_root(chain: list[Poly],
                                   counts: tuple[int, int] | None = None
                                   ) -> tuple[Fraction, Fraction] | None:
    """Isolating interval for the smallest positive real root of f, given
    the Sturm chain of f (squarefree, with f(0) != 0; f is the chain's head)
    and its variation counts (v(0), v(1)), which are taken when not given.

    Returns dyadic (lo, hi] with lo < root <= hi, hi - lo <= BISECTION_WIDTH
    and exactly one root of f inside, or (r, r) when the root is hit exactly,
    or None when f has no positive real root.

    The bracket (lo, hi] is kept as lo = a/d and hi = b/d, d a power of 2.
    Phase 1 bisects until (lo, hi] holds exactly one root and lo > 0.  While
    the root is not isolated it bisects on Sturm counts, carrying the
    variation counts at lo and hi, so each step evaluates the chain at the
    midpoint alone.  Once (lo, hi] holds one root, that root lies in
    (lo, mid] exactly when f(mid) = 0 or sign f(mid) != sign f(lo), so the
    steps that remain until lo > 0 (lo = 0 throughout) and phase 2
    (``_refine``) need the sign of f alone; phase 2 returns the bracket that
    bisecting on that sign ends in, so the brackets are those of a
    Sturm-count bisection.

    From the Cauchy bound B >= 2 the bisection halves (0, 2^j] down to
    (0, 1] when f has a root there, so then phase 1 starts at (0, 1]:
    deflating a midpoint root 2^j > 1 keeps every count in (0, 1], and
    ``_refine`` cancels the power of 2 the final (a, b, d) differs by.  A
    root at 1 is deflated as the midpoint of (0, 2] would be.  Otherwise it
    starts at (0, 2^j], the least with 2^j >= B.
    """
    if counts is None:
        counts = _variations(chain, 0, 1), _variations(chain, 1, 1)
    a, b, d = 0, 1, 1
    v_lo, v_hi = counts
    if v_lo == v_hi:
        bound = cauchy_bound(chain[0])
        while b < bound:
            b *= 2
        v_hi = _variations(chain, b, d)
        if v_lo == v_hi:
            return None
    elif _sign(chain[0], 1, 1) == 0:
        chain = sturm_chain(exact_div(chain[0], [-1, 1]))
        v_lo, v_hi = _variations(chain, 0, 1), _variations(chain, 1, 1)
        if v_lo == v_hi:
            return (Fraction(1), Fraction(1))
    while v_lo - v_hi != 1 or a == 0:
        a, b, d = 2 * a, 2 * b, 2 * d
        m = (a + b) // 2
        sign = _sign(chain[0], m, d)
        if sign == 0:
            # m/d is a rational root; it is the smallest in (lo, hi] unless
            # the deflated polynomial still has one strictly below it.  Only
            # the reduced factor is primitive, so only it divides exactly.
            g = gcd(m, d)
            chain = sturm_chain(exact_div(chain[0], [-(m // g), d // g]))
            v_lo, v_hi = _variations(chain, a, d), _variations(chain, m, d)
            if v_lo == v_hi:
                return (Fraction(m, d), Fraction(m, d))
            b = m
            continue
        if v_lo - v_hi == 1:
            # (0, b/d] holds one simple root: it lies in (0, m/d] exactly
            # when f changes sign there; the counts are not needed again.
            if (sign > 0) != (chain[0][0] > 0):
                b = m
            else:
                a = m
            continue
        v_mid = _variations(chain, m, d)
        if v_lo - v_mid >= 1:
            b, v_hi = m, v_mid
        else:
            a, v_lo = m, v_mid
    return _refine(chain[0], a, b, d)


def _refine(f: Poly, a: int, b: int, d: int) -> tuple[Fraction, Fraction]:
    """Phase 2: the root t0 of f in (a/d, b/d), bracketed on the final grid.

    Requires the phase-1 bracket: d a power of 2, a > 0, f squarefree with
    exactly one root in (a/d, b/d) and none in (0, a/d].  So f has the sign
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
