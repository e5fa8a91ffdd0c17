"""Growth series of right-angled Coxeter groups and the simplicity verdict.

The reciprocal of the full growth series is the clique sum

    D(q) = sum over cliques G of the commuting graph of prod_{s in G} (-q_s / (1 + q_s)),

with the empty clique contributing 1.  Along the ray t -> t*q, with
q_s = a_s / b_s, the clique sum over the common denominator
prod_s (b_s + a_s t) is an integer polynomial, and W(t*q) is a rational
function of t whose reduced numerator N is kept as primitive integers with
N(0) > 0: the sum divided by its gcd with the denominator, which is the
product of the denominator's linear factors that divide it.  The growth
exponent rho(q) is the reciprocal of the smallest positive root t0 of N (and
0 when N has no positive root, i.e. W is finite).
Since the series has nonnegative coefficients, its radius of convergence is
t0, so

    q inside the convergence region  <=>  rho(q) < 1  <=>  N has no root in (0, 1].

All decisions are made by exact sign evaluations and Sturm counts; the
boundary (rho = 1) is the exact condition that 1 is the only root of N in
(0, 1].  One ray fraction, its reduced numerator and one Sturm chain per
parameter give the membership, D(q) = num(1) / den(1) and, when asked, the
bracket of t0 (see polys for the two-phase bisection).  The clique products
of the ray fraction are packed as integers, each its value at t = 2^k for a
k that keeps every coefficient one balanced base-2^k digit.  The chain is
one remainder sequence of N unless N has a repeated root, and its counts at
0 and 1 that give the membership also start the bisection at (0, 1] when N
has a root there.  The classifier analyses each distinct |q_eps| once; flips
that differ only at generators with q_s = 1 share the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from typing import Mapping

from . import polys
from .coxeter import CoxeterDiagram

SignPattern = tuple[int, ...]
Bracket = tuple[Fraction, Fraction]


def positive_parameters(diagram: CoxeterDiagram, q: Mapping[str, object],
                        convert=Fraction) -> dict:
    """convert(q_s) for every generator s, refused by name unless positive."""
    out = {}
    for s in diagram.generators:
        if s not in q:
            raise ValueError(f"missing parameter for generator {s!r}")
        val = convert(q[s])
        if val <= 0:
            raise ValueError(f"parameter q[{s!r}] must be positive")
        out[s] = val
    return out


def growth_reciprocal(diagram: CoxeterDiagram, q: Mapping[str, Fraction]) -> Fraction:
    """D(q) = 1/W(q), exactly: the ray fraction at t = 1."""
    num, den = _ray_fraction(diagram, positive_parameters(diagram, q))
    return Fraction(sum(num), sum(den))


def growth_value(diagram: CoxeterDiagram, q: Mapping[str, Fraction]) -> Fraction:
    """W(q) as an exact rational; requires q strictly inside the region."""
    qq = positive_parameters(diagram, q)
    membership, _, _, (num, den) = _ray_analysis(diagram, qq, bracket=False)
    if membership != "Interior":
        raise ValueError("growth series does not converge at this parameter")
    return Fraction(sum(den), sum(num))


def _ray_fraction(diagram: CoxeterDiagram, qq: Mapping[str, Fraction]
                  ) -> tuple[polys.Poly, polys.Poly]:
    """Integer (num, den) with D(t*q) = num(t) / den(t): with q_s = a_s / b_s,
    den = prod_s (b_s + a_s t) and num is the clique sum over it,
    sum_G prod_{s in G} (-a_s t) prod_{s not in G} (b_s + a_s t), not reduced."""
    # The cliques of gens[:i] (bitmasks) with their products, grown one
    # generator at a time (a shared prefix is multiplied once); the empty one
    # ends as den.  A clique takes s unless it meets ``blocked`` by s.  Each
    # product is packed as one integer, its value at t = 2^k.  Every
    # coefficient of num and den lies below bound = 2^(rank-1) prod_s (a_s +
    # b_s) < 2^(k-1) in size, so it is one balanced base-2^k digit: den's are
    # positive and sum to prod_s (a_s + b_s); den's of t^j sums
    # prod_{s in U} a_s prod_{s not in U} b_s over the j-sets U, and num's
    # sums the same products, each times the even minus the odd cliques
    # inside U, so it is at most 2^(j-1) times den's for j >= 1.
    gens = diagram.generators
    bound = 1 << (len(gens) - 1)
    for s in gens:
        bound *= qq[s].numerator + qq[s].denominator
    k = bound.bit_length() + 1
    partial: list[tuple[int, int]] = [(0, 1)]
    for i, s in enumerate(gens):
        a, b = qq[s].numerator, qq[s].denominator
        blocked = diagram.conflict[i] & ((1 << i) - 1)
        up, down = b + (a << k), -(a << k)  # b + a t and -a t at t = 2^k
        grown = []
        for clique, value in partial:
            grown.append((clique, value * up))
            if not clique & blocked:
                grown.append((clique | 1 << i, value * down))
        partial = grown
    # num and den have degree at most rank: rank + 1 digits each.
    n = len(gens) + 1
    return (polys.trim(_digits(sum(value for _, value in partial), k, n)),
            _digits(partial[0][1], k, n))


def _digits(value: int, k: int, n: int) -> polys.Poly:
    """The n balanced base-2^k digits of value, lowest first: the
    coefficients of the polynomial of degree < n whose value at t = 2^k is
    ``value``, given that each lies in (-2^(k-1), 2^(k-1))."""
    mask, half = (1 << k) - 1, 1 << (k - 1)
    out = []
    for _ in range(n):
        digit = value & mask
        if digit >= half:
            digit -= 1 << k
        out.append(digit)
        value = (value - digit) >> k
    return out


def ray_numerator(diagram: CoxeterDiagram, q: Mapping[str, Fraction],
                  num: polys.Poly) -> polys.Poly:
    """Reduced numerator N(t) of D(t*q): primitive integers with N(0) > 0,
    reduced from ``num``, the numerator of ``_ray_fraction`` at q.  ``q`` is
    taken as checked, a positive ``Fraction`` for every generator (as
    ``positive_parameters`` returns it), and is not checked again."""
    # den's factors b_s + a_s t are primitive with positive leads: those that
    # divide num, once per generator, multiply to gcd(num, den) (Gauss).
    for s in diagram.generators:
        a, b = q[s].numerator, q[s].denominator
        if polys._sign(num, -b, a) == 0:
            num = polys.exact_div(num, [b, a])
    num = polys.primitive(num)
    if num[0] <= 0:
        raise RuntimeError("cleared numerator is not positive at 0; invalid input")
    return num


@dataclass(frozen=True)
class GrowthReport:
    """Exact growth data of (diagram, q) along the ray t -> t*q."""

    diagram: CoxeterDiagram
    q: dict
    reciprocal_value: Fraction
    cleared_polynomial: list
    t0: tuple[Fraction, Fraction] | None   # None means +infinity (finite group)
    rho: tuple[Fraction, Fraction]
    membership: str  # 'Interior' | 'Boundary' | 'Exterior', as region_membership

    def rho_float(self) -> float:
        return float((self.rho[0] + self.rho[1]) / 2)


def _ray_analysis(diagram: CoxeterDiagram, qq: Mapping[str, Fraction], bracket: bool
                  ) -> tuple[str, Bracket | None, polys.Poly,
                             tuple[polys.Poly, polys.Poly]]:
    """(membership, t0, N, (num, den)) of a checked parameter from one ray
    fraction num / den, its reduced numerator N and one Sturm chain of N's
    squarefree part.  t0 is the isolating interval of the smallest positive
    root of N, bisected only when ``bracket`` is true (None otherwise, and
    when N has no positive root).

    Membership: no root of N in (0, 1] is Interior (rho < 1); N(1) = 0 as
    the only root in (0, 1] is Boundary (rho = 1); anything else has a root
    below 1 and is Exterior (rho > 1)."""
    fraction = _ray_fraction(diagram, qq)
    num = ray_numerator(diagram, qq, fraction[0])
    if polys.degree(num) < 1:
        return "Interior", None, num, fraction
    chain = polys.squarefree_sturm_chain(num)
    counts = polys._variations(chain, 0, 1), polys._variations(chain, 1, 1)
    inside = counts[0] - counts[1]
    if inside == 0:
        membership = "Interior"
    elif inside == 1 and polys.evaluate(num, 1) == 0:
        membership = "Boundary"
    else:
        membership = "Exterior"
    t0 = polys.isolate_smallest_positive_root(chain, counts) if bracket else None
    return membership, t0, num, fraction


def _rho(t0: Bracket | None) -> Bracket:
    if t0 is None:
        return (Fraction(0), Fraction(0))
    lo, hi = t0
    return (1 / hi, 1 / lo)


def pole_and_rho(diagram: CoxeterDiagram, q: Mapping[str, Fraction]) -> GrowthReport:
    """Isolate the smallest positive pole t0 of t -> W(t*q) and rho = 1/t0;
    the membership and D(q) come from the same ray analysis."""
    qq = positive_parameters(diagram, q)
    membership, t0, num, (full, den) = _ray_analysis(diagram, qq, bracket=True)
    return GrowthReport(
        diagram=diagram,
        q=dict(qq),
        reciprocal_value=Fraction(sum(full), sum(den)),
        cleared_polynomial=[Fraction(c, num[0]) for c in num],
        t0=t0,
        rho=_rho(t0),
        membership=membership,
    )


def region_membership(diagram: CoxeterDiagram, q: Mapping[str, Fraction]) -> str:
    """Position of q relative to the positive part of the convergence region:
    'Interior' (rho < 1), 'Boundary' (rho = 1) or 'Exterior' (rho > 1).
    Decided by Sturm counts alone; no bisection."""
    qq = positive_parameters(diagram, q)
    return _ray_analysis(diagram, qq, bracket=False)[0]


def all_sign_patterns(rank: int) -> list[SignPattern]:
    return [pat for pat in iproduct((1, -1), repeat=rank)]


def flipped_parameter(diagram: CoxeterDiagram, q: Mapping[str, Fraction],
                      eps: SignPattern) -> dict[str, Fraction]:
    """|q_eps| = (q_s ** eps_s), coordinatewise."""
    out = {}
    for s, e in zip(diagram.generators, eps):
        qs = Fraction(q[s])
        out[s] = qs if e == 1 else 1 / qs
    return out


@dataclass(frozen=True)
class Verdict:
    """Simplicity verdict of the Hecke C*-algebra at a parameter."""

    status: str  # 'Simple' | 'NotSimple' | 'NotApplicable'
    witnesses: tuple[SignPattern, ...] = ()
    boundary_flags: tuple[SignPattern, ...] = ()
    reason: str | None = None
    per_flip: dict = field(default_factory=dict, compare=False)


def classify_simplicity(diagram: CoxeterDiagram, q: Mapping[str, Fraction]) -> Verdict:
    """Decide simplicity: not simple exactly when some sign flip of q has
    growth exponent at most 1.  Finite rank, irreducible diagrams only; the
    infinite-rank case is always simple and is not computed here."""
    if not diagram.is_irreducible():
        return Verdict(status="NotApplicable", reason="diagram is reducible")
    qq = positive_parameters(diagram, q)
    witnesses: list[SignPattern] = []
    boundary: list[SignPattern] = []
    per_flip: dict[SignPattern, dict] = {}
    # Flips with equal |q_eps| share one analysis: they differ only at
    # generators with q_s = 1, where the key keeps eps_s = 1.  Each q_s and
    # 1/q_s (index 0 or 1, as eps_s is 1 or -1) is computed once.
    gens = diagram.generators
    pairs = [(qq[s], 1 / qq[s]) for s in gens]
    analyses: dict[SignPattern, tuple[str, Bracket | None, Bracket]] = {}
    for eps in all_sign_patterns(diagram.rank):
        key = tuple(1 if pair[0] == 1 else e for pair, e in zip(pairs, eps))
        if key not in analyses:
            qe = {s: pair[e < 0] for s, pair, e in zip(gens, pairs, key)}
            membership, t0, _, _ = _ray_analysis(diagram, qe, bracket=True)
            analyses[key] = membership, t0, _rho(t0)
        membership, t0, rho = analyses[key]
        per_flip[eps] = {"membership": membership, "t0": t0, "rho": rho}
        if membership in ("Interior", "Boundary"):
            witnesses.append(eps)
        if membership == "Boundary":
            boundary.append(eps)
    status = "NotSimple" if witnesses else "Simple"
    return Verdict(
        status=status,
        witnesses=tuple(witnesses),
        boundary_flags=tuple(boundary),
        per_flip=per_flip,
    )


def character_list(diagram: CoxeterDiagram, q: Mapping[str, Fraction]) -> list[SignPattern]:
    """Sign patterns eps whose character is bounded, i.e. rho(|q_eps|) <= 1.
    Empty exactly when the verdict is Simple."""
    verdict = classify_simplicity(diagram, q)
    if verdict.status == "NotApplicable":
        raise ValueError(verdict.reason or "not applicable")
    return list(verdict.witnesses)


def series_coefficients(diagram: CoxeterDiagram, q: Mapping[str, Fraction],
                        nterms: int) -> list[Fraction]:
    """Taylor coefficients of t -> W(t*q) = den(t) / num(t): the weighted sphere
    sums a_l(q), from num * W = den term by term.  Oracle counterpart of
    enumeration.sphere_weight."""
    qq = positive_parameters(diagram, q)
    num, den = _ray_fraction(diagram, qq)
    out: list[Fraction] = []
    for n in range(nterms):
        acc = den[n] if n < len(den) else 0
        for k in range(1, min(n, len(num) - 1) + 1):
            acc -= num[k] * out[n - k]
        out.append(Fraction(acc) / num[0])
    return out
