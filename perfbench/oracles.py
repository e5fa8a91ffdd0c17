"""Output oracles for the four workloads, written independently of rahecke.

Each oracle takes the inputs the benchmark generated and the output the
program produced, and returns ``(ok, info)``.  ``ok`` is False when the output
is wrong; ``info`` holds counts worth recording (skipped boundary flips, for
example).  Nothing here imports rahecke: the diagram is passed as generator
names plus a set of commuting pairs, so a defect shared by the program and
its own checks cannot hide here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Flips whose float clique sum comes within this distance of zero on (0, 1]
#: are not judged by the float oracle; they are counted instead.
BOUNDARY_EPS = 1e-9

#: Points of the grid on (0, 1] at which the float clique sum is evaluated.
GRID_POINTS = 1024


class Diagram:
    """Generator names in ShortLex order plus the commuting relation."""

    def __init__(self, generators: Sequence[str], commuting: Iterable[Sequence[str]]):
        self.generators = tuple(generators)
        self.commuting = frozenset(frozenset(p) for p in commuting)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def commutes(self, s: str, t: str) -> bool:
        return frozenset((s, t)) in self.commuting

    def __repr__(self) -> str:
        return f"Diagram({self.to_json()})"

    def to_json(self) -> dict:
        pairs = sorted(sorted(p) for p in self.commuting)
        return {"generators": list(self.generators), "commuting": pairs}

    def relabeled(self, names: Sequence[str]) -> "Diagram":
        """The same diagram with generator i renamed to names[i]."""
        ren = dict(zip(self.generators, names))
        return Diagram(names, [tuple(ren[x] for x in p) for p in self.commuting])


def cliques(d: Diagram) -> list[tuple[str, ...]]:
    """All cliques of the commuting graph, the empty one included."""
    out: list[tuple[str, ...]] = []

    def extend(base: tuple[str, ...], cands: Sequence[str]) -> None:
        out.append(base)
        for i, s in enumerate(cands):
            extend(base + (s,), [t for t in cands[i + 1:] if d.commutes(s, t)])

    extend((), d.generators)
    return out


def sphere_sizes(d: Diagram, radius: int) -> list[int]:
    """|S_0|, ..., |S_radius| from the clique formula at q = 1.

    W(t) = 1 / sum_G (-t/(1+t))^|G| = (1+t)^k / N(t) with the integer
    polynomial N(t) = sum_G (-t)^|G| (1+t)^(k-|G|) and N(0) = 1, so the
    series has integer coefficients and integer arithmetic suffices.
    """
    k = d.rank
    n = radius + 1
    binom = [[math.comb(m, j) for j in range(m + 1)] for m in range(k + 1)]
    num = [0] * (k + 1)
    for g in cliques(d):
        c = len(g)
        sign = -1 if c % 2 else 1
        for j, b in enumerate(binom[k - c]):
            num[c + j] += sign * b
    inv = [1] + [0] * (n - 1)            # 1 / N as a power series
    for m in range(1, n):
        inv[m] = -sum(num[j] * inv[m - j] for j in range(1, min(m, k) + 1))
    top = binom[k]                        # (1 + t)^k
    return [sum(top[j] * inv[m - j] for j in range(min(m, k) + 1)) for m in range(n)]


def _clique_sum(d: Diagram, q: Mapping[str, float], t: np.ndarray) -> np.ndarray:
    """D(t*q) = sum_G prod_{s in G} (-t q_s / (1 + t q_s)) on an array of t."""
    factor = {s: -(t * q[s]) / (1.0 + t * q[s]) for s in d.generators}
    total = np.zeros_like(t)
    for g in cliques(d):
        term = np.ones_like(t)
        for s in g:
            term = term * factor[s]
        total += term
    return total


def float_membership(d: Diagram, q: Mapping[str, float]) -> str | None:
    """'Interior' or 'Exterior' from the float sign of D(t*q) on (0, 1], or
    None when D comes within BOUNDARY_EPS of zero there (undecidable in
    floating point).  D(0) = 1, and the first zero of D on the ray is the
    pole that bounds the growth series."""
    t = np.linspace(1.0 / GRID_POINTS, 1.0, GRID_POINTS)
    vals = _clique_sum(d, q, t)
    if np.abs(vals).min() <= BOUNDARY_EPS:
        return None
    return "Interior" if (vals > 0).all() else "Exterior"


def flip_key(d: Diagram, eps: Sequence[int]) -> str:
    """The key under which ``rahecke classify`` reports a sign pattern."""
    return ",".join(f"{s}={'+' if e == 1 else '-'}" for s, e in zip(d.generators, eps))


def check_classify(d: Diagram, q: Mapping[str, Fraction], doc: Mapping) -> tuple[bool, dict]:
    """Oracle for one ``rahecke classify`` report.

    * every per-flip membership agrees with the float sign of the clique sum
      at |q_eps| (flips within BOUNDARY_EPS of the boundary are skipped and
      counted; a reported Boundary must be one of them);
    * the witnesses are exactly the Interior and Boundary flips;
    * the status is NotSimple exactly when the decisive flip
      q*_s = min(q_s, 1/q_s) is Interior or Boundary.
    """
    info = {"flips": 0, "skipped": 0, "reason": None}

    def fail(reason: str) -> tuple[bool, dict]:
        info["reason"] = reason
        return False, info

    per_flip = doc.get("per_flip")
    if doc.get("status") not in ("Simple", "NotSimple") or not isinstance(per_flip, dict):
        return fail("malformed report")
    if len(per_flip) != 2 ** d.rank:
        return fail(f"{len(per_flip)} flips reported, expected {2 ** d.rank}")
    qf = {s: float(q[s]) for s in d.generators}
    witnesses = set()
    for key, entry in per_flip.items():
        signs = [part.split("=")[1] for part in key.split(",")]
        eps = [1 if x == "+" else -1 for x in signs]
        reported = entry.get("membership")
        if reported in ("Interior", "Boundary"):
            witnesses.add(key)
        q_eps = {s: (qf[s] if e == 1 else 1.0 / qf[s]) for s, e in zip(d.generators, eps)}
        expected = float_membership(d, q_eps)
        info["flips"] += 1
        if expected is None:
            info["skipped"] += 1
            continue
        if expected != reported:
            return fail(f"flip {key}: reported {reported}, clique sum says {expected}")
    listed = {flip_key(d, [1 if w[s] == 1 else -1 for s in d.generators])
              for w in doc.get("witnesses", [])}
    if listed != witnesses:
        return fail("witness list differs from the Interior/Boundary flips")
    decisive = flip_key(d, [1 if q[s] <= 1 else -1 for s in d.generators])
    not_simple = per_flip[decisive]["membership"] in ("Interior", "Boundary")
    if (doc["status"] == "NotSimple") != not_simple:
        return fail(f"status {doc['status']} but decisive flip is "
                    f"{per_flip[decisive]['membership']}")
    return True, info


def check_ball(d: Diagram, radius: int, sizes: Sequence[int], total: int) -> tuple[bool, dict]:
    """Sphere sizes of a ball against the integer clique-formula series."""
    expected = sphere_sizes(d, radius)
    ok = list(sizes) == expected and total == sum(expected)
    return ok, {"reason": None if ok else f"sizes {list(sizes)} != {expected}"}


def haagerup_ceiling(sphere_size: int, q: float, l: int) -> float:
    """sqrt(|S_l|) * max(sqrt q, 1/sqrt q)^l / l.

    ||x|| <= sum_w |c_w| ||T_w|| <= sqrt(|S_l|) ||c||_2 max_s ||T_s||^l, and
    ||T_s|| = max(sqrt q, 1/sqrt q); a compression cannot raise a norm, so
    every sampled ratio ||x|| / (l ||c||_2) stays below this ceiling.
    """
    return math.sqrt(sphere_size) * max(math.sqrt(q), 1.0 / math.sqrt(q)) ** l / l


def check_haagerup(d: Diagram, q: float, max_length: int, doc: Mapping) -> tuple[bool, dict]:
    """Every max ratio is finite, positive and below the ceiling."""
    results = doc.get("results")
    if not isinstance(results, list) or [r.get("l") for r in results] != list(
            range(1, max_length + 1)):
        return False, {"reason": "malformed results"}
    sizes = sphere_sizes(d, max_length)
    for r in results:
        ratio, l = r["max_ratio"], r["l"]
        if not isinstance(ratio, (int, float)) or not math.isfinite(ratio) or ratio <= 0:
            return False, {"reason": f"l={l}: ratio {ratio!r} not finite and positive"}
        ceiling = haagerup_ceiling(sizes[l], q, l)
        if ratio > ceiling:
            return False, {"reason": f"l={l}: ratio {ratio} above ceiling {ceiling}"}
    if doc.get("fitted_C") != max(r["max_ratio"] for r in results):
        return False, {"reason": "fitted_C is not the largest ratio"}
    return True, {"reason": None}


def check_exact(residuals: Sequence[Fraction], pairs: Sequence[tuple] = ()) -> tuple[bool, dict]:
    """Every residual is exactly zero and every (generic, radial) pair is
    exactly equal."""
    for r in residuals:
        if r != 0:
            return False, {"reason": f"nonzero residual {r}"}
    for a, b in pairs:
        if a != b:
            return False, {"reason": f"generic {a} != radial {b}"}
    return True, {"reason": None}
