"""Seeded input generator owned by the benchmark.

Draws random connected infinity graphs (irreducible right-angled diagrams),
fresh generator labels and parameters from a ``random.Random`` seeded by the
run's ``--seed``.  The same seed gives the same templates; the program
receives only the resulting diagrams and parameters.

Each workload's template list is ``BLOCKS[workload]`` blocks, each one pass
over the workload's cycle of slots.  A slot fixes what sets an op's cost
(rank, clique count, parameter multiset, ball size, term count), so every
seed runs the same mix and only the drawn graphs, labels and parameter
assignments differ.  Every block draws afresh, so a run averages over many
draws per slot and the cost of one lucky or unlucky draw moves its figures
little; and since every block holds the whole mix, so does any prefix of
the list that a run gets through.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import Diagram, cliques, sphere_sizes

Q_CLASSIFY = tuple(Fraction(x) for x in
                   ("1/4", "2/5", "1/2", "3/5", "1", "3/2", "2", "9/4", "4"))
Q_EXACT = tuple(Fraction(x) for x in ("1/4", "1/9", "1", "4", "1/100"))
Q_EPROJ = tuple(Fraction(x) for x in ("1/4", "1/9", "4", "1/100"))
#: blocks of the template list, per workload: a 25 s run got through 1.5-1.9
#: classify blocks, 5-6 haagerup blocks, 3-5 balls blocks and 5-8 passes
#: over all of exact's on the host that defined the benchmark
BLOCKS = {"classify": 4, "haagerup": 6, "balls": 6, "exact": 4}


def letters(k: int) -> list[str]:
    return [chr(ord("a") + i) for i in range(k)]


def fresh_labels(k: int, tag: int) -> list[str]:
    """k generator names that no other op of the run uses; generator i keeps
    position i, so the ShortLex order and all work are unchanged."""
    suffix = f"m{-tag}" if tag < 0 else str(tag)
    return [f"{c}{suffix}" for c in letters(k)]


def free(k: int) -> Diagram:
    return Diagram(letters(k), [])


def diagram_a() -> Diagram:
    return Diagram(letters(3), [("a", "b")])


def pentagon() -> Diagram:
    g = letters(5)
    return Diagram(g, [(g[i], g[(i + 1) % 5]) for i in range(5)])


def random_connected(rng: random.Random, k: int) -> Diagram:
    """A random diagram of rank k whose infinity graph is connected; each pair
    gets exponent infinity with a probability drawn per diagram."""
    names = letters(k)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    while True:
        p = rng.uniform(0.35, 0.8)
        inf = [pr for pr in pairs if rng.random() < p]
        adj = {i: set() for i in range(k)}
        for i, j in inf:
            adj[i].add(j)
            adj[j].add(i)
        seen, stack = {0}, [0]
        while stack:
            for x in adj[stack.pop()] - seen:
                seen.add(x)
                stack.append(x)
        if len(seen) == k:
            inf_set = set(inf)
            return Diagram(names, [(names[i], names[j]) for i, j in pairs
                                   if (i, j) not in inf_set])


def draw(rng: random.Random, k: int, accept, tries: int = 10_000):
    """(diagram, accept(diagram)) for the first random rank-k diagram that
    ``accept`` does not map to None."""
    for _ in range(tries):
        d = random_connected(rng, k)
        got = accept(d)
        if got is not None:
            return d, got
    raise RuntimeError(f"no rank-{k} diagram met the target in {tries} draws")


def radius_for(d: Diagram, lo: int, hi: int, max_radius: int = 40) -> tuple[int, int] | None:
    """(radius, ball size) of the first radius whose ball size lies in
    [lo, hi], or None."""
    sizes = sphere_sizes(d, max_radius)
    total = 0
    for r, s in enumerate(sizes):
        total += s
        if total > hi:
            return None
        if total >= lo:
            return r, total
    return None


# -- classify -----------------------------------------------------------------

#: One classify cycle: (rank, clique count) slots, mostly rank 4-5 with a
#: few rank-6 and rank-3, plus the free3 boundary cases q = 1/2 and q = 2.
#: A slot fixes the clique count of its random graph and the multiset of its
#: parameters (the next ``rank`` values of Q_CLASSIFY, taken cyclically);
#: the seed draws the graph and which generator gets which value.  Both
#: drive the cost of a call, so fixing them per slot keeps the per-run mix
#: the same at every seed.
CLASSIFY_CYCLE = ((4, 6), (5, 9), "free3@1/2", (4, 7), (5, 10), (3, 5), (4, 8),
                  (5, 11), (6, 12), (4, 7), (5, 12), "free3@2", (4, 6), (5, 9),
                  (3, 5), (4, 7), (5, 10), (6, 14), (4, 8), (5, 11), (4, 7),
                  (5, 12), (4, 7), (5, 10))


def classify_templates(seed: int) -> list[dict]:
    rng = random.Random(f"classify-{seed}")
    pos = 0
    out = []
    for slot in CLASSIFY_CYCLE * BLOCKS["classify"]:
        if isinstance(slot, str):
            d = free(3)
            q = [Fraction(slot.split("@")[1])] * 3
        else:
            k, n_cliques = slot
            d, _ = draw(rng, k, lambda d: True if len(cliques(d)) == n_cliques else None)
            q = [Q_CLASSIFY[(pos + i) % len(Q_CLASSIFY)] for i in range(k)]
            pos += k
            rng.shuffle(q)
        out.append({"diagram": d, "q": q})
    return out


# -- haagerup -----------------------------------------------------------------

#: (rank or "pentagon", cost relative to the pentagon call).  Each random
#: diagram is redrawn until its call's cost is within 10% of its slot's
#: target, so the mix, not the luck of the draw, sets the per-run averages.
HAAGERUP_CYCLE = (("pentagon", 1.0), (4, 0.55), (5, 0.55), (4, 0.55),
                  (4, 0.55), (5, 0.55), (4, 0.55), (5, 0.55))
HAAGERUP_BALL = (10_000, 40_000)
HAAGERUP_MAX_LENGTH = 3
HAAGERUP_TRIALS = 8


def haagerup_work(d: Diagram, radius: int) -> int:
    """Relative cost of one haagerup call: ball size times (the trie edges
    the sphere operators of lengths 1..3 walk per power-iteration step, plus
    28 for building the ball and its action, a weight read off a traced run
    in which the build took a third as long as the sphere operators)."""
    s = sphere_sizes(d, radius)
    return sum(s) * (28 + 3 * s[1] + 2 * s[2] + s[3])


def haagerup_templates(seed: int) -> list[dict]:
    rng = random.Random(f"haagerup-{seed}")
    pent = pentagon()
    pent_r = radius_for(pent, *HAAGERUP_BALL)[0]
    unit = haagerup_work(pent, pent_r)
    out = []
    for kind, cost in HAAGERUP_CYCLE * BLOCKS["haagerup"]:
        if kind == "pentagon":
            d, r = pent, pent_r
        else:
            def accept(d, cost=cost):
                got = radius_for(d, *HAAGERUP_BALL)
                if got and 0.9 <= haagerup_work(d, got[0]) / (unit * cost) <= 1.1:
                    return got[0]
                return None

            d, r = draw(rng, kind, accept)
        qscalar = f"0.{rng.randint(31, 94)}"
        out.append({"diagram": d, "radius": r, "qscalar": qscalar})
    return out


# -- balls --------------------------------------------------------------------

#: (rank or "pentagon", radius or target ball size); targets are met within
#: 8%, and each is one that random diagrams of that rank can reach.
BALLS_CYCLE = (("pentagon", 11), (3, 25_000), (4, 40_000), (5, 60_000),
               (4, 35_000), (5, 25_000), ("pentagon", 10), (3, 50_000),
               (4, 50_000), (5, 30_000))


def balls_templates(seed: int) -> list[dict]:
    rng = random.Random(f"balls-{seed}")
    out = []
    for kind, size in BALLS_CYCLE * BLOCKS["balls"]:
        if kind == "pentagon":
            d, r = pentagon(), size
        else:
            d, (r, _) = draw(rng, kind,
                             lambda d, size=size: radius_for(d, int(size * 0.92), int(size * 1.08)))
        out.append({"diagram": d, "radius": r})
    return out


# -- exact ---------------------------------------------------------------------

#: (op type, diagram key, size); R1 and R2 are random rank-4 diagrams of the
#: seed.  The size is the number of terms of each element (assoc, trace),
#: the reduced length of w (remark22, cliq) or the cutoff (eproj).  Fixing it
#: per slot, with the reduced word lengths and the parameter multiset, keeps
#: each slot's cost the same at every seed.
EXACT_CYCLE = (
    ("assoc", "A", 4), ("trace", "P", 3), ("remark22", "F", 2), ("cliq", "R1", 4),
    ("eproj", "F", 3), ("assoc", "R2", 3), ("series", "A", 6), ("cliq", "P", 3),
    ("trace", "A", 4), ("remark22", "R1", 1), ("corollary", "A", 4), ("assoc", "F", 4),
    ("cliq", "A", 4), ("trace", "R2", 3), ("remark22", "P", 2), ("series", "P", 6),
    ("assoc", "P", 3), ("cliq", "F", 3), ("trace", "F", 4), ("corollary", "F", 4),
    ("remark22", "R2", 2), ("eproj", "F", 4), ("assoc", "R1", 4), ("cliq", "R2", 3),
    ("trace", "R1", 3), ("remark22", "A", 1), ("series", "R1", 6),
)
EXACT_TERM_LENGTHS = (5, 4, 2, 1)   # reduced word lengths of the element terms
EXACT_B6 = (400, 900)   # radius-6 ball size window for the random rank-4 diagrams


def reduced_word(rng: random.Random, d: Diagram, length: int) -> list[str]:
    """A random reduced word of exactly ``length`` letters: a letter may be
    appended unless an equal letter is reachable from the end across
    letters that all commute with it."""
    word: list[str] = []
    for _ in range(length):
        allowed = []
        for t in d.generators:
            blocker = next((x for x in reversed(word) if x == t or not d.commutes(x, t)), None)
            if blocker != t:
                allowed.append(t)
        word.append(rng.choice(allowed))
    return word


def exact_diagrams(rng: random.Random) -> dict[str, Diagram]:
    out = {"A": diagram_a(), "P": pentagon(), "F": free(3)}
    for key in ("R1", "R2"):
        out[key], _ = draw(rng, 4, lambda d: (
            True if EXACT_B6[0] <= sum(sphere_sizes(d, 6)) <= EXACT_B6[1] else None))
    return out


def exact_templates(seed: int) -> list[dict]:
    rng = random.Random(f"exact-{seed}")
    pos = 0
    out = []
    for _ in range(BLOCKS["exact"]):
        block = _exact_block(rng, pos)
        pos += sum(t["diagram"].rank for t in block)
        out.extend(block)
    return out


def _exact_block(rng: random.Random, pos: int) -> list[dict]:
    """One pass over EXACT_CYCLE with its own random rank-4 diagrams."""
    diagrams = exact_diagrams(rng)
    out = []
    for kind, key, size in EXACT_CYCLE:
        d = diagrams[key]
        q = [Q_EXACT[(pos + i) % len(Q_EXACT)] for i in range(d.rank)]
        pos += d.rank
        rng.shuffle(q)
        t = {"kind": kind, "key": key, "diagram": d, "q": q}
        if kind in ("assoc", "trace"):
            # elements with `size` terms on words of the radius-5 ball
            t["elements"] = [
                [(Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4)),
                  reduced_word(rng, d, length))
                 for length in EXACT_TERM_LENGTHS[:size]]
                for _ in range(3 if kind == "assoc" else 2)
            ]
        elif kind == "remark22":
            s = rng.choice(d.generators)
            # w = t u with t not commuting with s: w lies outside the
            # centralizer of s and s is not below w.
            t_letter = rng.choice([x for x in d.generators if x != s and not d.commutes(s, x)])
            u = rng.choice([x for x in d.generators if x != t_letter])
            t["s"], t["w"] = s, [t_letter, u][:size]
        elif kind == "cliq":
            t["w"] = reduced_word(rng, d, size)
        elif kind == "eproj":
            t["q"] = [rng.choice(Q_EPROJ)] * d.rank
            t["cutoff"] = size
        out.append(t)
    return out


TEMPLATES = {
    "classify": classify_templates,
    "haagerup": haagerup_templates,
    "balls": balls_templates,
    "exact": exact_templates,
}
