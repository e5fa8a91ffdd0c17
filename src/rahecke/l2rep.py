"""Compressions of Hecke operators to balls of l2(W), operator-identity
verification, and spectral estimates.

One exact form serves every exact path: sparse columns {id: coeff}, each
walked only on a ball that holds all its terms.  The walker runs the
one-letter rule on a ball's ids and tables, and a step out of its ball is an
error, not a truncation.  The positivity window needs the *true*
compression P_n T_w* T_w P_n, in which a term that leaves B_n and comes back
counts.  It is the Gram X^T X of X = T_w P_n, whose columns T_w delta_v,
|v| <= n, walk |w| letters inside B_{n+|w|}, and it is block diagonal: the
window needs no Hecke product, no cut and no whole-ball matrix.  Each
identity suite states its own comparison domain: the columns delta_v with
|v| <= n minus the longest word by which its products move a basis vector,
where a product of compressions agrees with the compression of the product.
The suites compute only those columns, each side as walker applications and
prefix masks on delta_v, on their own ball; none builds a full compression.
The ball sweeps (``verify_action_sweep``, ``verify_cliq_sweep``) run a suite
over every w of a ball, reading w off the ball's tables rather than its word
tuples.  All norms computed from compressions are certified lower bounds of
the operator norms; spectra of compressions of self-adjoint operators with
spectrum in [c, C] stay in [c, C].

The fast engine for large balls (``sphere_patterns``) applies an x
supported on the l-sphere as the compression P_n x P_{n-l}: x moves B_{n-l}
into B_n, so these columns are exact and the sampled norms are lower bounds
too, up to float64 rounding.  One pass of left extension of the sphere words
on the ball's integer tables, read with flat ``take``, builds the entries
<delta_u, T_w delta_v> of every length in turn, with no word tuple, and
puts them in CSR order by one sort of packed int64 keys.  Each batch of
coefficient vectors is then one block-diagonal sparse matrix, and a power
iteration is one product with it and, but for the last, one with its
transpose.  The block layout does not depend on the coefficients: it is
built once per pattern and group width and shared by every group and batch
of that width, so each column group builds only its data.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .coxeter import CoxeterDiagram
from .enumeration import Ball, ball
from .hecke import MultiParameter, cliq_decomposition

DENSE_LIMIT = 4000
DENSE_TOL = 1e-9  # window tolerance of the dense eigensolver, relative to the upper bound
# samples per batched power iteration in haagerup_ratio; the batch runs in up
# to min(CPUs, HAAGERUP_BATCH // 2) column groups on threads, with ratios
# bit-identical to one group (see sphere_operator_norms)
HAAGERUP_BATCH = 8


def _domain(b: Ball, radius: int) -> range:
    """Ids of the ball elements of length <= ``radius`` (ids go by length)."""
    return range(b.sphere_start[min(max(radius + 1, 0), b.radius + 1)])


def _worst(worst, lhs: Mapping[int, object], rhs: Mapping[int, object]):
    """``worst`` raised to the largest |entry difference| of two sparse
    columns."""
    for r in set(lhs) | set(rhs):
        diff = lhs.get(r, 0) - rhs.get(r, 0)
        if diff < 0:
            diff = -diff
        if diff > worst:
            worst = diff
    return worst


def _add(acc: dict[int, object], r: int, x) -> None:
    old = acc.get(r)
    acc[r] = x if old is None else old + x


#: An operator sum c T_w for the walker: ``(p, terms)`` with p_s per
#: generator index and ``terms`` of (the generator indices of a word of w,
#: right to left, coefficient c).
Op = tuple[Sequence, Sequence[tuple[tuple[int, ...], object]]]


def _basis_op(params: MultiParameter, word: Sequence[str]) -> Op:
    """T_w for a word of w: one term, the canonical letters of w right to
    left, with coefficient 1."""
    d = params.diagram
    return ([params.p(s) for s in d.generators],
            [(d.heap_letters(d.heap(word)), Fraction(1) if params.exact else 1.0)])


def _group_op(d: CoxeterDiagram, word: Sequence[str]) -> Op:
    """T_w at q == 1 (p == 0), a permutation of the basis; the word need not
    be reduced, since s -> T_s at q == 1 is a group action."""
    return [0] * d.rank, [(tuple(map(d.gen_index, reversed(word))), Fraction(1))]


class _Walker:
    """Operators sum c T_w on sparse vectors ``{id: coeff}`` over a ball,
    where T_s acts by the one-letter rule
    T_s delta_u = delta_{su} + p_s [s <= u] delta_u, read off ``lmul`` and
    ``ldesc``.  The ball must hold every term of the walk: a step out of it
    raises ``ValueError``.  Each step moves a term by at most one letter, so
    a walk of k letters from delta_v stays in the ball of radius |v| + k.
    """

    def __init__(self, b: Ball):
        self.lmul = b.lmul.tolist()
        self.ldesc = b.ldesc.tolist()

    def column(self, op: Op, v: int) -> dict[int, object]:
        """``op`` applied to delta_v."""
        p, terms = op
        lmul, ldesc = self.lmul, self.ldesc
        acc: dict[int, object] = {}
        for letters, c in terms:
            state: dict[int, object] = {v: c}
            for s in letters:
                row, drow, ps = lmul[s], ldesc[s], p[s]
                out: dict[int, object] = {}
                for u, cc in state.items():
                    su = row[u]
                    if su < 0:
                        raise ValueError("a step of the walk leaves the ball")
                    # adding to 0 would cost a Fraction operation per term;
                    # zero sums are dropped once, at the end of the column
                    old = out.get(su)
                    out[su] = cc if old is None else old + cc
                    if ps and drow[u]:
                        old = out.get(u)
                        out[u] = cc * ps if old is None else old + cc * ps
                state = out
            for u, cc in state.items():
                _add(acc, u, cc)
        return {u: cc for u, cc in acc.items() if cc}

    def apply(self, op: Op, vec: Mapping[int, object]) -> dict[int, object]:
        """``op`` applied to ``vec``: the columns of its ids, weighted and
        summed in the order of the tests' reference product."""
        acc: dict[int, object] = {}
        for u, x in vec.items():
            for r, a in self.column(op, u).items():
                _add(acc, r, a * x)
        return {r: y for r, y in acc.items() if y}


def q_operator(d: CoxeterDiagram, u: Sequence[str], q: Fraction, b: Ball,
               cutoff: int) -> tuple[list[Fraction], Fraction, int]:
    """Partial sum to l = cutoff of
    Q_q^u = sum_{l >= |u|} sum_{|w| = l, u <= w^-1} q^l P_w, with a proved
    bound on the rest: (diagonal in ball order, tail, omega), omega the
    clique number of the commuting graph.

    The entry at v is g(v), the sum over p <= v of f(p) = q^|p| when
    u <= p^-1 and |p| <= cutoff, else 0.  A prefix p < v lies below v*s for
    a right descent s of v; the right descents R(v) commute, and the
    prefixes below v*s for every s in G are those below v*G, which is
    shorter.  So one pass over the ball ids gives, by inclusion-exclusion,
    g(v) = f(v) + sum_{nonempty G in R(v)} (-1)^(|G|+1) g(v*G).

    The prefixes of w are the order ideals of its heap, whose incomparable
    pieces commute, so the heap is a union of omega chains (Dilworth) and
    kappa_w(l) = #{p <= w : |p| = l} <= C(l + omega - 1, omega - 1).  Every
    diagonal entry of the rest, at any w of W, is therefore at most
    tail = (1 - q)^-omega - sum_{l <= cutoff} C(l + omega - 1, omega - 1) q^l.
    """
    if not (0 < q < 1):
        raise ValueError("q must lie strictly between 0 and 1")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    uw = d.normal_form(u)
    q = Fraction(q)
    # below[p]: u <= p^-1, i.e. the letters of u strip off p as right descents
    below = np.ones(len(b), dtype=bool)
    cur = np.arange(len(b), dtype=np.int32)
    for t in uw:
        nxt = b.rmul[:, d.gen_index(t)].take(cur)
        below &= (nxt >= 0) & (nxt < cur)
        cur = np.where(below, nxt, 0)
    # integers over the common denominator den^cutoff
    num, den = q.numerator, q.denominator
    f = [num ** l * den ** (cutoff - l) for l in range(cutoff + 1)]
    length, rmul = b.length.tolist(), b.rmul.tolist()
    g: list[int] = []
    for v, hit in enumerate(below.tolist()):
        # (v*G, (-1)^|G|) for every G in R(v); the right descents s of v are
        # its neighbours v*s of smaller id
        terms = [(v, 1)]
        for i, vs in enumerate(rmul[v]):
            if 0 <= vs < v:
                terms += [(rmul[x][i], -sign) for x, sign in terms]
        l = length[v]
        g.append((f[l] if hit and l <= cutoff else 0)
                 - sum(sign * g[x] for x, sign in terms[1:]))
    omega = d.clique_number()
    tail = (1 - q) ** -omega - sum(math.comb(l + omega - 1, omega - 1) * q ** l
                                   for l in range(cutoff + 1))
    scale = den ** cutoff
    return [Fraction(x, scale) for x in g], tail, omega


def exact_psd(matrix: list[list[Fraction]]) -> bool:
    """Exact positive-semidefiniteness by symmetric Gaussian elimination on
    ``Fraction`` entries (each pivot row divided out, no tolerance)."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    for i in range(n):
        piv = m[i][i]
        if piv < 0:
            return False
        if piv == 0:
            if any(m[i][j] != 0 for j in range(i + 1, n)):
                return False
            continue
        for r in range(i + 1, n):
            f = m[r][i] / piv
            if f == 0:
                continue
            for c in range(i, n):
                m[r][c] -= f * m[i][c]
    return True


def _gram(params: MultiParameter, w: Sequence[str], b: Ball) -> list[dict[int, object]]:
    """Columns of P_n T_w* T_w P_n over B_n = ``b``, w reduced, as X^T X for
    X = T_w P_n.

    P_n T_w* T_w P_n = (T_w P_n)* (T_w P_n).  Each step of a walk moves a
    term by at most one letter, so the column T_w delta_v of X, |v| <= n,
    lies in B_{n+|w|}: walked on that ball, whose first ``len(b)`` ids are
    those of B_n, it is exact, with nothing dropped.  No product T_w* T_w
    is formed.  The rows of X are read off its columns, and each pair of
    columns v, v' that share a row u adds X[u, v] X[u, v'] to the entries
    (v, v') and (v', v) alike, so the Gram is symmetric as built, in float
    mode too.  The walker's tables are freed on return, before the caller
    allocates a dense matrix."""
    walk, op = _Walker(ball(b.diagram, b.radius + len(w))), _basis_op(params, w)
    rows: dict[int, list[tuple[int, object]]] = {}
    for v in range(len(b)):
        for u, c in walk.column(op, v).items():
            rows.setdefault(u, []).append((v, c))
    gram: list[dict[int, object]] = [{} for _ in range(len(b))]
    for row in rows.values():
        for i, (v, c) in enumerate(row):
            for v2, c2 in row[i:]:
                x = c * c2
                _add(gram[v], v2, x)
                if v2 != v:
                    _add(gram[v2], v, x)
    return gram


def positivity_window(params: MultiParameter, word: Sequence[str], n: int,
                      certify_exact: bool = False) -> tuple[float, float]:
    """Spectral range of the compression of (T_w)* T_w, asserted to lie in
    [prod min(q_s^{+-1}), prod max(q_s^{+-1})] over the letters of w.

    The compression is the Gram matrix X^T X of X = T_w P_n (``_gram``),
    block diagonal over the components of its sparsity graph: columns that
    share a row of X, all in one coset W_J u, J the letters of w.  Each
    block, refused above ``DENSE_LIMIT`` before it is built, goes as built
    (symmetric bit for bit) to a dense eigensolver, whose ends may pass the
    bounds by ``DENSE_TOL`` times the upper bound, and, with
    ``certify_exact``, to exact semidefinite elimination (zero tolerance).
    """
    if certify_exact and not params.exact:
        raise ValueError("exact certification needs exact parameters")
    d = params.diagram
    w = d.normal_form(word)
    if n < 2 * len(w):
        raise ValueError("ball radius must be at least twice the word length")
    qs, one = [params.q[s] for s in w], Fraction(1) if params.exact else 1.0
    lo_bound = math.prod((min(x, 1 / x) for x in qs), start=one)
    hi_bound = math.prod((max(x, 1 / x) for x in qs), start=one)
    tol = DENSE_TOL * float(hi_bound)  # eigvalsh errs by about eps * ||block||
    gram = _gram(params, w, ball(d, n))
    seen, lo, hi = [False] * len(gram), math.inf, -math.inf
    for v in range(len(gram)):
        if seen[v]:
            continue
        block, seen[v] = [v], True
        for u in block:
            for r in gram[u]:
                if not seen[r]:
                    seen[r] = True
                    block.append(r)
        if len(block) > DENSE_LIMIT:
            raise ValueError("block too large for a dense eigensolver")
        index = {u: i for i, u in enumerate(sorted(block))}
        m = np.zeros((len(block), len(block)))
        for u, i in index.items():
            for r, val in gram[u].items():
                m[index[r], i] = float(val)
        vals = np.linalg.eigvalsh(m)
        blo, bhi = float(vals[0]), float(vals[-1])
        if blo < float(lo_bound) - tol or bhi > float(hi_bound) + tol:
            raise AssertionError(
                f"window violated: [{blo}, {bhi}] vs [{float(lo_bound)}, {float(hi_bound)}]")
        lo, hi = min(lo, blo), max(hi, bhi)
        for c, sign in ((lo_bound, 1), (hi_bound, -1)) if certify_exact else ():
            if not exact_psd([[sign * (gram[u].get(r, 0) - (c if u == r else 0)) for r in index]
                              for u in index]):
                raise AssertionError("exact window certification failed")
    return lo, hi


# -- identity suites ---------------------------------------------------------
#
# Each suite states its domain: the columns delta_v with |v| <= n minus the
# length its products can add, where every intermediate vector stays in the
# ball, so the compression of a product equals the product of the
# compressions.  The suites evaluate both sides on those columns alone: each
# term is a chain of walker applications and diagonal prefix masks, and no
# full compression is built.


def _sandwich(walk: _Walker, left: Op, mask: np.ndarray, right: Op, v: int
              ) -> dict[int, object]:
    """left P right delta_v, for P the diagonal projection given by ``mask``."""
    return walk.apply(left, {u: x for u, x in walk.column(right, v).items() if mask[u]})


def verify_action_case(d: CoxeterDiagram, s: str, w: Sequence[str], b: Ball):
    """Residual of the matching case of the conjugation rule for s.P_w.

    Returns (case, residual) with residual exact 0 expected, compared on the
    columns |v| <= n - 2: T_s^(1) P_w T_s^(1) delta_v is walked on the ball
    and set against the case's prefix masks, a cross-check of
    ``verify_action_sweep``, which reads both sides off the ball's tables.
    """
    if b.radius < 2:
        raise ValueError("ball too small")
    wnf = d.normal_form(w)
    pw, psw = b.prefix_mask(wnf), b.prefix_mask(d.multiply((s,), wnf))
    if not d.centralizes(s, wnf):
        case, rhs = 1, psw
    elif d.starts_with((s,), wnf):
        case, rhs = 2, psw.astype(np.int8) - pw
    else:
        case, rhs = 3, pw
    walk, ts, one = _Walker(b), _group_op(d, (s,)), Fraction(1)
    worst = Fraction(0)
    for v in _domain(b, b.radius - 2):
        worst = _worst(worst, _sandwich(walk, ts, pw, ts, v),
                       {v: one * int(rhs[v])} if rhs[v] else {})
    return case, worst


def verify_action_sweep(d: CoxeterDiagram, b: Ball, max_length: int
                        ) -> tuple[dict[int, int], int]:
    """Case counts and violations of the conjugation rule for s.P_w over every
    pair (s, w) with |w| <= max_length, on the ball's ids and tables.

    At q == 1 the conjugated projection is diagonal, with entry [w <= s*v] at
    v, so both sides are prefix masks, compared on the columns |v| <= n - 1,
    where s*v stays in the ball.  s <= w is read from ``ldesc``; s*w == w*s
    iff every letter of w is s or commutes with s (the reduced-word rule for
    graph products), which one pass down the generation tree decides for all
    s and w, the last sphere included.  The mask of w is built once for all s
    from its letters in the tree.  For an ascent s of w, sw <= v iff s <= v
    and w <= s*v (empty when s*w leaves the ball); for a descent the mask of
    s*w is built from its own letters.  Only the w being checked holds masks.
    """
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    if b.radius < 1:
        raise ValueError("ball too small")
    k, m = d.rank, b.sphere_start[b.radius]  # the columns |v| <= n - 1
    top = min(max_length, b.radius)
    ws = _domain(b, top)
    fixes = np.array([[i == j or not c >> j & 1 for j in range(k)]
                      for i, c in enumerate(d.conflict)])
    central = np.ones((k, len(ws)), dtype=bool)  # central[s, w]: s*w == w*s
    for l in range(1, top + 1):
        lo, hi = b.sphere_start[l], b.sphere_start[l + 1]
        central[:, lo:hi] = central[:, b.parent[lo:hi]] & fixes[:, b.plast[lo:hi]]
    steps, below = b.lmul[:, :m], b.ldesc[:, :m]
    cases = {1: 0, 2: 0, 3: 0}
    bad = 0
    for w in ws:
        mask = b.letter_mask(b.letters(w))
        lhs, pw = mask[steps], mask[:m]  # lhs[s, v] = [w <= s*v]
        for s in range(k):
            if b.ldesc[s, w]:
                psw = b.letter_mask(b.letters(b.lmul[s, w]))[:m]
            else:
                psw = below[s] & lhs[s]
            if not central[s, w]:
                case, rhs = 1, psw
            elif b.ldesc[s, w]:
                case, rhs = 2, psw.astype(np.int8) - pw
            else:
                case, rhs = 3, pw
            cases[case] += 1
            bad += bool((lhs[s] != rhs).any())
    return cases, bad


def verify_remark22(params: MultiParameter, s: str, w: Sequence[str], b: Ball):
    """Residuals of T_s(1-P_s)T_s = P_s and T_s P_w T_s = P_{sw}
    (the latter for w outside the centralizer of s with s not below w), both
    on the columns |v| <= n - 2."""
    d = params.diagram
    if b.radius < 2:
        raise ValueError("ball too small")
    wnf = d.normal_form(w)
    if d.centralizes(s, wnf) or d.starts_with((s,), wnf):
        raise ValueError("second identity needs w outside C(s) with s not below w")
    walk, ts = _Walker(b), _basis_op(params, (s,))
    ps, pw, psw = (b.prefix_mask(u) for u in ((s,), wnf, d.multiply((s,), wnf)))
    one = Fraction(1)
    first = second = Fraction(0) if params.exact else 0.0
    for v in _domain(b, b.radius - 2):
        first = _worst(first, _sandwich(walk, ts, ~ps, ts, v), {v: one} if ps[v] else {})
        second = _worst(second, _sandwich(walk, ts, pw, ts, v), {v: one} if psw[v] else {})
    return first, second


def verify_cliq_identity(params: MultiParameter, w: Sequence[str], b: Ball):
    """Residual of the clique decomposition of T_w on the columns
    |v| <= n - |w|."""
    d = params.diagram
    wnf = d.normal_form(w)
    if b.radius < len(wnf) + 2:
        raise ValueError("ball too small")
    walk, lhs = _Walker(b), _basis_op(params, wnf)
    decomposition = cliq_decomposition(params, wnf)
    masks = {gamma: b.prefix_mask(d.normal_form(gamma))
             for gamma in {gamma for _, gamma, _, _ in decomposition}}
    terms = [(_group_op(d, wp), masks[gamma], _group_op(d, wpp), coeff)
             for wp, gamma, wpp, coeff in decomposition]
    worst = Fraction(0) if params.exact else 0.0
    for v in _domain(b, b.radius - len(wnf)):
        rhs: dict[int, object] = {}
        for left, mask, right, coeff in terms:
            for r, x in _sandwich(walk, left, mask, right, v).items():
                _add(rhs, r, coeff * x)
        worst = _worst(worst, walk.column(lhs, v), rhs)
    return worst


def verify_cliq_sweep(params: MultiParameter, b: Ball) -> tuple[int, object]:
    """(count, worst residual) of ``verify_cliq_identity`` over every w with
    |w| <= n - 2, each word read off the generation tree."""
    if b.radius < 2:
        raise ValueError("ball too small")
    gens = params.diagram.generators
    ws = _domain(b, b.radius - 2)
    worst = Fraction(0) if params.exact else 0.0
    for w in ws:
        word = tuple(gens[t] for t in b.letters(w))
        worst = max(worst, verify_cliq_identity(params, word, b))
    return len(ws), worst


def verify_corollary_split(params: MultiParameter, g: Sequence[str], power: int,
                           b: Ball):
    """Residual of T_{g^l} = T_{g^l}^(1) + P_{s_1} x with the telescoped x,
    on the columns |v| <= n - |g^l| - 1.

    Returns (residual, number of terms of x).  The telescoping takes
    x = sum_i p_{t_i} P_{t_1..t_i} T^(1) over the word with t_i removed.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    d = params.diagram
    letters = tuple(g) * power
    word = d.normal_form(letters)
    if len(word) != len(letters):
        raise ValueError("g^l is not reduced; not a diagram path")
    if b.radius < len(letters) + 2:
        raise ValueError("ball too small")
    walk = _Walker(b)
    lhs, group = _basis_op(params, word), _group_op(d, word)
    x_terms = [(params.p(t), b.prefix_mask(d.normal_form(letters[:i + 1])),
                _group_op(d, letters[:i] + letters[i + 1:]))
               for i, t in enumerate(letters) if params.p(t) != 0]
    ps1 = b.prefix_mask((letters[0],))
    worst = Fraction(0) if params.exact else 0.0
    for v in _domain(b, b.radius - len(letters) - 1):
        x: dict[int, object] = {}
        for p, mask, rest in x_terms:
            for u, c in walk.column(rest, v).items():
                if mask[u]:
                    _add(x, u, p * c)
        rhs = walk.column(group, v)
        for u, c in x.items():
            if ps1[u]:
                _add(rhs, u, c)
        worst = _worst(worst, walk.column(lhs, v), rhs)
    return worst, len(x_terms)


# -- fast engine for large balls ---------------------------------------------


class SpherePattern:
    """The entries <delta_u, T_w delta_v> of P_n T_w P_{n-l} for w on the
    l-sphere (n the ball radius), made by ``sphere_patterns``: the triples
    (u, v, w, val) stably sorted by u, in CSR form (``indptr`` over the rows
    u of B_n, ``indices`` the columns v of B_{n-l}, int32), with ``w`` the
    sphere index of w in ball order.  A (u, v) pair may repeat.

    The order comes from one sort of distinct int64 keys u << bits | i, i the
    triple's position and bits the bit length of nnz - 1, so the low bits of
    the sorted keys are the stable order by u.  Ids stay below
    ``DEFAULT_ELEMENT_CAP`` < 2**21, so the keys fit in int64 for any nnz
    below 2**42.  The block-diagonal layout of a batch width, which does not
    depend on the coefficients, is built once per pattern and width and kept
    with the pattern (``layout``); ``matrix`` builds only the data."""

    def __init__(self, shape: tuple[int, int], u, v, w, val):
        self.shape = shape
        nnz = len(u)
        bits = (nnz - 1).bit_length()
        key = u.astype(np.int64)
        key <<= bits
        key |= np.arange(nnz)
        key.sort()
        key &= (1 << bits) - 1  # the stable order by u
        self.indptr = np.r_[0, np.cumsum(np.bincount(u, minlength=shape[0]))].astype(np.int32)
        self.indices = v.take(key).astype(np.int32, copy=False)
        self.w, self.val = w.take(key), val.take(key)
        self._layouts: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def layout(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, indptr)`` of the block-diagonal matrix of ``batch``
        blocks, built on the first call for that width and then shared."""
        got = self._layouts.get(batch)
        if got is None:
            cols, nnz = self.shape[1], len(self.val)
            # int32 indices while they fit: scipy takes them without a scan or a copy
            offsets = np.arange(batch, dtype=np.int32 if batch * nnz < 2**31 else np.int64)[:, None]
            got = self._layouts[batch] = (
                (self.indices + cols * offsets).ravel(),
                np.r_[(self.indptr[:-1] + nnz * offsets).ravel(), batch * nnz])
        return got

    def matrix(self, coeffs: np.ndarray):
        """The block-diagonal CSR matrix whose j-th block is
        P_n x_j P_{n-l} for x_j = sum_w coeffs[w, j] T_w over the l-sphere,
        on the shared ``layout`` of its width."""
        import scipy.sparse as sparse

        batch, (rows, cols) = coeffs.shape[1], self.shape
        data = np.take(coeffs.T, self.w, axis=1)
        data *= self.val
        return sparse.csr_matrix((data.ravel(), *self.layout(batch)),
                                 shape=(batch * rows, batch * cols))


def sphere_patterns(b: Ball, p: float, max_length: int):
    """Yield the ``SpherePattern`` of each length l = 1..max_length in turn
    (the spheres must be nonempty), all from one pass of left extension.

    w = s w' with s the first letter of w's canonical word, so
    T_w = T_s T_{w'}, and the one-letter rule T_s delta_u = delta_{su} +
    p [s <= u] delta_u (one p for every generator) runs on every triple of
    w' at once.  Stage 0 is T_e on B_{n-1}; stage k extends the triples of
    stage k - 1 with v in B_{n-k}, whose |u| <= |v| + k - 1 < n, so su stays
    in the ball.  Each length thus gets the triples, in their order, of its
    own extension from B_{n-l}.  The ball's tables are read with flat
    ``take`` at s * len(b) + u."""
    n, start, size = b.radius, b.sphere_start, len(b)
    lmul, ldesc = b.lmul.ravel(), b.ldesc.ravel()
    u = np.arange(start[n], dtype=np.int32)
    v, w, val = u, np.zeros(len(u), dtype=np.intp), np.ones(len(u))
    for k in range(1, max_length + 1):
        keep = v < start[n - k + 1]  # v in B_{n-k}
        u, v, w, val = u[keep], v[keep], w[keep], val[keep]
        ws = np.arange(start[k], start[k + 1])
        s = b.ldesc[:, start[k]:start[k + 1]].argmax(axis=0)
        parent = lmul.take(s * size + ws) - start[k - 1]
        # the rows of each w's left parent, gathered in sphere order
        counts = np.bincount(w, minlength=start[k] - start[k - 1])
        reps = counts.take(parent)
        w = np.repeat(np.arange(len(ws)), reps)
        rows = np.arange(len(w)) + np.repeat(
            np.cumsum(counts).take(parent) - np.cumsum(reps), reps)
        s, u, v, val = s.take(w), u.take(rows), v.take(rows), val.take(rows)
        # each row gives delta_{su}, then p delta_u when s <= u
        flat = s * size + u
        down = ldesc.take(flat) & (p != 0)
        twice = 1 + down
        at = (np.cumsum(twice) - 1)[down]
        below = u[down]
        u, v, w, val = (np.repeat(x, twice) for x in (lmul.take(flat), v, w, val))
        u[at] = below
        val[at] *= p
        yield SpherePattern((size, start[n - k + 1]), u, v, w, val)


def sphere_operator_norms(pattern: SpherePattern, coeff_matrix: np.ndarray,
                          iters: int = 12, seed: int = 0) -> np.ndarray:
    """Lower-bound estimates of || sum_w c_w T_w || over the l-sphere for a
    batch of coefficient vectors (columns of ``coeff_matrix``, one row per
    sphere element in ball order), by power iteration on X^T X for the
    compression X = P_n x P_{n-l} of ``pattern``.  Every ||X v|| / ||v|| is
    a lower bound on ||X||, so on the operator norm, up to float64 rounding;
    the running maximum over the iterations is reported per column.  Each
    iteration is one product with the batch's block-diagonal matrix and,
    except the last, one with its transpose.

    The columns never mix, so the batch splits into g = min(CPUs in the
    process's affinity, batch // 2) contiguous groups, each iterated by
    ``_group_norms`` on its own block-diagonal matrix and its own thread
    (the sparse products and numpy loops release the GIL).  The layout of
    each group width is the pattern's (``SpherePattern.layout``), built in
    the calling thread before any group starts, so the groups of a batch,
    and later batches of the same widths, share it and each group builds
    only its data.  The calling thread runs the first group and a pool
    scoped to the call runs the other g - 1, so g = 1 starts no thread and
    no worker outlives the call; a pool of g workers, with the caller idle,
    measured ~5 MB more peak RSS on pentagon balls of radius 9 and 10.  The
    start block is drawn and normalised for the whole batch first.  Each
    row of a group's products and reductions is summed in the same order as
    in the whole batch, so the estimates are bit-identical to one group's;
    every group holds at least two columns because numpy's row reduction of
    a one-row array can differ in the last bits.  A group that stops on an
    all-zero image stops where its columns would stay zero in the whole
    batch.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    batch, cols = coeff_matrix.shape[1], pattern.shape[1]
    rng = np.random.default_rng(seed)
    # one row per column of the batch, so each block's vector is contiguous
    vec = np.ascontiguousarray(rng.standard_normal((cols, batch)).T)
    vec /= _row_norms(vec)[:, None]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    groups = min(cpus or 1, batch // 2)
    if groups <= 1:
        return _group_norms(pattern, coeff_matrix, vec, iters)
    from concurrent.futures import ThreadPoolExecutor  # only a grouped batch pays the import
    cuts = [batch * k // groups for k in range(groups + 1)]
    for lo, hi in zip(cuts, cuts[1:]):  # so the threads only read the pattern's layouts
        pattern.layout(hi - lo)
    with ThreadPoolExecutor(groups - 1) as pool:
        rest = [pool.submit(_group_norms, pattern, coeff_matrix[:, lo:hi], vec[lo:hi], iters)
                for lo, hi in zip(cuts[1:-1], cuts[2:])]
        first = _group_norms(pattern, coeff_matrix[:, :cuts[1]], vec[:cuts[1]], iters)
        return np.concatenate([first] + [f.result() for f in rest])


def _group_norms(pattern: SpherePattern, coeffs: np.ndarray, vec: np.ndarray,
                 iters: int) -> np.ndarray:
    """The power iteration of ``sphere_operator_norms`` on one group of
    columns from its normalised start rows ``vec``."""
    batch, (rows, cols) = coeffs.shape[1], pattern.shape
    m = pattern.matrix(coeffs)
    mt = m.T
    est = np.zeros(batch)
    for it in range(iters):
        img = (m @ vec.ravel()).reshape(batch, rows)
        nrm = _row_norms(img)
        base = _row_norms(vec)
        est = np.maximum(est, np.where(base > 0, nrm / np.maximum(base, 1e-30), 0.0))
        if it == iters - 1 or not nrm.any():
            break
        vec = (mt @ img.ravel()).reshape(batch, cols)
        vec /= np.maximum(_row_norms(vec), 1e-30)[:, None]
    return est


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def haagerup_ratio(d: CoxeterDiagram, q: float, max_length: int, n: int,
                   trials: int, seed: int = 0, iters: int = 8) -> list[dict]:
    """Sampled ratios ||x|| / (l ||x||_2) for x on the l-sphere, one dict per
    l = 1..max_length: the per-trial ratios and their maximum, a lower bound
    for the best constant in the linear-in-l bound on sphere-supported
    operators.  Coefficients are standard normals drawn from ``seed`` anew
    for each l; each ||x|| is a power-iteration lower bound on the norm of
    P_n x P_{n-l} (``sphere_operator_norms``) on the l-th pattern of one
    ``sphere_patterns`` pass, which runs only after every check passed.
    Each batch of ``HAAGERUP_BATCH`` trials runs in column groups on threads,
    one per CPU up to one per two columns, and its ratios are bit-identical
    to one group's."""
    if not 0 < q < math.inf:
        raise ValueError("q must be positive and finite")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if max_length < 1:
        raise ValueError("l must be >= 1")
    if n < max_length + 2:
        raise ValueError("need n >= l + 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    b = ball(d, n)
    if b.sphere_sizes()[max_length] == 0:
        raise ValueError("need a nonempty sphere of length <= the ball radius")
    out = []
    for l, pattern in enumerate(sphere_patterns(b, (q - 1.0) / math.sqrt(q), max_length), 1):
        samples = np.random.default_rng(seed).standard_normal((b.sphere_sizes()[l], trials))
        ratios: list[float] = []
        for lo in range(0, trials, HAAGERUP_BATCH):
            chunk = samples[:, lo:lo + HAAGERUP_BATCH]
            tops = sphere_operator_norms(pattern, chunk, iters=iters, seed=seed)
            l2s = np.linalg.norm(chunk, axis=0)
            ratios.extend((tops / (l * l2s)).tolist())
        out.append({"l": l, "n": n, "q": float(q), "trials": trials,
                    "ratios": ratios, "max_ratio": max(ratios)})
    return out
