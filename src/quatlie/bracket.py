"""The gl(n,H) bracket, bracket closure of a real span, and structure constants.

Every hot loop runs on flattened coordinate vectors (``Vec``): a matrix
is a sparse dict over the 4*n*n real coordinates, row-major over the
entries with (re z1, im z1, re z2, im z2) per entry.  In those
coordinates the four units are 1, i, j and -k, and the product of two
units is a signed unit again, ``e_s * e_t = _SIGN[s][t] * e_(s ^ t)``,
so the kernel forms the commutator

    [X, Y]_pq = sum_r X_pr Y_rq - Y_pr X_rq

one nonzero coordinate pair at a time, in exact arithmetic (``int`` on
integral inputs, ``Fraction`` once a non-integral value enters), without
building quaternion matrices.

The kernel takes two steps.  :func:`group_rows` groups a row's
coordinates by matrix row, and :func:`bracket_terms` brackets two
grouped rows into a fresh dict, zero sums kept; :func:`bracket_grouped`
drops them.  Every sweep over pairs groups each of its rows once.
[X, Y] has no term unless a column of X is a row of Y or a column of Y
a row of X; the closure tests that on :func:`support_masks`.  The
structure constants and check read a row's brackets off an index of the
later rows (:func:`sweep_brackets`) and take each fresh dict as it is:
the constants solve it, the check subtracts the table's entry from it.

The conjugations are sign flips: sigma (z1 + j*z2 -> z1 - j*z2) negates
offsets 2 and 3 of every entry, tau (complex conjugation of z1 and z2)
negates offsets 1 and 3.  Entrywise left multiplication by a unit is a
signed permutation of the offsets, so i*x and J x (left multiplication
by j) are coordinate maps too.  A built algebra is stored as such rows,
and its checks read them as they are.

:func:`bracket` stays the ``QuatMatrix`` commutator ``x @ y - y @ x``.
It serves the realization boundary (the root vectors; generators are
validated on coordinate rows) and is the independent oracle that the
tests hold the kernel against.

Closure (:func:`close_vecs`) works over a worklist of coordinate rows:
every accepted member is bracketed against fixed operators ``ops`` when
they are given, and against the members accepted before it when they
are not; results that enlarge the span are queued in turn.  Without
``ops`` that is the bracket closure of the generators, at most
C(dim, 2) brackets.  With ``ops`` it is the smallest span that contains
the generators and is stable under ad(x) for every x in ``ops``, at
most dim * len(ops) brackets; when ``ops`` are the generators this is
again the subalgebra they generate, since right-normed brackets of a
set span it (de Graaf, *Lie Algebras: Theory and Algorithms*, 2000).
The ambient real dimension 4*n*n bounds the number of accepted members,
so the loop terminates.  The resulting reduced-echelon basis is
canonical for the closed subspace, hence independent of generator order.
A grading of the matrix cells lets the loop skip brackets that the span
would reject (:func:`close_vecs`).
"""

from __future__ import annotations

import operator
from collections import deque
from math import comb
from typing import NamedTuple

from .errors import NotClosedError
from .linalg import LinearSolver, SpanBasis, Vec
from .matrices import QuatMatrix

# e_s * e_t = _SIGN[s][t] * e_(s ^ t) for the coordinate units (1, i, j, -k)
_SIGN = ((1, 1, 1, 1), (1, -1, -1, 1), (1, 1, -1, -1), (1, -1, 1, -1))
_NEG_SIGN_T = tuple(tuple(-_SIGN[t][s] for t in range(4)) for s in range(4))


def bracket(x: QuatMatrix, y: QuatMatrix) -> QuatMatrix:
    """Commutator ``x @ y - y @ x``; raises on dimension mismatch."""
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {y.n}")
    return (x @ y) - (y @ x)


def group_rows(x: Vec, n: int) -> dict:
    """Row p -> [(column, unit offset, value)] of a flattened matrix."""
    rows: dict = {}
    for idx, val in x.items():
        cell, s = divmod(idx, 4)
        p, q = divmod(cell, n)
        rows.setdefault(p, []).append((q, s, val))
    return rows


def support_masks(grouped: dict) -> tuple[int, int]:
    """Bit masks of the matrix rows and the columns that a row given by
    :func:`group_rows` touches, for the test ``ci & rj or cj & ri``."""
    rows = cols = 0
    for p, entries in grouped.items():
        rows |= 1 << p
        for q, _, _ in entries:
            cols |= 1 << q
    return rows, cols


def _add_product(out: dict, left: dict, right: dict, n: int, sign: int) -> None:
    """``out += sign * (left @ right)`` on row-grouped coordinates."""
    for p, entries in left.items():
        row_base = 4 * n * p
        for r, s, v in entries:
            signs = _SIGN[s]
            for q, t, w in right.get(r, ()):
                idx = row_base + 4 * q + (s ^ t)
                term = v * w if signs[t] == sign else -(v * w)
                acc = out.get(idx)
                out[idx] = term if acc is None else acc + term


def bracket_terms(rows_x: dict, rows_y: dict, n: int) -> dict:
    """Commutator of two matrices given by :func:`group_rows`, flattened,
    as a fresh dict that may hold zero values where terms cancel.

    ``int`` inputs give ``int`` values, and a ``Fraction`` anywhere in a
    product gives a ``Fraction``.
    """
    out: dict = {}
    _add_product(out, rows_x, rows_y, n, 1)
    _add_product(out, rows_y, rows_x, n, -1)
    return out


def bracket_grouped(rows_x: dict, rows_y: dict, n: int) -> Vec:
    """:func:`bracket_terms` with only the nonzero values kept."""
    return {idx: val for idx, val in bracket_terms(rows_x, rows_y, n).items() if val}


def sweep_brackets(vecs: list[Vec], n: int):
    """Yield ``(i, {j: [x_i, x_j]})`` for i from the last row to the first,
    over the rows j > i whose bracket with x_i has a term, each bracket a
    fresh dict as :func:`bracket_terms` gives it.

    (x_i x_j)_pq pairs x_i at (p, r) with x_j at (r, q), and (x_j x_i)_pq
    x_j at (p, r) with x_i at (r, q): the later rows are indexed by matrix
    row and column; row i joins the index after its own brackets.
    """
    by_row: list = [[] for _ in range(n)]  # r -> (j, 4q, t, w) for x_j at (r, q)
    by_col: list = [[] for _ in range(n)]  # r -> (j, 4np, t, w) for x_j at (p, r)
    for i in range(len(vecs) - 1, -1, -1):
        grouped = group_rows(vecs[i], n)
        out: dict = {}
        for p, entries in grouped.items():
            for r, s, v in entries:
                # e_s e_t for x_i x_j, and -e_t e_s for x_j x_i, by t
                for hits, base, signs in (
                    (by_row[r], 4 * n * p, _SIGN[s]),
                    (by_col[p], 4 * r, _NEG_SIGN_T[s]),
                ):
                    for j, other_base, t, w in hits:
                        idx = base + other_base + (s ^ t)
                        term = v * w if signs[t] == 1 else -(v * w)
                        terms = out.get(j)
                        if terms is None:
                            out[j] = {idx: term}
                        else:
                            acc = terms.get(idx)
                            terms[idx] = term if acc is None else acc + term
        yield i, out
        for p, entries in grouped.items():
            for q, t, w in entries:
                by_row[p].append((i, 4 * q, t, w))
                by_col[q].append((i, 4 * n * p, t, w))


def sigma_vec(x: Vec) -> Vec:
    """sigma in coordinates: negate re z2 and im z2 of every entry."""
    return {idx: -val if idx & 2 else val for idx, val in x.items()}


def sigma_parity(x: Vec):
    """+1 / -1 when ``x`` is a nonzero sigma eigenvector, None if mixed or zero."""
    offsets = {idx & 2 for idx in x}
    if len(offsets) != 1:
        return None
    return 1 if offsets == {0} else -1


def tau_vec(x: Vec) -> Vec:
    """tau in coordinates: negate im z1 and im z2 of every entry."""
    return {idx: -val if idx & 1 else val for idx, val in x.items()}


def left_unit_vec(u: int, x: Vec) -> Vec:
    """Entrywise left multiplication by the coordinate unit e_u.

    ``e_u * e_s = _SIGN[u][s] * e_(u ^ s)`` moves offset s to u ^ s with
    a sign; u = 1 gives i*x and u = 2 gives J x.
    """
    signs = _SIGN[u]
    return {idx ^ u: val if signs[idx & 3] > 0 else -val for idx, val in x.items()}


class StructureConstants:
    """Sparse bracket table over a fixed ordered basis.

    Only keys with i < j are stored; the i > j values follow by
    antisymmetry and the diagonal vanishes.
    """

    __slots__ = ("dim", "table")

    def __init__(self, dim: int, table: dict | None = None):
        self.dim = dim
        self.table = {} if table is None else table  # (i, j) -> ((k, int | Fraction), ...)

    def get(self, i: int, j: int):
        """Bracket coefficients of [x_i, x_j] for arbitrary index order."""
        if i == j:
            return ()
        if i < j:
            return self.table.get((i, j), ())
        return tuple((k, -c) for k, c in self.table.get((j, i), ()))

    def ad(self, i: int, coeffs: Vec) -> Vec:
        """Coefficients of [x_i, v] for v given by basis coefficients."""
        out: Vec = {}
        for j, cj in coeffs.items():
            for k, c in self.get(i, j):
                acc = out.get(k, 0) + cj * c
                if acc:
                    out[k] = acc
                else:
                    out.pop(k, None)
        return out

    def jacobi_defect(self, i: int, j: int, k: int) -> Vec:
        """[x_i,[x_j,x_k]] + [x_j,[x_k,x_i]] + [x_k,[x_i,x_j]] as coefficients."""
        out: Vec = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = {m: coeff for m, coeff in self.get(b, c)}
            for m, coeff in self.ad(a, inner).items():
                acc = out.get(m, 0) + coeff
                if acc:
                    out[m] = acc
                else:
                    out.pop(m, None)
        return out


class ClosureResult(NamedTuple):
    span: SpanBasis
    n: int

    @property
    def dim(self) -> int:
        return self.span.rank


def _grade(grouped: dict, cell_weight: list, n: int):
    """The one cell weight of every coordinate of a grouped row, or None
    when the row is zero or spreads over cells of two weights."""
    weights = {cell_weight[p * n + q] for p, entries in grouped.items() for q, _, _ in entries}
    return weights.pop() if len(weights) == 1 else None


def close_vecs(
    generators: list[Vec], n: int, ops: list[Vec] | None = None, cell_weight: list | None = None
) -> SpanBasis:
    """Smallest real subspace containing the flattened n x n generators
    and closed under bracket with ``ops``, or with itself when ``ops`` is
    None, as its echelon basis.

    ``cell_weight[p * n + q]``, a tuple, is an additive grading of the
    matrix cells: the weight of cell (p, r) plus that of (r, q) is the
    weight of (p, q), as d_p - d_q is for any numbers d.  None gives every
    cell the one weight ().  It only decides which brackets to skip; the
    span is the same under any grading.

    [X, Y]_pq sums X_pr Y_rq - Y_pr X_rq, and the weights of (p, r) and
    (r, q) add up to that of (p, q), so the bracket of a row of one weight
    a with a row of one weight b lies on the cells of weight a + b.
    Accepted members are independent, so once the accepted members of the
    one weight w number 4 * (cells of weight w), they span every
    coordinate of weight w.  A later bracket of weight w then lies in the
    span and would be rejected: it is skipped without being queued.  A
    queued bracket is an operand pair with its weight, computed only when
    it is dequeued, so one whose weight filled while it waited is dropped
    uncomputed.  A row of two weights, a zero op and a sum that is no cell
    weight are never skipped.  Since every skipped candidate is one the
    span would reject, the members accepted, their order and the echelon
    basis are those of the ungraded loop; only the bracket count falls.

    Dependent or zero generators are harmless; they reduce away during
    insertion.  Worst case the closure is all of gl(n, H).
    """
    span = SpanBasis(4 * n * n)
    if cell_weight is None:
        cell_weight = [()] * (n * n)
    # weight -> its coordinates that the accepted rows of that one weight
    # do not fill yet: 4 per cell, less one per such row
    room: dict = {}
    for w in cell_weight:
        room[w] = room.get(w, 0) + 4
    # (grouped, row mask, column mask, weight or None): the accepted
    # candidates without ops, else the fixed ops; a pair whose supports
    # miss brackets to zero
    partners = [
        (x, *support_masks(x), _grade(x, cell_weight, n))
        for x in (group_rows(v, n) for v in ops or ())
    ]
    weight_sum: dict = {}  # (a, b) -> a + b, by first use
    # (op, grouped row, weight or None) of a bracket to take, or (None, row, None)
    pending = deque((None, v, None) for v in generators)
    while pending:
        x, y, w = pending.popleft()
        if room.get(w) == 0:  # a weight filled since the bracket was queued
            continue
        candidate = y if x is None else bracket_grouped(x, y, n)
        if not span.insert(candidate):
            continue
        grouped = group_rows(candidate, n)
        rows, cols = support_masks(grouped)
        a = _grade(grouped, cell_weight, n)
        if a is not None:
            room[a] -= 1
        for x, r, c, b in partners:
            if not (c & rows or cols & r):
                continue
            total = None
            if a is not None and b is not None:
                total = weight_sum.get((a, b))
                if total is None:
                    total = weight_sum[a, b] = tuple(map(operator.add, a, b))
                if room.get(total) == 0:  # a filled weight: the span holds the bracket
                    continue
            pending.append((x, grouped, total))
        if ops is None:
            partners.append((grouped, rows, cols, a))
    return span


def close_under_bracket(generators: list[Vec], n: int) -> ClosureResult:
    """:func:`close_vecs` of flattened n x n matrices, with their size."""
    if not generators:
        raise ValueError("need at least one generator")
    return ClosureResult(span=close_vecs(generators, n), n=n)


def structure_constants(
    vecs: list[Vec], n: int, solver: LinearSolver | None = None
) -> StructureConstants:
    """Bracket table of a bracket-closed list of independent flattened matrices.

    ``solver``, when given, must express vectors over ``vecs`` in this
    order; otherwise one is built.
    """
    if solver is None:
        solver = LinearSolver(vecs, 4 * n * n)
    table = {}
    for i, brackets in sweep_brackets(vecs, n):
        for j, terms in brackets.items():
            coeffs = solver.express(terms)  # zero values and all
            if coeffs is None:
                raise NotClosedError(f"bracket of basis elements {i}, {j} leaves the span")
            if coeffs:
                table[i, j] = tuple(sorted(coeffs.items()))
    return StructureConstants(dim=len(vecs), table=dict(sorted(table.items())))


class JacobiReport(NamedTuple):
    dim: int
    triples_checked: int
    failures: list

    @property
    def exhaustive(self) -> bool:
        return self.triples_checked == comb(self.dim, 3)

    @property
    def ok(self) -> bool:
        return not self.failures


def jacobi_check(sc: StructureConstants) -> JacobiReport:
    """Exact Jacobi identity over the table, on every triple i < j < k.

    The ``jacobi`` check of ``quaternify.CHECKS`` establishes the identity
    through ``structure`` instead; this is the independent oracle the
    tests hold the table against.
    """
    dim = sc.dim
    failures = []
    checked = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                checked += 1
                if sc.jacobi_defect(i, j, k):
                    failures.append((i, j, k))
    return JacobiReport(dim=dim, triples_checked=checked, failures=failures)


class EquivarianceReport(NamedTuple):
    pairs_checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def check_conjugation_equivariance(vecs: list[Vec], n: int) -> EquivarianceReport:
    """Kernel oracle: sigma[x,y] == [sigma x, sigma y], likewise for tau,
    on all pairs of the flattened matrices ``vecs``.

    sigma and tau are automorphisms of gl(n, H), so this holds for any
    matrices and tests that ``bracket_grouped`` and the sign flips agree.
    Acceptance criterion 10 calls it; the ``conjugations`` check of
    ``quaternify.CHECKS`` tests the claim with content, that a span is
    sigma- and tau-stable.
    """
    grouped = [[group_rows(w, n) for w in (v, sigma_vec(v), tau_vec(v))] for v in vecs]
    failures = []
    pairs = 0
    for i, (x, sigma_x, tau_x) in enumerate(grouped):
        for j in range(i + 1, len(grouped)):
            y, sigma_y, tau_y = grouped[j]
            pairs += 1
            br = bracket_grouped(x, y, n)
            if sigma_vec(br) != bracket_grouped(sigma_x, sigma_y, n):
                failures.append((i, j, "sigma"))
            if tau_vec(br) != bracket_grouped(tau_x, tau_y, n):
                failures.append((i, j, "tau"))
    return EquivarianceReport(pairs_checked=pairs, failures=failures)
