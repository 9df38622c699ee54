"""Exact linear algebra over Q on sparse coordinate vectors.

A vector is a dict mapping coordinate index to an exact rational, an
``int`` or a ``Fraction`` and never a ``float``; a zero value counts as no
term, and stored basis rows hold none.  The one division,
:func:`exact_div`, returns an ``int`` whenever the quotient is integral,
so vectors with integral values stay ``int`` throughout.

The span engine keeps a reduced row echelon basis: every pivot is 1,
pivot columns are cleared in all other rows, and rows are ordered by
pivot column.  Reduced echelon form is canonical for a subspace, so ranks,
membership tests and serialized bases never depend on insertion order.
There is no rank tolerance anywhere; a vector is in a span exactly when
it reduces to zero.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

from .errors import DegenerateInputError
from .scalars import integral

Vec = dict  # {int: int | Fraction}


def exact_div(a, b):
    """``a / b`` exactly: an ``int`` when the quotient is integral, else a ``Fraction``."""
    if type(a) is int and type(b) is int:
        quotient, remainder = divmod(a, b)
        if not remainder:
            return quotient
    return integral(Fraction(a, b))


def vec_iadd_scaled(target: Vec, source: Vec, factor) -> Vec:
    """In place ``target += factor * source``, dropping entries that cancel."""
    if not factor:
        return target
    for idx, val in source.items():
        acc = target.get(idx)
        if acc is None:
            target[idx] = factor * val
        else:
            acc = acc + factor * val
            if acc:
                target[idx] = acc
            else:
                del target[idx]
    return target


class SpanBasis:
    """Reduced row echelon basis of a rational subspace.

    Because the form is fully reduced, a stored row contains no pivot
    column of any other row.  Reducing a vector therefore needs a single
    pass over the pivot columns present in it.

    A zero value counts as no term: ``insert`` never takes one as a
    pivot, a lead or a stored entry, so a vector of zeros adds nothing
    and ``contains`` holds for it (``reduce`` passes zeros through).
    """

    def __init__(self):
        self.rows: list[Vec] = []
        self.pivots: list[int] = []
        self._by_pivot: dict[int, Vec] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """Residual of ``vec`` after eliminating every pivot column."""
        out = dict(vec)
        by_pivot = self._by_pivot
        for piv in [idx for idx in out if idx in by_pivot]:
            coeff = out.get(piv)
            if coeff:
                vec_iadd_scaled(out, by_pivot[piv], -coeff)
        return out

    def contains(self, vec: Vec) -> bool:
        return not any(self.reduce(vec).values())

    def insert(self, vec: Vec) -> bool:
        """Add a vector to the span; returns True when the rank grew."""
        residual = self.reduce(vec)
        if not all(residual.values()):  # copied only when a zero is stored
            residual = {idx: val for idx, val in residual.items() if val}
        if not residual:
            return False
        piv = min(residual)
        lead = residual[piv]
        row = {idx: exact_div(val, lead) for idx, val in residual.items()}
        for other in self.rows:
            coeff = other.get(piv)
            if coeff:
                vec_iadd_scaled(other, row, -coeff)
        pos = bisect.bisect_left(self.pivots, piv)
        self.rows.insert(pos, row)
        self.pivots.insert(pos, piv)
        self._by_pivot[piv] = row
        return True

    def extend(self, vectors) -> None:
        for vec in vectors:
            self.insert(vec)

    def same_span(self, other: "SpanBasis") -> bool:
        """Exact subspace equality; reduced echelon form is canonical."""
        return self.pivots == other.pivots and self.rows == other.rows


def span_of(vectors) -> SpanBasis:
    basis = SpanBasis()
    basis.extend(vectors)
    return basis


def independent_span(vectors) -> SpanBasis:
    """Span of vectors required to be independent; raises otherwise."""
    basis = SpanBasis()
    for vec in vectors:
        if not basis.insert(vec):
            raise DegenerateInputError("vectors are linearly dependent over Q")
    return basis


class LinearSolver:
    """Expresses vectors over a fixed independent (not necessarily echelon) basis.

    A row with a *private column*, a coordinate where it is nonzero and
    every other row is zero, is read off there: the coefficient of any
    vector in the span is its value at that column over the row's value
    (de Graaf, *Lie Algebras: Theory and Algorithms*, 2000).  Such a row is
    independent of all the others, so only the rows without one are
    eliminated.  Each of those is augmented with a tracking coordinate past
    the rows' largest coordinate, and the augmented rows are brought to
    reduced echelon form in a ``SpanBasis``.  What is left of a vector once
    the read-off rows are taken out is reduced by that basis; it is in the
    span of the leftover rows exactly when no coordinate below the tracking
    ones is left, and its coefficients are then minus the tracking values.

    On the adapted bases of A1, A2, A3, B2, C2 and D3 only 0, 0, 1, 2, 2
    and 1 rows have no private column, and only 112 of the 4,152
    ``express`` calls of a build of the six leave anything to reduce.
    Zero values stored in a row are ignored, so they never become a
    divisor.
    """

    def __init__(self, rows: list[Vec]):
        rows = [{idx: val for idx, val in row.items() if val} for row in rows]
        touching: dict = {}  # coordinate -> the rows nonzero there
        for r, row in enumerate(rows):
            for idx in row:
                touching.setdefault(idx, []).append(r)
        # the smallest private column of each row that has one
        column: dict = {}
        for idx in sorted(touching):
            hits = touching[idx]
            if len(hits) == 1:
                column.setdefault(hits[0], idx)
        # private column -> (its row, the row's value there, the row's other terms)
        self._private: dict = {
            col: (r, rows[r][col], [(idx, val) for idx, val in rows[r].items() if idx != col])
            for r, col in column.items()
        }
        ambient_dim = 1 + max(touching, default=-1)
        basis = SpanBasis()
        for offset, row in enumerate(rows):
            if offset in column:
                continue
            augmented = dict(row)
            augmented[ambient_dim + offset] = 1
            residual = basis.reduce(augmented)
            # a dependent row leaves only tracking coordinates behind
            if not residual or min(residual) >= ambient_dim:
                raise DegenerateInputError("solver rows are linearly dependent")
            basis.insert(residual)
        self._basis, self._tracking = basis, ambient_dim

    def express(self, vec: Vec):
        """Coefficients c with ``vec == sum c[i] * rows[i]``, or None.

        Sparse: ``{i: c[i]}`` over the nonzero c[i], in no set order.
        Zero values in ``vec`` are ignored, so a bracket's sums can be
        passed as they are.  ``vec`` is outside the span when a term at or
        past the tracking coordinates is left after the read-off, or a
        coordinate below them is left nonzero after the reduction.
        """
        private = self._private
        coeffs: dict = {}
        residual: dict = {}  # vec less the read-off rows
        for idx, val in vec.items():
            if val:
                hit = private.get(idx)
                if hit is None:
                    residual[idx] = residual.get(idx, 0) + val
                else:
                    r, lead, others = hit
                    # most leads are pivots, 1, and most values ints
                    c = coeffs[r] = val if lead == 1 and type(val) is int else exact_div(val, lead)
                    for col, a in others:
                        residual[col] = residual.get(col, 0) - c * a
        if not residual:  # read off the private columns alone, each coefficient nonzero
            return coeffs
        tracking = self._tracking
        if max(residual) >= tracking:
            return None
        for idx, val in self._basis.reduce(residual).items():
            if idx >= tracking:
                coeffs[idx - tracking] = -val
            elif val:
                return None
        return coeffs


def kernel_basis(equations: list[Vec], nvars: int) -> list[Vec]:
    """Canonical basis of the solution space of ``equations @ x = 0``.

    Free variables are taken in ascending order; each kernel vector sets
    one free variable to 1 and back-substitutes through the reduced
    echelon form of the equations.
    """
    echelon = span_of(equations)
    pivot_set = set(echelon.pivots)
    kernel = []
    for free in range(nvars):
        if free in pivot_set:
            continue
        vec: Vec = {free: 1}
        for piv, row in zip(echelon.pivots, echelon.rows):
            coeff = row.get(free)
            if coeff:
                vec[piv] = -coeff
        kernel.append(vec)
    return kernel
