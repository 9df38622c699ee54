"""Quaternion matrices, conjugations and the sigma-submodule predicate.

A QuatMatrix is a square matrix over the exact quaternions.  Writing it
entrywise as ``A + J*B`` with complex matrices A, B, the complex picture
is the 2n x 2n block matrix ``[[A, -conj(B)], [B, conj(A)]]``; those are
exactly the matrices Z satisfying ``J Z = conj(Z) J``.  The embedding is
an injective R-algebra homomorphism.  It lives in ``tests/oracles.py``,
with every two-path check of the test suite that leans on it.

Transposition for quaternion matrices is defined through that complex
picture: plain 2n x 2n transposition pulled back along the embedding,
i.e. ``A + J*B -> transpose(A) - J*conj_transpose(B)``.  The naive
entrywise transpose would give the wrong block characterization (and the
wrong dimension count) for the antisymmetric algebras built on top.

Sums and products skip zero operands (``a + 0`` is ``a``, ``0 - b`` is
``-b``, and ``@`` puts a product in an empty cell as it is): exact
identities, so every value and its type are unchanged.

Coordinate flattening is fixed as row-major over entries with the four
real coordinates (re z1, im z1, re z2, im z2) per entry; every span
computation in the package depends on this ordering.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateInputError, MalformedInputError
from .linalg import SpanBasis, Vec, independent_span
from .scalars import Q_ZERO, Quaternion, integral, quat_J


class QuatMatrix:
    """Immutable square matrix of quaternions."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise MalformedInputError("matrix must be square")
        self.n = n
        self.rows = rows

    @classmethod
    def zeros(cls, n: int) -> "QuatMatrix":
        return cls([[Q_ZERO] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "QuatMatrix":
        from .scalars import Q_ONE

        return cls.unit_sum(n, [(p, p, Q_ONE) for p in range(n)])

    @classmethod
    def unit(cls, n: int, p: int, q: int, coeff: Quaternion) -> "QuatMatrix":
        """Matrix with a single quaternion entry at (p, q)."""
        return cls.unit_sum(n, [(p, q, coeff)])

    @classmethod
    def unit_sum(cls, n: int, entries) -> "QuatMatrix":
        rows = [[Q_ZERO] * n for _ in range(n)]
        for p, q, coeff in entries:
            rows[p][q] = rows[p][q] + coeff
        return cls(rows)

    def entry(self, p: int, q: int) -> Quaternion:
        return self.rows[p][q]

    def __eq__(self, other):
        return (
            isinstance(other, QuatMatrix)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        self._check_dim(other)
        return QuatMatrix(
            [
                [a if b.is_zero() else b if a.is_zero() else a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        self._check_dim(other)
        return QuatMatrix(
            [
                [a if b.is_zero() else -b if a.is_zero() else a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self):
        return QuatMatrix([[-a for a in row] for row in self.rows])

    def _check_dim(self, other: "QuatMatrix"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def scale(self, coeff: Quaternion) -> "QuatMatrix":
        """Entrywise left multiplication by a quaternion scalar."""
        if coeff.is_zero():
            return QuatMatrix.zeros(self.n)
        return QuatMatrix([[coeff * a for a in row] for row in self.rows])

    def scale_rational(self, value: Fraction) -> "QuatMatrix":
        return QuatMatrix([[a.scale(value) for a in row] for row in self.rows])

    def __matmul__(self, other):
        self._check_dim(other)
        n = self.n
        out = [[Q_ZERO] * n for _ in range(n)]
        for p in range(n):
            source = self.rows[p]
            target = out[p]
            for r in range(n):
                x = source[r]
                if x.is_zero():
                    continue
                row_other = other.rows[r]
                for q in range(n):
                    y = row_other[q]
                    if not y.is_zero():
                        acc = target[q]
                        target[q] = x * y if acc is Q_ZERO else acc + x * y
        return QuatMatrix(out)

    def trace(self) -> Quaternion:
        acc = Q_ZERO
        for p in range(self.n):
            acc = acc + self.rows[p][p]
        return acc

    def re_trace(self) -> Fraction:
        return self.trace().real

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.rows for a in row)

    def conj_transpose(self) -> "QuatMatrix":
        """Quaternionic conjugate transpose ``(X*)_{pq} = conj(X_{qp})``."""
        n = self.n
        return QuatMatrix(
            [[self.rows[q][p].conj() for q in range(n)] for p in range(n)]
        )

    def flatten(self) -> Vec:
        """Sparse coordinate dict (row-major, 4 reals per entry).

        Integral coordinates are emitted as ``int``.
        """
        coords: Vec = {}
        n = self.n
        for p in range(n):
            for q in range(n):
                a = self.rows[p][q]
                if a.is_zero():
                    continue
                base = 4 * (p * n + q)
                for offset, val in enumerate(a.to_coords()):
                    if val:
                        coords[base + offset] = integral(val)
        return coords

    @classmethod
    def unflatten(cls, n: int, coords: Vec) -> "QuatMatrix":
        pieces: dict[tuple[int, int], list] = {}
        for idx, val in coords.items():
            cell, offset = divmod(idx, 4)
            p, q = divmod(cell, n)
            pieces.setdefault((p, q), [0] * 4)[offset] = val
        rows = [[Q_ZERO] * n for _ in range(n)]
        for (p, q), (a, b, c, d) in pieces.items():
            rows[p][q] = Quaternion.from_coords(a, b, c, d)
        return cls(rows)


def flatten(m: QuatMatrix) -> Vec:
    """Sparse coordinate dict of a matrix (row-major, 4 reals per entry)."""
    return m.flatten()


def apply_sigma(m: QuatMatrix) -> QuatMatrix:
    """Entrywise ``z1 + j*z2 -> z1 - j*z2``; fixes A, negates B."""
    return QuatMatrix([[Quaternion(a.z1, -a.z2) for a in row] for row in m.rows])


def apply_tau(m: QuatMatrix) -> QuatMatrix:
    """Entrywise complex conjugation of both components."""
    return QuatMatrix(
        [[Quaternion(a.z1.conj(), a.z2.conj()) for a in row] for row in m.rows]
    )


def apply_J(m: QuatMatrix) -> QuatMatrix:
    """Entrywise left multiplication by j; satisfies ``J(J(m)) == -m``."""
    return QuatMatrix([[quat_J(a) for a in row] for row in m.rows])


def quat_transpose_mj(m: QuatMatrix) -> QuatMatrix:
    """Transpose through the complex picture: ``A + J*B -> tA - J*conj(tB)``."""
    n = m.n
    return QuatMatrix(
        [
            [
                Quaternion(m.rows[q][p].z1, -m.rows[q][p].z2.conj())
                for q in range(n)
            ]
            for p in range(n)
        ]
    )


# ---------------------------------------------------------------------------
# Submodule predicates
# ---------------------------------------------------------------------------


def _checked_span(basis: list[QuatMatrix]) -> SpanBasis:
    if not basis:
        raise DegenerateInputError("empty basis")
    ambient = 4 * basis[0].n * basis[0].n
    return independent_span([flatten(m) for m in basis], ambient)


def is_sigma_submodule(basis: list[QuatMatrix]) -> bool:
    """True when the real span is invariant under both sigma and tau."""
    span = _checked_span(basis)
    return all(
        span.contains(flatten(apply_sigma(m)))
        and span.contains(flatten(apply_tau(m)))
        for m in basis
    )
