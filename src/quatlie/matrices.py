"""Quaternion matrices, for the root vectors and ``weight_decomposition``.

A QuatMatrix is a square matrix over the exact quaternions.  Writing it
entrywise as ``A + J*B`` with complex matrices A, B, the complex picture
is the 2n x 2n block matrix ``[[A, -conj(B)], [B, conj(A)]]``; those are
exactly the matrices Z satisfying ``J Z = conj(Z) J``.  The embedding is
an injective R-algebra homomorphism.  It lives in ``tests/oracles.py``,
with every two-path check of the test suite that leans on it, and with
the matrix conjugations, the transpose through that picture and the
constructors that no command uses; the package itself builds its
matrices as coordinate rows (``quatlie.realizations``).

Sums and products skip zero operands (``a + 0`` is ``a``, ``0 - b`` is
``-b``, and ``@`` puts a product in an empty cell as it is): exact
identities, so every value and its type are unchanged.

Coordinate flattening is fixed as row-major over entries with the four
real coordinates (re z1, im z1, re z2, im z2) per entry; every span
computation in the package depends on this ordering.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MalformedInputError
from .linalg import Vec
from .scalars import Q_ZERO, Quaternion, integral


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

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.rows for a in row)

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
