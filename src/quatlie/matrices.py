"""Quaternion matrices, their 2n x 2n complex picture, and conjugations.

A QuatMatrix is a square matrix over the exact quaternions.  Writing it
entrywise as ``A + J*B`` with complex matrices A, B, the complex picture
is the 2n x 2n block matrix ``[[A, -conj(B)], [B, conj(A)]]``; those are
exactly the matrices Z satisfying ``J Z = conj(Z) J``.  The embedding is
an injective R-algebra homomorphism, which is what every two-path check
in the test suite leans on.

Transposition for quaternion matrices is defined through that complex
picture: plain 2n x 2n transposition pulled back along the embedding,
i.e. ``A + J*B -> transpose(A) - J*conj_transpose(B)``.  The naive
entrywise transpose would give the wrong block characterization (and the
wrong dimension count) for the antisymmetric algebras built on top.

Coordinate flattening is fixed as row-major over entries with the four
real coordinates (re z1, im z1, re z2, im z2) per entry; every span
computation in the package depends on this ordering.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateInputError, MalformedInputError
from .linalg import SpanBasis, Vec, independent_span
from .scalars import GR_ZERO, Q_ZERO, Quaternion, integral, quat_J


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
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        self._check_dim(other)
        return QuatMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
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
                        target[q] = target[q] + x * y
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
# Complex block matrices and the MJ picture
# ---------------------------------------------------------------------------

ComplexMatrix = tuple  # tuple of tuples of GaussianRational


def _cmat(rows) -> ComplexMatrix:
    return tuple(tuple(row) for row in rows)


def _cmat_add(x: ComplexMatrix, y: ComplexMatrix) -> ComplexMatrix:
    return tuple(
        tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y)
    )


def _cmat_sub(x: ComplexMatrix, y: ComplexMatrix) -> ComplexMatrix:
    return tuple(
        tuple(a - b for a, b in zip(rx, ry)) for rx, ry in zip(x, y)
    )


def _cmat_neg(x: ComplexMatrix) -> ComplexMatrix:
    return tuple(tuple(-a for a in row) for row in x)


def _cmat_conj(x: ComplexMatrix) -> ComplexMatrix:
    return tuple(tuple(a.conj() for a in row) for row in x)


def _cmat_mul(x: ComplexMatrix, y: ComplexMatrix) -> ComplexMatrix:
    n = len(x)
    out = [[GR_ZERO] * n for _ in range(n)]
    for p in range(n):
        for r in range(n):
            a = x[p][r]
            if a.is_zero():
                continue
            row_y = y[r]
            target = out[p]
            for q in range(n):
                b = row_y[q]
                if not b.is_zero():
                    target[q] = target[q] + a * b
    return _cmat(out)


class MJMatrix:
    """The 2n x 2n complex image ``[[A, -conj(B)], [B, conj(A)]]``."""

    __slots__ = ("n", "block_a", "block_b")

    def __init__(self, block_a, block_b):
        self.block_a = _cmat(block_a)
        self.block_b = _cmat(block_b)
        self.n = len(self.block_a)
        if len(self.block_b) != self.n:
            raise MalformedInputError("blocks must have equal size")

    def __eq__(self, other):
        return (
            isinstance(other, MJMatrix)
            and self.block_a == other.block_a
            and self.block_b == other.block_b
        )

    def __add__(self, other):
        return MJMatrix(
            _cmat_add(self.block_a, other.block_a),
            _cmat_add(self.block_b, other.block_b),
        )

    def __sub__(self, other):
        return MJMatrix(
            _cmat_sub(self.block_a, other.block_a),
            _cmat_sub(self.block_b, other.block_b),
        )

    def __neg__(self):
        return MJMatrix(_cmat_neg(self.block_a), _cmat_neg(self.block_b))

    def __matmul__(self, other):
        # Block product of MJ matrices stays MJ:
        #   A' = A1 A2 - conj(B1) B2,  B' = B1 A2 + conj(A1) B2.
        a1, b1 = self.block_a, self.block_b
        a2, b2 = other.block_a, other.block_b
        new_a = _cmat_sub(_cmat_mul(a1, a2), _cmat_mul(_cmat_conj(b1), b2))
        new_b = _cmat_add(_cmat_mul(b1, a2), _cmat_mul(_cmat_conj(a1), b2))
        return MJMatrix(new_a, new_b)

    def commutator(self, other: "MJMatrix") -> "MJMatrix":
        return (self @ other) - (other @ self)

    def to_full(self) -> ComplexMatrix:
        """Assemble the literal 2n x 2n complex matrix."""
        n = self.n
        full = [[GR_ZERO] * (2 * n) for _ in range(2 * n)]
        for p in range(n):
            for q in range(n):
                full[p][q] = self.block_a[p][q]
                full[p][n + q] = -self.block_b[p][q].conj()
                full[n + p][q] = self.block_b[p][q]
                full[n + p][n + q] = self.block_a[p][q].conj()
        return _cmat(full)

    @classmethod
    def from_full(cls, full) -> "MJMatrix":
        full = _cmat(full)
        size = len(full)
        if size % 2 != 0 or any(len(row) != size for row in full):
            raise MalformedInputError("expected a square matrix of even size")
        n = size // 2
        for p in range(n):
            for q in range(n):
                if full[n + p][n + q] != full[p][q].conj():
                    raise MalformedInputError(
                        f"lower-right block is not the conjugate of A at ({p},{q})"
                    )
                if full[p][n + q] != -full[n + p][q].conj():
                    raise MalformedInputError(
                        f"upper-right block is not -conj(B) at ({p},{q})"
                    )
        block_a = [[full[p][q] for q in range(n)] for p in range(n)]
        block_b = [[full[n + p][q] for q in range(n)] for p in range(n)]
        return cls(block_a, block_b)


def mj_embed(m: QuatMatrix) -> MJMatrix:
    """Read off A and B from the entrywise ``A + J*B`` decomposition."""
    n = m.n
    block_a = [[m.rows[p][q].z1 for q in range(n)] for p in range(n)]
    block_b = [[m.rows[p][q].z2 for q in range(n)] for p in range(n)]
    return MJMatrix(block_a, block_b)


def mj_extract(mj: MJMatrix) -> QuatMatrix:
    n = mj.n
    return QuatMatrix(
        [
            [Quaternion(mj.block_a[p][q], mj.block_b[p][q]) for q in range(n)]
            for p in range(n)
        ]
    )


def coordinate_change(interleaved) -> MJMatrix:
    """Re-index a 2x2-blockwise matrix into the big-block MJ layout.

    The input places the 2x2 block ``[[a_ij, -conj(b_ij)], [b_ij,
    conj(a_ij)]]`` at block position (i, j); the output collects the
    a-coefficients into the upper-left n x n block and the
    b-coefficients into the lower-left block.  Inputs whose 2x2 blocks
    do not have that shape are rejected.
    """
    rows = _cmat(interleaved)
    size = len(rows)
    if size % 2 != 0 or any(len(row) != size for row in rows):
        raise MalformedInputError("expected a square matrix of even size")
    n = size // 2
    block_a = [[GR_ZERO] * n for _ in range(n)]
    block_b = [[GR_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a = rows[2 * i][2 * j]
            b = rows[2 * i + 1][2 * j]
            if rows[2 * i][2 * j + 1] != -b.conj():
                raise MalformedInputError(
                    f"block ({i},{j}) upper-right entry is not -conj(b)"
                )
            if rows[2 * i + 1][2 * j + 1] != a.conj():
                raise MalformedInputError(
                    f"block ({i},{j}) lower-right entry is not conj(a)"
                )
            block_a[i][j] = a
            block_b[i][j] = b
    return MJMatrix(block_a, block_b)


def interleave(mj: MJMatrix) -> ComplexMatrix:
    """Inverse direction of :func:`coordinate_change` (used by tests)."""
    n = mj.n
    full = [[GR_ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            a = mj.block_a[i][j]
            b = mj.block_b[i][j]
            full[2 * i][2 * j] = a
            full[2 * i + 1][2 * j] = b
            full[2 * i][2 * j + 1] = -b.conj()
            full[2 * i + 1][2 * j + 1] = a.conj()
    return _cmat(full)


# ---------------------------------------------------------------------------
# Submodule predicates
# ---------------------------------------------------------------------------


def _checked_span(basis: list[QuatMatrix]) -> SpanBasis:
    if not basis:
        raise DegenerateInputError("empty basis")
    ambient = 4 * basis[0].n * basis[0].n
    return independent_span([flatten(m) for m in basis], ambient)


def is_J_submodule(basis: list[QuatMatrix]) -> bool:
    """True when the real span of the basis is invariant under J."""
    span = _checked_span(basis)
    return all(span.contains(flatten(apply_J(m))) for m in basis)


def is_sigma_submodule(basis: list[QuatMatrix]) -> bool:
    """True when the real span is invariant under both sigma and tau."""
    span = _checked_span(basis)
    return all(
        span.contains(flatten(apply_sigma(m)))
        and span.contains(flatten(apply_tau(m)))
        for m in basis
    )
