"""Independent oracles that the tests hold the package against.

Nothing in ``quatlie`` calls these; they live beside the tests so that
they cannot drift into the code they judge.

* The complex picture.  Writing a quaternion matrix entrywise as
  ``A + J*B`` with complex matrices A, B, its image is the 2n x 2n block
  matrix ``[[A, -conj(B)], [B, conj(A)]]``; those are exactly the
  matrices Z satisfying ``J Z = conj(Z) J``.  The embedding is an
  injective R-algebra homomorphism, which is what every two-path check
  of the quaternion matrix product and bracket leans on.
* ``bracket_vec``, the coordinate bracket of a single pair, and the
  scalar conjugations sigma and tau.
* ``meeting_pairs``, the pairs whose bracket can have a term, read off
  the nonzero entries of the unflattened quaternion matrices.
* ``is_J_submodule``, ``vec_from_dense`` and ``closure_matrices``, the
  echelon rows of a closure unflattened into quaternion matrices.
* ``constants_by_express``, the bracket table from every pair's
  filtered bracket and a solve of it, as the constants sweep computed it
  before it read each row's brackets off an index.
* ``ReductionSolver``, the augmented solver that reduces its input by
  the whole augmented echelon basis and reads the coefficients off the
  tracking coordinates, as ``LinearSolver`` did before it read a
  vector's values at the pivots.
* ``AugmentedSolver``, the solver that reads the augmented reduced
  echelon basis of every row at its pivots, as ``LinearSolver`` did
  before it read the rows with a private column off that column.
* ``replace``, a copy of a record rebuilt through its constructor.
* ``plain_e_action``, the image of a plain word under e_j with each
  lowering's coefficient summed afresh over the letters after it, as
  ``freerep._plain_action`` computed it before it kept a running sum.
* ``plain_h_action``, the image of a plain word under h_j read off the
  word's letter counts, each count times its letter's Cartan entry.
* ``all_words``, every word of the word space up to a length at both
  flags, in the order the relation check lists its failures: every
  plain word, then every flagged one.
* ``weyl_orbit_roots``, the positive roots of a finite-type Cartan
  matrix as the positive part of the Weyl orbit of the simple roots, not
  grown by root strings as ``rootsystem.positive_roots`` grows them, and
  ``EXCEPTIONAL_CARTAN``, the five exceptional Cartan matrices.
* The reference encoder of an algebra file: ``matrix_to_json``,
  ``constants_to_json`` and ``algebra_doc`` build the file as nested
  dicts and lists, and ``dumps`` encodes it with ``json.dumps``, as
  ``quatlie.serialize`` wrote it before it rendered the text directly.
* The quaternion-matrix side of the coordinate code: the constructors
  ``unit``, ``unit_sum``, ``zeros`` and ``identity``; ``trace``,
  ``re_trace`` and ``conj_transpose``; the entrywise maps ``quat_J``,
  ``apply_J``, ``apply_sigma``, ``apply_tau`` and ``quat_transpose_mj``;
  ``is_sigma_submodule`` and ``matrix_membership``, the named algebras'
  predicates on matrices; and ``generator_matrices``, ``named_matrices``
  and ``close_matrices``, which unflatten generator and named-algebra
  rows and close quaternion matrices.
"""

from __future__ import annotations

import inspect
import itertools
import json
from fractions import Fraction

from quatlie.bracket import bracket_grouped, close_under_bracket, group_rows
from quatlie.errors import DegenerateInputError, MalformedInputError
from quatlie.freerep import FreeWord
from quatlie.linalg import SpanBasis, Vec, independent_span
from quatlie.matrices import QuatMatrix, flatten
from quatlie.realizations import build_named
from quatlie.scalars import GR_ZERO, Q_ONE, Q_ZERO, Quaternion, format_rational, integral
from quatlie.serialize import ARTIFACT_VERSION, roots_to_json


def quat_conj_sigma(x: Quaternion) -> Quaternion:
    """``z1 + j*z2 -> z1 - j*z2``; fixes the complex part, negates the j part."""
    return Quaternion(x.z1, -x.z2)


def quat_conj_tau(x: Quaternion) -> Quaternion:
    """Entrywise complex conjugation ``z1 + j*z2 -> conj(z1) + j*conj(z2)``."""
    return Quaternion(x.z1.conj(), x.z2.conj())


def vec_from_dense(values) -> Vec:
    out = {}
    for idx, val in enumerate(values):
        if val:
            out[idx] = integral(Fraction(val))
    return out


def bracket_vec(x: Vec, y: Vec, n: int) -> Vec:
    """Commutator of two flattened n x n quaternion matrices, flattened."""
    return bracket_grouped(group_rows(x, n), group_rows(y, n), n)


class ReductionSolver:
    """Expresses vectors over independent rows by reduction with the
    echelon basis of the rows, each augmented with a tracking coordinate
    beyond the ambient dimension."""

    def __init__(self, rows: list[Vec], ambient_dim: int):
        self.ambient_dim = ambient_dim
        self._basis = SpanBasis()
        for offset, row in enumerate(rows):
            augmented = dict(row)
            augmented[ambient_dim + offset] = 1
            residual = self._basis.reduce(augmented)
            if not residual or min(residual) >= ambient_dim:
                raise DegenerateInputError("solver rows are linearly dependent")
            self._basis.insert(residual)

    def express(self, vec: Vec):
        """Coefficients c with ``vec == sum c[i] * rows[i]``, or None;
        zero values in ``vec`` are ignored."""
        ambient = self.ambient_dim
        coeffs = {}
        for idx, val in self._basis.reduce(vec).items():
            if idx >= ambient:
                coeffs[idx - ambient] = -val
            elif val:
                return None
        return coeffs


class AugmentedSolver:
    """Expresses vectors over independent rows by reading the augmented
    reduced echelon basis of all of them at its pivots, as ``LinearSolver``
    did before it read the rows with a private column off that column.

    Each row is augmented with a tracking coordinate past the rows' largest
    coordinate; the tracking terms of an echelon row are its coefficients
    over the input rows.  The rows must store no zero values."""

    def __init__(self, rows: list[Vec]):
        ambient_dim = 1 + max((idx for row in rows for idx in row), default=-1)
        basis = SpanBasis()
        for offset, row in enumerate(rows):
            augmented = dict(row)
            augmented[ambient_dim + offset] = 1
            residual = basis.reduce(augmented)
            # a dependent row leaves only tracking coordinates behind
            if not residual or min(residual) >= ambient_dim:
                raise DegenerateInputError("solver rows are linearly dependent")
            basis.insert(residual)
        # pivot -> (the row's other ambient terms, its coefficients over the rows)
        self._by_pivot: dict = {}
        for piv, row in zip(basis.pivots, basis.rows):
            others, combination = self._by_pivot[piv] = [], []
            for idx, val in row.items():
                if idx >= ambient_dim:
                    combination.append((idx - ambient_dim, val))
                elif idx != piv:
                    others.append((idx, val))

    def express(self, vec: Vec):
        """Coefficients c with ``vec == sum c[i] * rows[i]``, or None;
        zero values in ``vec`` are ignored."""
        by_pivot = self._by_pivot
        rest: dict = {}
        coeffs: dict = {}
        for idx, val in vec.items():
            if val:
                # a non-pivot coordinate goes to the rest as it is
                others, combination = by_pivot.get(idx) or (((idx, -1),), ())
                for col, a in others:
                    rest[col] = rest.get(col, 0) - val * a
                for k, m in combination:
                    coeffs[k] = coeffs.get(k, 0) + val * m
        return None if any(rest.values()) else {k: c for k, c in coeffs.items() if c}


def constants_by_express(vecs: list[Vec], n: int, solver) -> dict:
    """(i, j) -> ((k, c), ...) sorted by k, for every pair i < j whose
    bracket is nonzero; ``solver`` expresses vectors over ``vecs``."""
    grouped = [group_rows(v, n) for v in vecs]
    table = {}
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            prod = bracket_grouped(grouped[i], grouped[j], n)
            if not prod:
                continue
            coeffs = solver.express(prod)
            if coeffs is None:
                raise AssertionError(f"bracket of basis elements {i}, {j} leaves the span")
            terms = tuple((k, c) for k, c in sorted(coeffs.items()) if c)
            if terms:
                table[(i, j)] = terms
    return table


def cell_support(x: Vec, n: int) -> tuple[set, set]:
    """Rows and columns of the nonzero entries of a flattened n x n matrix."""
    m = QuatMatrix.unflatten(n, x)
    cells = [(p, q) for p in range(n) for q in range(n) if not m.entry(p, q).is_zero()]
    return {p for p, _ in cells}, {q for _, q in cells}


def meeting_pairs(rows: list[Vec], n: int) -> list[tuple[int, int]]:
    """The pairs i < j of flattened matrices with a column of one among
    the rows of the other: [X, Y]_pq = sum_r X_pr Y_rq - Y_pr X_rq has a
    term only on those, so every other pair brackets to zero."""
    supports = [cell_support(x, n) for x in rows]
    return [
        (i, j)
        for i, (rows_i, cols_i) in enumerate(supports)
        for j, (rows_j, cols_j) in enumerate(supports[i + 1 :], i + 1)
        if cols_i & rows_j or cols_j & rows_i
    ]


def closure_matrices(span: SpanBasis, n: int) -> list[QuatMatrix]:
    """The echelon rows of a closure of n x n matrices as quaternion matrices."""
    return [QuatMatrix.unflatten(n, row) for row in span.rows]


def is_J_submodule(basis: list[QuatMatrix]) -> bool:
    """True when the real span of the basis is invariant under J."""
    span = _checked_span(basis)
    return all(span.contains(flatten(apply_J(m))) for m in basis)


# ---------------------------------------------------------------------------
# Quaternion matrices: constructors, maps and predicates
# ---------------------------------------------------------------------------


def unit_sum(n: int, entries) -> QuatMatrix:
    """The n x n matrix with the sum of the quaternions ``c`` of the
    ``(p, q, c)`` in ``entries`` at each (p, q)."""
    rows = [[Q_ZERO] * n for _ in range(n)]
    for p, q, coeff in entries:
        rows[p][q] = rows[p][q] + coeff
    return QuatMatrix(rows)


def unit(n: int, p: int, q: int, coeff: Quaternion = Q_ONE) -> QuatMatrix:
    """Matrix with a single quaternion entry at (p, q)."""
    return unit_sum(n, [(p, q, coeff)])


def zeros(n: int) -> QuatMatrix:
    return QuatMatrix([[Q_ZERO] * n for _ in range(n)])


def identity(n: int) -> QuatMatrix:
    return unit_sum(n, [(p, p, Q_ONE) for p in range(n)])


def trace(m: QuatMatrix) -> Quaternion:
    acc = Q_ZERO
    for p in range(m.n):
        acc = acc + m.rows[p][p]
    return acc


def re_trace(m: QuatMatrix):
    return trace(m).real


def conj_transpose(m: QuatMatrix) -> QuatMatrix:
    """Quaternionic conjugate transpose ``(X*)_{pq} = conj(X_{qp})``."""
    n = m.n
    return QuatMatrix([[m.rows[q][p].conj() for q in range(n)] for p in range(n)])


def quat_J(x: Quaternion) -> Quaternion:
    """Left multiplication by j: ``z1 + j*z2 -> -z2 + j*z1``."""
    return Quaternion(-x.z2, x.z1)


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
    """Transpose through the complex picture: ``A + J*B -> tA - J*conj(tB)``.

    Plain 2n x 2n transposition pulled back along the embedding; the
    naive entrywise transpose would give the wrong block characterization
    (and the wrong dimension count) for the antisymmetric algebras.
    """
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


def _checked_span(basis: list[QuatMatrix]) -> SpanBasis:
    if not basis:
        raise DegenerateInputError("empty basis")
    return independent_span([flatten(m) for m in basis])


def is_sigma_submodule(basis: list[QuatMatrix]) -> bool:
    """True when the real span is invariant under both sigma and tau."""
    span = _checked_span(basis)
    return all(
        span.contains(flatten(apply_sigma(m)))
        and span.contains(flatten(apply_tau(m)))
        for m in basis
    )


def _is_plain(m: QuatMatrix) -> bool:
    return all(a.z2.is_zero() for row in m.rows for a in row)


def _plain_transpose_sum_zero(m: QuatMatrix) -> bool:
    n = m.n
    return all(
        (m.rows[p][q].z1 + m.rows[q][p].z1).is_zero()
        for p in range(n)
        for q in range(n)
    )


def matrix_membership(name: str, n: int, m: QuatMatrix) -> bool:
    """The defining predicate of the named algebra, on a quaternion matrix."""
    if m.n != n:
        raise ValueError(f"dimension mismatch: matrix is {m.n}x{m.n}, algebra has n={n}")
    if name == "gl_n_H":
        return True
    if name == "sl_n_H":
        return re_trace(m) == 0
    if name == "sk_n_C":
        return _is_plain(m) and trace(m).z1.re == 0
    if name == "sl_n_C":
        return _is_plain(m) and trace(m).is_zero()
    if name == "u_n":
        return _is_plain(m) and (conj_transpose(m) + m).is_zero()
    if name == "so_n_C":
        return _is_plain(m) and _plain_transpose_sum_zero(m)
    if name == "so_star_2n":
        return (quat_transpose_mj(m) + m).is_zero()
    if name == "sp_n":
        return (conj_transpose(m) + m).is_zero()
    raise ValueError(f"unknown algebra name {name!r}")


def generator_matrices(gens, kinds=("h", "e", "f")) -> list[QuatMatrix]:
    """The generator rows of each kind in ``kinds``, in order, unflattened
    into quaternion matrices; a single kind may be passed as its name."""
    if isinstance(kinds, str):
        kinds = (kinds,)
    return [QuatMatrix.unflatten(gens.ambient_n, v) for kind in kinds for v in gens.rows[kind]]


def named_matrices(name: str, n: int) -> list[QuatMatrix]:
    """The basis rows of ``build_named(name, n)`` as quaternion matrices."""
    return [QuatMatrix.unflatten(n, v) for v in build_named(name, n).basis]


def close_matrices(generators: list[QuatMatrix]):
    """``close_under_bracket`` of quaternion matrices, flattened."""
    if not generators:
        raise ValueError("need at least one generator")
    return close_under_bracket([flatten(m) for m in generators], generators[0].n)


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
    """Inverse direction of :func:`coordinate_change`."""
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


def replace(obj, **changes):
    """A copy of ``obj`` built by its class's constructor from ``changes``
    and, for every other parameter, the attribute of ``obj`` of that name,
    so that whatever the constructor derives or checks it does again."""
    kwargs = {name: getattr(obj, name) for name in inspect.signature(type(obj)).parameters}
    kwargs.update(changes)  # a name the constructor lacks raises TypeError there
    return type(obj)(**kwargs)


def plain_e_action(j: int, idx: tuple, c) -> dict:
    """{index tuple: nonzero int} image of the plain word ``idx`` under e_j:
    each letter j removed, with coefficient minus the sum of c[h][j] over
    the letters h after it."""
    out: dict = {}
    for k in range(len(idx)):
        if idx[k] == j:
            lowered = idx[:k] + idx[k + 1 :]
            out[lowered] = out.get(lowered, 0) - sum(c[h][j] for h in idx[k + 1 :])
    return {lowered: coeff for lowered, coeff in out.items() if coeff}


def plain_h_action(j: int, idx: tuple, c) -> dict:
    """{index tuple: nonzero int} image of the plain word ``idx`` under h_j:
    the word itself, with coefficient minus the sum over the distinct
    letters i of (number of i's) * c[i][j]."""
    coeff = -sum(idx.count(i) * c[i][j] for i in set(idx))
    return {idx: coeff} if coeff else {}


def all_words(rank: int, max_length: int) -> list[FreeWord]:
    """Every word up to the given length, both flags, in a fixed order."""
    out = []
    for flag in (False, True):
        for length in range(max_length + 1):
            for idx in itertools.product(range(rank), repeat=length):
                out.append(FreeWord(flag, idx))
    return out


def weyl_orbit_roots(cm) -> set:
    """The positive part of the orbit of the simple roots under the simple
    reflections s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, with the
    pairing ``sum_k beta_k c[k][i]``; in finite type every root lies in
    that orbit (Humphreys, 1972, section 10.3)."""
    c = cm.entries
    rank = len(c)
    todo = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    orbit = set(todo)
    while todo:
        beta = todo.pop()
        for i in range(rank):
            pairing = sum(beta[k] * c[k][i] for k in range(rank))
            image = tuple(b - pairing if k == i else b for k, b in enumerate(beta))
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return {root for root in orbit if min(root) >= 0}


def _e_entries(rank: int) -> tuple:
    """E6, E7 or E8 in Bourbaki numbering: the chain 1-3-4-...-rank with 2 on 4."""
    entries = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for a, b in ((1, 3), (2, 4), *((k, k + 1) for k in range(3, rank))):
        entries[a - 1][b - 1] = entries[b - 1][a - 1] = -1
    return tuple(map(tuple, entries))


# the exceptional Cartan matrices in Bourbaki numbering (Humphreys, 1972,
# section 11.4), entry (i, j) = <alpha_i, alpha_j>
EXCEPTIONAL_CARTAN = {
    "G2": ((2, -1), (-3, 2)),
    "F4": ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    **{f"E{rank}": _e_entries(rank) for rank in (6, 7, 8)},
}


def matrix_to_json(vec: Vec, n: int) -> dict:
    """A flattened n x n matrix as ``{"n", "entries"}``: n rows of n cells,
    each the list of its four coordinate strings, zeros included."""
    coords = ["0"] * (4 * n * n)
    for idx, val in vec.items():
        coords[idx] = format_rational(val)
    cells = [coords[c : c + 4] for c in range(0, 4 * n * n, 4)]
    return {"n": n, "entries": [cells[p * n : p * n + n] for p in range(n)]}


def constants_to_json(sc) -> dict:
    """The table as ``{"dim", "entries"}``, one [i, j, k, coeff] per term,
    in sorted key order."""
    entries = []
    for (i, j), terms in sorted(sc.table.items()):
        for k, coeff in terms:
            entries.append([i, j, k, format_rational(coeff)])
    return {"dim": sc.dim, "entries": entries}


def algebra_doc(g, manifest: dict | None = None) -> dict:
    """The document of ``g``'s algebra file, with ``manifest`` embedded when given."""
    doc = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "quaternion-lie-algebra",
        "type": g.type_label,
        "rank": g.rank,
        "realization": g.realization,
        "ambient_n": g.ambient_n,
        "dim": g.dim,
        "cartan": [list(row) for row in g.cartan.entries],
        "basis": [matrix_to_json(vec, g.ambient_n) for vec in g.basis],
        "structure_constants": constants_to_json(g.constants),
        "generators": {
            kind: [matrix_to_json(vec, g.ambient_n) for vec in g.generators.rows[kind]]
            for kind in ("h", "e", "f")
        },
        "positive_roots": roots_to_json(g.pos_roots),
        "weights": [
            {"weight": list(values), "indices": list(indices)}
            for values, indices in sorted(g.weight_indices.items())
        ],
        "k_indices": list(g.k_indices),
        "hr_indices": list(g.hr_indices),
        "hr_perp_indices": list(g.hr_perp_indices),
    }
    if manifest is not None:
        doc["manifest"] = manifest
    return doc


def dumps(doc: dict) -> str:
    """The file's text: ``doc`` with sorted keys and fixed separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
