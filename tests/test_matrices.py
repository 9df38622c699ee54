import contextlib
import io
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from quatlie import scalars
from quatlie.cli import main
from quatlie.errors import DegenerateInputError, MalformedInputError
from quatlie.matrices import QuatMatrix, flatten
from quatlie.scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    GaussianRational,
    Quaternion,
)

from quatlie.bracket import bracket, sigma_parity

from conftest import rand_qmatrix
from oracles import (
    MJMatrix,
    apply_J,
    apply_sigma,
    apply_tau,
    bracket_vec,
    coordinate_change,
    identity,
    interleave,
    is_J_submodule,
    is_sigma_submodule,
    mj_embed,
    mj_extract,
    quat_transpose_mj,
    unit,
    unit_sum,
    zeros,
)


def full_equal(mj, entries):
    return mj.to_full() == tuple(tuple(row) for row in entries)


def test_mj_embed_of_j():
    m = QuatMatrix([[Q_J]])
    one, zero, neg = GR_ONE, GR_ZERO, -GR_ONE
    assert full_equal(mj_embed(m), [[zero, neg], [one, zero]])


def test_mj_embed_of_i():
    m = QuatMatrix([[Q_I]])
    assert full_equal(mj_embed(m), [[GR_I, GR_ZERO], [GR_ZERO, -GR_I]])


def test_mj_extract_inverse(rng):
    for _ in range(20):
        m = rand_qmatrix(rng, 3)
        assert mj_extract(mj_embed(m)) == m


def test_mj_embed_multiplicative(rng):
    for _ in range(30):
        x = rand_qmatrix(rng, 3)
        y = rand_qmatrix(rng, 3)
        assert mj_embed(x @ y) == mj_embed(x) @ mj_embed(y)
        assert mj_embed(x + y) == mj_embed(x) + mj_embed(y)


def test_mj_embed_unit_preserving():
    n = 3
    eye = identity(n)
    full = mj_embed(eye).to_full()
    for p in range(2 * n):
        for q in range(2 * n):
            assert full[p][q] == (GR_ONE if p == q else GR_ZERO)


def test_mj_from_full_validates(rng):
    m = rand_qmatrix(rng, 2)
    full = mj_embed(m).to_full()
    assert MJMatrix.from_full(full) == mj_embed(m)
    bad = [list(row) for row in full]
    bad[0][2] = bad[0][2] + GR_ONE  # breaks -conj(B) in the upper right
    with pytest.raises(MalformedInputError):
        MJMatrix.from_full(bad)


# ---------------------------------------------------------------------------
# coordinate change between the blockwise-2x2 and big-block layouts
# ---------------------------------------------------------------------------


def test_coordinate_change_identity():
    data = [
        [GR_ONE, GR_ZERO],
        [GR_ZERO, GR_ONE],
    ]
    mj = coordinate_change(data)
    assert full_equal(mj, [[GR_ONE, GR_ZERO], [GR_ZERO, GR_ONE]])


def test_coordinate_change_e12():
    # n = 2, a = E12, b = 0: block (1,2) holds [[1, 0], [0, 1]]
    z = GR_ZERO
    one = GR_ONE
    data = [
        [z, z, one, z],
        [z, z, z, one],
        [z, z, z, z],
        [z, z, z, z],
    ]
    mj = coordinate_change(data)
    assert mj.block_a[0][1] == one
    assert mj.block_b == ((z, z), (z, z))
    full = mj.to_full()
    assert full[0][1] == one and full[2][3] == one


def test_coordinate_change_malformed():
    z, one = GR_ZERO, GR_ONE
    data = [
        [one, z],
        [z, one + one],  # lower-right must equal conj(a)
    ]
    with pytest.raises(MalformedInputError):
        coordinate_change(data)


def test_coordinate_change_respects_products(rng):
    def cmul(x, y):
        n = len(x)
        return tuple(
            tuple(
                sum((x[p][r] * y[r][q] for r in range(n)), GR_ZERO)
                for q in range(n)
            )
            for p in range(n)
        )

    for _ in range(10):
        p = interleave(mj_embed(rand_qmatrix(rng, 2)))
        q = interleave(mj_embed(rand_qmatrix(rng, 2)))
        direct = coordinate_change(cmul(p, q))
        assert direct == coordinate_change(p) @ coordinate_change(q)


# ---------------------------------------------------------------------------
# conjugation operators
# ---------------------------------------------------------------------------


def test_sigma_tau_definitions(rng):
    for _ in range(10):
        m = rand_qmatrix(rng, 3)
        s = apply_sigma(m)
        t = apply_tau(m)
        for p in range(3):
            for q in range(3):
                assert s.entry(p, q).z1 == m.entry(p, q).z1
                assert s.entry(p, q).z2 == -m.entry(p, q).z2
                assert t.entry(p, q).z1 == m.entry(p, q).z1.conj()
                assert t.entry(p, q).z2 == m.entry(p, q).z2.conj()


def test_J_squared_matrix(rng):
    for _ in range(10):
        m = rand_qmatrix(rng, 3)
        assert apply_J(apply_J(m)) == -m


def test_operator_identities_on_gl3_basis():
    # sigma tau = tau sigma and J sigma = -sigma J on every basis element
    n = 3
    for p in range(n):
        for q in range(n):
            for coeff in (Q_ONE, Q_I, Q_J, Q_K):
                m = unit(n, p, q, coeff)
                assert apply_sigma(apply_tau(m)) == apply_tau(apply_sigma(m))
                assert apply_J(apply_sigma(m)) == -apply_sigma(apply_J(m))


# ---------------------------------------------------------------------------
# MJ-image transpose
# ---------------------------------------------------------------------------


def test_transpose_mj_of_j():
    m = QuatMatrix([[Q_J]])
    assert quat_transpose_mj(m) == QuatMatrix([[-Q_J]])


def test_transpose_mj_plain():
    m = unit(2, 0, 1, Q_ONE)
    assert quat_transpose_mj(m) == unit(2, 1, 0, Q_ONE)


def test_transpose_mj_matches_full_transpose(rng):
    for _ in range(20):
        m = rand_qmatrix(rng, 3)
        full = mj_embed(m).to_full()
        transposed = tuple(
            tuple(full[q][p] for q in range(6)) for p in range(6)
        )
        assert mj_embed(quat_transpose_mj(m)).to_full() == transposed


def test_transpose_mj_involution(rng):
    for _ in range(20):
        m = rand_qmatrix(rng, 3)
        assert quat_transpose_mj(quat_transpose_mj(m)) == m


# ---------------------------------------------------------------------------
# flattening and submodule predicates
# ---------------------------------------------------------------------------


def test_flatten_round_trip(rng):
    for _ in range(20):
        m = rand_qmatrix(rng, 3)
        assert QuatMatrix.unflatten(3, flatten(m)) == m


def test_flatten_linear(rng):
    x = rand_qmatrix(rng, 2)
    y = rand_qmatrix(rng, 2)
    fx, fy, fs = flatten(x), flatten(y), flatten(x + y)
    for idx in set(fx) | set(fy) | set(fs):
        assert fs.get(idx, 0) == fx.get(idx, 0) + fy.get(idx, 0)


def test_sigma_submodule_example_i_j_ji():
    # span{i, j, j*i} is sigma-invariant but not J-invariant
    basis = [
        QuatMatrix([[Q_I]]),
        QuatMatrix([[Q_J]]),
        QuatMatrix([[Quaternion(GR_ZERO, GR_I)]]),  # j*i
    ]
    assert is_sigma_submodule(basis)
    assert not is_J_submodule(basis)


def test_not_sigma_submodule_example():
    basis = [QuatMatrix([[Q_ONE + Q_J]])]
    assert not is_sigma_submodule(basis)


def test_full_module_both_predicates():
    n = 2
    basis = []
    for p in range(n):
        for q in range(n):
            basis.append(unit(n, p, q, Q_ONE))
            basis.append(unit(n, p, q, Q_J))
    assert is_J_submodule(basis)
    assert is_sigma_submodule(basis)


def test_dependent_basis_rejected():
    m = QuatMatrix([[Q_ONE]])
    with pytest.raises(DegenerateInputError):
        is_sigma_submodule([m, m])


def test_naive_transpose_gives_wrong_antisymmetric_dimension():
    # the naive entrywise-transpose condition tX + X = 0 kills the whole
    # diagonal and leaves 2n^2 - 2n real dimensions, not the n(2n - 1) of
    # the MJ-image condition; this is why transposition is defined through
    # the complex picture
    from quatlie.linalg import SpanBasis

    n = 3
    naive = SpanBasis(4 * n * n)
    for p in range(n):
        for q in range(p + 1, n):
            for coeff in (Q_ONE, Q_I, Q_J, Q_K):
                naive.insert(
                    flatten(
                        unit_sum(n, [(p, q, coeff), (q, p, -coeff)])
                    )
                )
    assert naive.rank == 2 * n * n - 2 * n
    from quatlie.realizations import build_named

    assert build_named("so_star_2n", n).dim == n * (2 * n - 1)
    assert naive.rank != n * (2 * n - 1)


def test_sigma_eigenvalue():
    assert sigma_parity(flatten(QuatMatrix([[Q_ONE]]))) == 1
    assert sigma_parity(flatten(QuatMatrix([[Q_J]]))) == -1
    assert sigma_parity(flatten(QuatMatrix([[Q_ONE + Q_J]]))) is None
    assert sigma_parity(flatten(zeros(1))) is None


# ---------------------------------------------------------------------------
# sums and products that skip zero operands, against the oracles
# ---------------------------------------------------------------------------


def _sparse_cell(rng):
    """A zero (shared or fresh), plain, pure-J or general quaternion cell."""
    kind = rng.choice(("zero", "fresh-zero", "plain", "j", "both"))
    if kind == "zero":
        return scalars.Q_ZERO
    if kind == "fresh-zero":
        return Quaternion.from_coords(0, Fraction(0), 0, 0)

    def part():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    z1 = (part(), part()) if kind in ("plain", "both") else (0, 0)
    z2 = (part(), part()) if kind in ("j", "both") else (0, 0)
    return Quaternion.from_coords(*z1, *z2)


def _sparse_pair(rng, n):
    """Two sparse matrices; about a third of y's cells cancel x's."""
    x = [[_sparse_cell(rng) for _ in range(n)] for _ in range(n)]
    y = [[-a if rng.random() < 0.35 else _sparse_cell(rng) for a in row] for row in x]
    return QuatMatrix(x), QuatMatrix(y)


def _vec_add(x, y, sign=1):
    out = dict(x)
    for idx, val in y.items():
        out[idx] = out.get(idx, 0) + sign * val
    return {idx: val for idx, val in out.items() if val}


def _cell_types(m):
    return {
        (type(a), type(a.z1), type(a.z2), *map(type, a.to_coords()))
        for row in m.rows
        for a in row
    }


def test_sums_and_products_skipping_zeros_match_the_oracles():
    rng = random.Random(5150)
    types = {(Quaternion, GaussianRational, GaussianRational) + (Fraction,) * 4}
    cancelled = 0
    for trial in range(60):
        n = 1 + trial % 4
        x, y = _sparse_pair(rng, n)
        fx, fy = flatten(x), flatten(y)
        total, difference, product, commutator = x + y, x - y, x @ y, bracket(x, y)
        assert flatten(total) == _vec_add(fx, fy)
        assert flatten(difference) == _vec_add(fx, fy, -1)
        assert flatten(commutator) == bracket_vec(fx, fy, n)
        assert mj_embed(total) == mj_embed(x) + mj_embed(y)
        assert mj_embed(product) == mj_embed(x) @ mj_embed(y)
        assert mj_embed(commutator) == mj_embed(x) @ mj_embed(y) - mj_embed(y) @ mj_embed(x)
        assert x - x == zeros(n) and (x - x).is_zero()
        for m in (total, difference, product, commutator):
            assert _cell_types(m) == types
        cancelled += sum(
            c.is_zero() and not a.is_zero()
            for ra, rc in zip(x.rows, total.rows)
            for a, c in zip(ra, rc)
        )
    assert cancelled  # some sums cancel to a zero cell


def _count_calls(monkeypatch, argv):
    """Calls of `bracket`, `QuatMatrix.__matmul__` and `quat_mul` in one
    CLI run; each function is wrapped wherever a quatlie module binds it."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for name, fn in (("bracket", bracket), ("quat_mul", scalars.quat_mul)):
        for module in [m for key, m in sys.modules.items() if key.startswith("quatlie")]:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    monkeypatch.setattr(QuatMatrix, "__matmul__", counted("matmul", QuatMatrix.__matmul__))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    monkeypatch.undo()
    return code, (counts["bracket"], counts["matmul"], counts["quat_mul"])


@pytest.mark.parametrize(
    "type_label, rank, calls",
    [("A", 2, (2, 4, 2)), ("A", 3, (6, 12, 6)), ("B", 2, (4, 8, 8))],
)
def test_root_vectors_make_the_same_matrix_products(type_label, rank, calls, tmp_path, monkeypatch):
    # the root table grows each non-simple root vector by two `bracket`s of
    # two products each; skipping zero operands must not change how many
    path = str(tmp_path / f"{type_label}{rank}.json")
    build = ["build", "--type", type_label, "--rank", str(rank), "--out", path]
    code, build_calls = _count_calls(monkeypatch, build)
    assert code == (1 if type_label == "B" else 0)
    assert build_calls == calls
    assert _count_calls(monkeypatch, ["verify", "--in", path]) == (code, calls)
