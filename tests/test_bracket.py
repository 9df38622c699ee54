import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quatlie.bracket import (
    StructureConstants,
    bracket,
    bracket_grouped,
    bracket_terms,
    check_conjugation_equivariance,
    close_under_bracket,
    close_vecs,
    group_rows,
    jacobi_check,
    left_unit_vec,
    sigma_vec,
    structure_constants,
    sweep_brackets,
    tau_vec,
)
from quatlie.matrices import QuatMatrix, flatten
from quatlie.quaternify import quaternion_line
from quatlie.realizations import build_named, membership
from quatlie.scalars import Q_I, Q_J, Q_ONE

from conftest import rand_qmatrix, rand_quat
from oracles import (
    apply_J,
    apply_sigma,
    apply_tau,
    bracket_vec,
    close_matrices,
    closure_matrices,
    is_sigma_submodule,
    meeting_pairs,
    mj_embed,
    mj_extract,
    named_matrices,
    unit,
    unit_sum,
    zeros,
)


def test_bracket_je12_je21():
    je12 = unit(2, 0, 1, Q_J)
    je21 = unit(2, 1, 0, Q_J)
    h1 = unit_sum(2, [(0, 0, Q_ONE), (1, 1, -Q_ONE)])
    assert bracket(je12, je21) == -h1


def test_bracket_e12_e21():
    e12 = unit(2, 0, 1)
    e21 = unit(2, 1, 0)
    h1 = unit_sum(2, [(0, 0, Q_ONE), (1, 1, -Q_ONE)])
    assert bracket(e12, e21) == h1


def test_bracket_on_elementary_tensors(rng):
    # [z1 x E_ij, z2 x E_kl] = (z1 z2) x delta_jk E_il - (z2 z1) x delta_il E_kj
    n = 3
    for _ in range(20):
        z1, z2 = rand_quat(rng), rand_quat(rng)
        i, j, k, l = (rng.randrange(n) for _ in range(4))
        got = bracket(unit(n, i, j, z1), unit(n, k, l, z2))
        expected = zeros(n)
        if j == k:
            expected = expected + unit(n, i, l, z1 * z2)
        if i == l:
            expected = expected - unit(n, k, j, z2 * z1)
        assert got == expected


def test_bracket_antisymmetry(rng):
    for _ in range(30):
        x, y = rand_qmatrix(rng, 3), rand_qmatrix(rng, 3)
        assert bracket(x, y) + bracket(y, x) == zeros(3)


def test_bracket_two_path_consistency(rng):
    for _ in range(30):
        x, y = rand_qmatrix(rng, 3), rand_qmatrix(rng, 3)
        via_mj = mj_extract(mj_embed(x).commutator(mj_embed(y)))
        assert bracket(x, y) == via_mj


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket(zeros(2), zeros(3))


def test_bracket_jacobi_identity_on_matrices(rng):
    zero = zeros(2)
    for _ in range(20):
        x, y, z = (rand_qmatrix(rng, 2) for _ in range(3))
        total = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert total == zero


# ---------------------------------------------------------------------------
# the coordinate kernel against the QuatMatrix commutator
# ---------------------------------------------------------------------------

nonzero_rational = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
nonzero_int = st.integers(min_value=-5, max_value=5).filter(bool)


@st.composite
def sparse_matrices(draw, count):
    """n in 1..4 and ``count`` sparse matrices (zero ones included), with
    int coordinates in some examples and rational ones in the rest."""
    n = draw(st.integers(min_value=1, max_value=4))
    coords = st.dictionaries(
        st.integers(min_value=0, max_value=4 * n * n - 1),
        draw(st.sampled_from([nonzero_int, nonzero_rational])),
        max_size=2 * n * n,
    )
    return n, [QuatMatrix.unflatten(n, draw(coords)) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(2))
def test_bracket_vec_matches_matrix_bracket(drawn):
    n, (x, y) = drawn
    fx, fy = flatten(x), flatten(y)
    got = bracket_vec(fx, fy, n)
    assert got == flatten(bracket(x, y))
    assert all(type(val) in (int, Fraction) and val for val in got.values())
    if all(type(val) is int for val in (*fx.values(), *fy.values())):
        assert all(type(val) is int for val in got.values())


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(2))
def test_grouped_kernel_matches_bracket_vec_and_matrix_bracket(drawn):
    n, (x, y) = drawn
    fx, fy = flatten(x), flatten(y)
    expected = flatten(bracket(x, y))
    assert bracket_grouped(group_rows(fx, n), group_rows(fy, n), n) == expected
    assert bracket_vec(fx, fy, n) == expected
    # a zero operand groups to no rows and brackets to zero
    assert group_rows({}, n) == {}
    assert bracket_grouped(group_rows(fx, n), {}, n) == {}
    assert bracket_grouped({}, group_rows(fy, n), n) == {}


@st.composite
def sweep_rows(draw):
    """n in 1..4 and sparse rows on a few shared cells, all int or with
    rationals, ending in v E_11 and 2v E_11, whose bracket cancels."""
    n = draw(st.integers(min_value=1, max_value=4))
    cells = draw(st.lists(st.integers(min_value=0, max_value=n * n - 1), min_size=1, max_size=3))
    value = draw(st.sampled_from([nonzero_int, nonzero_rational]))
    coords = st.sampled_from([4 * cell + s for cell in cells for s in range(4)])
    rows = draw(st.lists(st.dictionaries(coords, value, max_size=4), max_size=6))
    v = draw(value)
    return n, [*rows, {0: v}, {0: 2 * v}]


def sweep_pairs(rows, n):
    """(i, j) -> the yielded bracket, checking that each row yields once,
    from the last to the first, and each pair at most once."""
    yielded = {}
    order = []
    for i, brackets in sweep_brackets(rows, n):
        order.append(i)
        for j, terms in brackets.items():
            assert (i, j) not in yielded and j > i
            yielded[i, j] = terms
    assert order == list(range(len(rows) - 1, -1, -1))
    return yielded


def assert_sweep_matches_pairwise_kernel(rows, n):
    yielded = sweep_pairs(rows, n)
    assert sorted(yielded) == meeting_pairs(rows, n)
    grouped = [group_rows(row, n) for row in rows]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            terms = yielded.get((i, j), {})
            if (i, j) in yielded:
                assert terms == bracket_terms(grouped[i], grouped[j], n), (i, j)
            assert {k: v for k, v in terms.items() if v} == bracket_vec(rows[i], rows[j], n), (i, j)
    return yielded


@settings(max_examples=150, deadline=None)
@given(sweep_rows())
def test_sweep_yields_the_meeting_pairs_and_their_brackets(drawn):
    n, rows = drawn
    yielded = assert_sweep_matches_pairwise_kernel(rows, n)
    last = len(rows) - 2, len(rows) - 1
    assert yielded[last] == {0: 0}  # v E_11 and 2v E_11 commute: the zero sum is kept
    if all(type(v) is int for row in rows for v in row.values()):
        assert all(type(v) is int for terms in yielded.values() for v in terms.values())


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(1))
def test_sigma_tau_coordinate_maps(drawn):
    _, (m,) = drawn
    assert sigma_vec(flatten(m)) == flatten(apply_sigma(m))
    assert tau_vec(flatten(m)) == flatten(apply_tau(m))


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(1))
def test_quaternion_line_coordinate_maps(drawn):
    _, (m,) = drawn
    m_i = m.scale(Q_I)
    expected = [flatten(m), flatten(m_i), flatten(apply_J(m)), flatten(apply_J(m_i))]
    assert quaternion_line(flatten(m)) == expected
    assert left_unit_vec(1, flatten(m)) == expected[1]
    assert left_unit_vec(2, flatten(m)) == expected[2]


def test_bracket_vec_of_zero_matrices():
    x = flatten(unit(3, 0, 1, Q_J))
    assert bracket_vec({}, {}, 3) == {}
    assert bracket_vec(x, {}, 3) == {} and bracket_vec({}, x, 3) == {}


def test_closure_requires_a_generator():
    with pytest.raises(ValueError):
        close_under_bracket([], 2)


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def sl_with_j_generators(n):
    basis = named_matrices("sl_n_C", n)
    return list(basis) + [apply_J(m) for m in basis]


def test_closure_of_single_h_is_abelian():
    h1 = unit_sum(2, [(0, 0, Q_ONE), (1, 1, -Q_ONE)])
    result = close_matrices([h1])
    assert result.dim == 1
    assert structure_constants(result.span.rows, result.n).table == {}


def test_closure_sl2_gives_sl2H():
    result = close_matrices(sl_with_j_generators(2))
    assert result.dim == 15
    assert all(membership("sl_n_H", 2, row) for row in result.span.rows)
    target = build_named("sl_n_H", 2)
    assert all(result.span.contains(row) for row in target.basis)


def test_closure_sl3_dimension():
    result = close_matrices(sl_with_j_generators(3))
    assert result.dim == 35
    assert all(membership("sl_n_H", 3, row) for row in result.span.rows)


def test_closure_idempotent():
    result = close_matrices(sl_with_j_generators(2))
    again = close_matrices(closure_matrices(result))
    assert again.dim == result.dim
    assert again.span.same_span(result.span)


def test_closure_generator_order_independent():
    generators = sl_with_j_generators(2)
    reference = close_matrices(generators)
    rng = random.Random(42)
    for _ in range(5):
        shuffled = list(generators)
        rng.shuffle(shuffled)
        result = close_matrices(shuffled)
        assert result.dim == reference.dim
        assert result.span.same_span(reference.span)


def test_closure_handles_dependent_generators():
    h1 = unit_sum(2, [(0, 0, Q_ONE), (1, 1, -Q_ONE)])
    result = close_matrices([h1, h1, h1.scale_rational(Fraction(2)), zeros(2)])
    assert result.dim == 1


def _ops_generated_sets():
    """(seeds, n, ops) with ``ops`` generating every seed as a Lie algebra;
    every one closes to sl(2, H), dim 15 (in the top-left block for n = 3)."""
    sl2 = [flatten(m) for m in sl_with_j_generators(2)]
    e12, e21 = flatten(unit(3, 0, 1)), flatten(unit(3, 1, 0))
    lines = [*quaternion_line(e12), *quaternion_line(e21)]
    h = bracket_vec(e12, e21, 3)
    return [
        (sl2, 2, sl2),
        (lines, 3, lines),
        # dependent, zero and bracketed seeds beside the ops themselves
        ([h, {}, *lines, lines[0], bracket_vec(lines[1], lines[6], 3)], 3, lines),
        (list(reversed(lines)), 3, lines[::2] + lines[1::2]),
    ]


@pytest.mark.parametrize("case", range(4))
def test_closure_under_ad_of_generating_ops_is_the_bracket_closure(case):
    seeds, n, ops = _ops_generated_sets()[case]
    by_ad = close_vecs(seeds, n, ops)
    pairwise = close_vecs(seeds, n)
    assert by_ad.rows == pairwise.rows and by_ad.pivots == pairwise.pivots
    assert by_ad.rank == 15


# ---------------------------------------------------------------------------
# structure constants and the Jacobi identity
# ---------------------------------------------------------------------------


def test_structure_constants_round_trip_bracket():
    result = close_matrices(sl_with_j_generators(2))
    sc = structure_constants(result.span.rows, result.n)
    assert sc.dim == 15
    # antisymmetry of accessors
    for (i, j) in list(sc.table)[:10]:
        forward = dict(sc.get(i, j))
        backward = dict(sc.get(j, i))
        assert backward == {k: -c for k, c in forward.items()}


def test_jacobi_on_sl2H():
    result = close_matrices(sl_with_j_generators(2))
    report = jacobi_check(structure_constants(result.span.rows, result.n))
    assert report.ok and report.exhaustive


def test_jacobi_on_gl2H():
    basis = build_named("gl_n_H", 2).basis
    sc = structure_constants(basis, 2)
    report = jacobi_check(sc)
    assert report.ok


def test_jacobi_detects_sign_flip():
    result = close_matrices(sl_with_j_generators(2))
    sc = structure_constants(result.span.rows, result.n)
    (i, j), terms = next(iter(sorted(sc.table.items())))
    corrupted = StructureConstants(dim=sc.dim, table=dict(sc.table))
    corrupted.table[(i, j)] = tuple((k, -c) for k, c in terms)
    report = jacobi_check(corrupted)
    assert not report.ok
    assert report.failures


def test_jacobi_checks_every_triple():
    result = close_matrices(sl_with_j_generators(2))
    report = jacobi_check(structure_constants(result.span.rows, result.n))
    assert report.exhaustive
    assert report.triples_checked == 15 * 14 * 13 // 6
    assert report.ok


# ---------------------------------------------------------------------------
# conjugation equivariance
# ---------------------------------------------------------------------------


def test_equivariance_gl2H():
    basis = build_named("gl_n_H", 2).basis
    report = check_conjugation_equivariance(basis, 2)
    assert report.ok
    assert report.pairs_checked == 16 * 15 // 2


def test_equivariance_sl3H():
    basis = build_named("sl_n_H", 3).basis
    report = check_conjugation_equivariance(basis, 3)
    assert report.ok


def test_non_sigma_invariant_span():
    spanner = unit(2, 0, 0, Q_ONE + Q_J)
    assert not is_sigma_submodule([spanner])


def test_structure_constants_reject_open_span():
    from quatlie.errors import NotClosedError

    e12 = unit(2, 0, 1)
    e21 = unit(2, 1, 0)
    with pytest.raises(NotClosedError):
        # bracket gives h1, outside the span
        structure_constants([flatten(e12), flatten(e21)], 2)
