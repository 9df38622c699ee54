import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quatlie.errors import DegenerateInputError
from quatlie.linalg import (
    LinearSolver,
    SpanBasis,
    exact_div,
    independent_span,
    kernel_basis,
    span_of,
    vec_iadd_scaled,
)
from quatlie.scalars import integral

from oracles import AugmentedSolver, ReductionSolver, vec_from_dense


def dense(vec, length):
    out = [Fraction(0)] * length
    for idx, val in vec.items():
        out[idx] = val
    return out


small_vec = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    min_size=6,
    max_size=6,
).map(vec_from_dense)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_vec, min_size=1, max_size=8))
def test_membership_after_insert(vectors):
    basis = SpanBasis()
    basis.extend(vectors)
    for vec in vectors:
        assert basis.contains(dict(vec))


@settings(max_examples=60, deadline=None)
@given(st.lists(small_vec, min_size=1, max_size=8))
def test_rank_bounds_and_idempotence(vectors):
    basis = SpanBasis()
    basis.extend(vectors)
    rank = basis.rank
    assert rank <= 6
    for vec in vectors:
        assert not basis.insert(dict(vec))
    assert basis.rank == rank


@settings(max_examples=40, deadline=None)
@given(st.lists(small_vec, min_size=2, max_size=8), st.randoms(use_true_random=False))
def test_echelon_canonical_under_shuffle(vectors, rnd):
    basis = span_of(vectors)
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    other = span_of(shuffled)
    assert basis.same_span(other)
    assert basis.rows == other.rows


def test_pivots_strictly_increasing():
    rng = random.Random(5)
    basis = SpanBasis()
    for _ in range(20):
        vec = {idx: Fraction(rng.randint(-3, 3)) for idx in rng.sample(range(10), 4)}
        basis.insert({k: v for k, v in vec.items() if v})
    assert basis.pivots == sorted(basis.pivots)
    for piv, row in zip(basis.pivots, basis.rows):
        assert min(row) == piv
        assert row[piv] == 1
        # no other pivot column appears in any row
        assert all(other == piv or other not in row for other in basis.pivots)
    # a zero value is no term: never a pivot, a lead or a stored entry
    assert span_of([{0: 0, 1: 1}]).rows == [{1: 1}]
    assert SpanBasis().contains({3: 0})


def test_linear_solver_express():
    rows = [
        vec_from_dense([1, 1, 0]),
        vec_from_dense([0, 1, 1]),
    ]
    solver = LinearSolver(rows)
    coeffs = solver.express(vec_from_dense([2, 5, 3]))
    assert coeffs == {0: Fraction(2), 1: Fraction(3)}
    # coordinate 3 is past the rows' largest, where the tracking
    # coordinates start: a vector with a term there is outside the span
    for outside in ([1, 0, 0], [2, 5, 3, 1], [0, 0, 0, 0, 1]):
        assert solver.express(vec_from_dense(outside)) is None, outside
    # no private column: both rows are reduced, with tracking coordinates
    # 2 and 3, and a term at or past them is no coefficient
    solver = LinearSolver([{0: 1, 1: 1}, {0: 1, 1: 2}])
    assert solver.express({0: 2, 1: 3}) == {0: 1, 1: 1}
    for outside in ({2: -1}, {3: -1}, {4: 1}, {0: 2, 1: 3, 2: -1}, {0: 1, 1: 1, 3: -1}):
        assert solver.express(outside) is None, outside


def test_linear_solver_rejects_dependent_rows():
    rows = [vec_from_dense([1, 2]), vec_from_dense([2, 4])]
    with pytest.raises(DegenerateInputError):
        LinearSolver(rows)
    with pytest.raises(DegenerateInputError):
        independent_span([{3: 0}])  # a vector of zeros is the zero vector


def test_kernel_basis_simple():
    # x0 + x1 = 0, x2 free
    equations = [vec_from_dense([1, 1, 0])]
    kernel = kernel_basis(equations, 3)
    assert len(kernel) == 2
    for vec in kernel:
        assert sum(vec.get(i, Fraction(0)) * c for i, c in ((0, 1), (1, 1))) == 0


def test_kernel_orthogonal_to_equations():
    rng = random.Random(11)
    equations = []
    for _ in range(4):
        equations.append(
            {idx: Fraction(rng.randint(-3, 3)) for idx in rng.sample(range(7), 3)}
        )
        equations[-1] = {k: v for k, v in equations[-1].items() if v}
    kernel = kernel_basis(equations, 7)
    rank = span_of(equations).rank
    assert len(kernel) == 7 - rank
    for vec in kernel:
        for eq in equations:
            assert sum(eq.get(i, Fraction(0)) * v for i, v in vec.items()) == 0


def test_exact_div_keeps_ints_and_never_gives_a_float():
    assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int
    assert exact_div(-6, 3) == -2 and type(exact_div(-6, 3)) is int
    assert exact_div(0, -4) == 0 and type(exact_div(0, -4)) is int
    assert exact_div(7, 2) == Fraction(7, 2) and type(exact_div(7, 2)) is Fraction
    assert exact_div(-1, 3) == Fraction(-1, 3)
    # a Fraction on either side gives the exact value, an int when integral
    assert exact_div(Fraction(3, 2), 3) == Fraction(1, 2)
    assert exact_div(Fraction(3, 2), Fraction(3, 4)) == 2
    assert type(exact_div(Fraction(3, 2), Fraction(3, 4))) is int
    assert exact_div(4, Fraction(2, 3)) == 6 and type(exact_div(4, Fraction(2, 3))) is int
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.integers(-50, 50), st.fractions(-5, 5, max_denominator=6)),
    st.one_of(st.integers(-50, 50), st.fractions(-5, 5, max_denominator=6)).filter(bool),
)
def test_exact_div_is_exact(a, b):
    q = exact_div(a, b)
    assert type(q) in (int, Fraction)
    assert q * b == a
    assert type(q) is int or q.denominator != 1


def test_int_rows_stay_int_where_integral():
    # every lead here divides its row, so the echelon rows stay int
    basis = SpanBasis()
    basis.extend([{0: -1, 1: 3}, {1: 2, 2: 4}, {2: 1, 3: -1}])
    assert basis.rows == [{0: 1, 3: 6}, {1: 1, 3: 2}, {2: 1, 3: -1}]
    assert all(type(val) is int for row in basis.rows for val in row.values())
    solver = LinearSolver([{0: 1, 1: 1}, {1: 1, 2: 1}])
    coeffs = solver.express({0: 2, 1: 5, 2: 3})
    assert coeffs == {0: 2, 1: 3} and all(type(c) is int for c in coeffs.values())
    # a lead that does not divide its row gives exact Fractions
    mixed = SpanBasis()
    mixed.insert({0: 3, 1: 1})
    assert mixed.rows == [{0: 1, 1: Fraction(1, 3)}]
    assert all(type(val) in (int, Fraction) for val in mixed.rows[0].values())


small_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def solver_cases(draw):
    """Independent rows in the order drawn, which is in general no echelon
    form; a combination of them; and coordinates to pad vectors with zero
    values."""
    span = SpanBasis()
    rows = [row for row in draw(st.lists(small_vec, min_size=1, max_size=6)) if span.insert(row)]
    coeffs = draw(st.lists(small_coeff, min_size=len(rows), max_size=len(rows)))
    inside: dict = {}
    for c, row in zip(coeffs, rows):
        vec_iadd_scaled(inside, row, c)
    zeros = draw(st.sets(st.integers(min_value=0, max_value=5)))
    return rows, span, inside, zeros


@settings(max_examples=60, deadline=None)
@given(solver_cases(), small_vec)
def test_pivot_read_express_agrees_with_reduction(case, other):
    rows, span, inside, zeros = case
    solver, reference = LinearSolver(rows), ReductionSolver(rows, 6)
    free = [idx for idx in range(6) if idx not in span.pivots]
    # a unit vector at a non-pivot column reduces to itself: outside the span
    outside = [{**inside, free[0]: inside.get(free[0], 0) + 1}] if free else []
    for vec in (inside, other, *outside):
        padded = {**dict.fromkeys(zeros, Fraction(0)), **vec}
        assert solver.express(padded) == reference.express(padded)
    for vec in outside:
        assert solver.express(vec) is None
    coeffs = solver.express({**dict.fromkeys(zeros, 0), **inside})
    assert all(coeffs.values())
    rebuilt: dict = {}
    for k, c in coeffs.items():
        vec_iadd_scaled(rebuilt, rows[k], c)
    assert rebuilt == inside


exact_coeff = st.one_of(st.integers(-3, 3), small_coeff)
nonzero_coeff = exact_coeff.filter(bool)


@st.composite
def private_column_cases(draw):
    """Rows over coordinates 0..9, in a drawn order: up to four with a
    private column at a drawn coordinate with a drawn lead there, and up
    to four more over the same four shared coordinates only, each with
    zero values stored at drawn coordinates.  Now and then a zero row or a
    combination of two rows is added, which makes the set dependent."""
    columns = draw(st.permutations(range(10)))
    n_private = draw(st.integers(0, 4))
    private, shared = columns[:n_private], columns[n_private : n_private + 4]

    def shared_row(min_size):
        support = draw(st.sets(st.sampled_from(shared), min_size=min_size, max_size=3))
        return {idx: integral(draw(nonzero_coeff)) for idx in sorted(support)}

    rows = [{col: integral(draw(nonzero_coeff)), **shared_row(0)} for col in private]
    rows += [shared_row(1) for _ in range(draw(st.integers(0, 4)))]
    extra = draw(st.integers(0, 5))  # 4: a zero row, 5: a combination
    if extra == 4:
        rows.append({})
    elif extra == 5 and rows:
        row = {}
        for _ in range(2):
            vec_iadd_scaled(row, draw(st.sampled_from(rows)), draw(nonzero_coeff))
        rows.append(row)
    rows = draw(st.permutations(rows))
    stored_zeros = [draw(st.sets(st.integers(0, 9), max_size=3)) for _ in rows]
    padded = [{**dict.fromkeys(zeros, 0), **row} for zeros, row in zip(stored_zeros, rows)]
    coeffs = draw(st.lists(exact_coeff, min_size=len(rows), max_size=len(rows)))
    inside: dict = {}
    for c, row in zip(coeffs, rows):
        vec_iadd_scaled(inside, row, c)
    return rows, padded, {idx: integral(val) for idx, val in inside.items()}


@settings(max_examples=150, deadline=None)
@given(private_column_cases(), small_vec, st.sets(st.integers(0, 11)))
def test_private_column_solver_agrees_with_the_augmented_one(case, other, zeros):
    # the rows as drawn, stored zeros and all, against the global augmented
    # solve of the same rows without them
    rows, padded, inside = case
    try:
        reference = AugmentedSolver(rows)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            LinearSolver(padded)
        return
    solver = LinearSolver(padded)
    # coordinate 10 is past every row: a term there is outside the span
    for vec in (inside, other, {**inside, 10: 1}, {**other, 10: Fraction(1, 2)}):
        padded_vec = {**dict.fromkeys(zeros, 0), **vec}
        assert solver.express(padded_vec) == reference.express(vec)
    assert solver.express(inside) is not None
    assert solver.express({**inside, 10: 1}) is None
