"""Quaternion arithmetic against an independent 4x4 real-matrix oracle.

The oracle builds left-multiplication matrices over the basis (1, i, j, k)
straight from the eight-entry multiplication table, with no reference to
the split-form product formula under test.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quatlie.errors import MalformedInputError
from quatlie.scalars import (
    GaussianRational,
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    Quaternion,
    format_rational,
    integral,
    parse_rational,
    quat_J,
    quat_mul,
)

from oracles import quat_conj_sigma, quat_conj_tau

# (a*b) -> (sign, index) over basis order 1, i, j, k
MUL_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}

BASIS = (Q_ONE, Q_I, Q_J, Q_K)


def to_ijk(x: Quaternion):
    """Coordinates over (1, i, j, k): x = a + b*i + c*j - d*k in split form."""
    a, b, c, d = x.to_coords()
    return [a, b, c, -d]


def from_ijk(coords):
    w, x, y, z = coords
    return Quaternion(GaussianRational(w, x), GaussianRational(y, -z))


def left_mul_matrix(x: Quaternion):
    cols = []
    xc = to_ijk(x)
    for b in range(4):
        col = [Fraction(0)] * 4
        for a in range(4):
            sign, idx = MUL_TABLE[(a, b)]
            col[idx] += sign * xc[a]
        cols.append(col)
    return cols  # cols[b][idx]


def oracle_mul(x: Quaternion, y: Quaternion) -> Quaternion:
    cols = left_mul_matrix(x)
    yc = to_ijk(y)
    out = [Fraction(0)] * 4
    for b in range(4):
        for idx in range(4):
            out[idx] += cols[b][idx] * yc[b]
    return from_ijk(out)


def rand_quat(rng):
    return Quaternion(
        GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                         Fraction(rng.randint(-5, 5), rng.randint(1, 3))),
        GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                         Fraction(rng.randint(-5, 5), rng.randint(1, 3))),
    )


def test_ijk_coordinates_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        x = rand_quat(rng)
        assert from_ijk(to_ijk(x)) == x


def test_unit_products_match_oracle():
    for x in BASIS:
        for y in BASIS:
            assert quat_mul(x, y) == oracle_mul(x, y)


def test_j_squared():
    assert quat_mul(Q_J, Q_J) == -Q_ONE


def test_i_times_j_is_k():
    prod = quat_mul(Q_I, Q_J)
    assert prod == Q_K
    assert prod.z1.is_zero()
    assert prod.z2 == GaussianRational(0, -1)


def test_one_plus_j_times_i():
    # frozen from the 4x4 oracle: (1+j)*i = i + j*i  (since ji = -k)
    x = Q_ONE + Q_J
    expected = oracle_mul(x, Q_I)
    assert expected == Quaternion(GaussianRational(0, 1), GaussianRational(0, 1))
    assert quat_mul(x, Q_I) == expected


def test_random_products_match_oracle():
    rng = random.Random(20240)
    for _ in range(200):
        x, y = rand_quat(rng), rand_quat(rng)
        assert quat_mul(x, y) == oracle_mul(x, y)


def test_sigma_examples():
    assert quat_conj_sigma(Q_J) == -Q_J
    fixed = Q_ONE + Q_I
    assert quat_conj_sigma(fixed) == fixed


def test_sigma_involution_random():
    rng = random.Random(3)
    for _ in range(20):
        x = rand_quat(rng)
        assert quat_conj_sigma(quat_conj_sigma(x)) == x


def test_tau_examples():
    assert quat_conj_tau(Q_I) == -Q_I
    ji = quat_mul(Q_J, Q_I)  # j*i in split form has z2 = i
    assert quat_conj_tau(ji) == Quaternion(GaussianRational(0, 0), GaussianRational(0, -1))


def test_sigma_tau_commute_random():
    rng = random.Random(4)
    for _ in range(20):
        x = rand_quat(rng)
        assert quat_conj_sigma(quat_conj_tau(x)) == quat_conj_tau(quat_conj_sigma(x))


fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=4)
gauss_st = st.builds(GaussianRational, fractions_st, fractions_st)
quat_st = st.builds(Quaternion, gauss_st, gauss_st)


@settings(max_examples=60, deadline=None)
@given(quat_st, quat_st, quat_st)
def test_associativity(x, y, z):
    assert quat_mul(quat_mul(x, y), z) == quat_mul(x, quat_mul(y, z))


@settings(max_examples=60, deadline=None)
@given(quat_st, quat_st, quat_st)
def test_distributivity(x, y, z):
    assert quat_mul(x, y + z) == quat_mul(x, y) + quat_mul(x, z)
    assert quat_mul(x + y, z) == quat_mul(x, z) + quat_mul(y, z)


@settings(max_examples=60, deadline=None)
@given(quat_st, gauss_st)
def test_J_conjugate_linear_for_complex_scalars(x, a):
    # J(a*x) = conj(a) * J(x) for the left complex action
    left = quat_J(quat_mul(Quaternion(a), x))
    right = quat_mul(Quaternion(a.conj()), quat_J(x))
    assert left == right


@settings(max_examples=60, deadline=None)
@given(quat_st)
def test_J_squared_is_minus_one(x):
    assert quat_J(quat_J(x)) == -x


def test_rational_serialization_round_trip():
    values = [Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(22, 7), Fraction(-1)]
    for v in values:
        assert parse_rational(format_rational(v)) == v
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-3, 4)) == "-3/4"


PARSE_CASES = [
    "0", "-0", "007", "-5", "+5", " 5 ", "1_000", "\u0663", "\u00b2",
    "--5", "5-", "", "-", "1/2", "4/2", "1/0", " -12 ", "3\n", "-007/14",
]


@pytest.mark.parametrize("text", PARSE_CASES, ids=repr)
def test_parse_rational_int_fast_path_keeps_the_fraction_verdict(text):
    # the plain-integer shortcut must accept and value exactly what the
    # Fraction route did: integral(Fraction(text.strip())), or reject
    try:
        expected = integral(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        with pytest.raises(MalformedInputError):
            parse_rational(text)
        return
    got = parse_rational(text)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("text", ["1" * 5000, "-" + "7" * 4301], ids=["5000-digits", "minus-4301"])
def test_parse_rational_rejects_an_integer_past_the_digit_limit(text):
    # int() raises a bare ValueError beyond the interpreter's digit limit
    with pytest.raises(MalformedInputError, match="not a rational string"):
        parse_rational(text)


@settings(max_examples=50, deadline=None)
@given(quat_st)
def test_quaternion_coords_round_trip(x):
    assert Quaternion.from_coords(*x.to_coords()) == x


def test_conjugation_is_quaternionic(rng=None):
    # conj negates the i, j, k coordinates
    x = Quaternion(GaussianRational(1, 2), GaussianRational(3, 4))
    a, b, c, d = to_ijk(x)
    ca, cb, cc, cd = to_ijk(x.conj())
    assert (ca, cb, cc, cd) == (a, -b, -c, -d)
    prod = quat_mul(x, x.conj())
    assert prod.z2.is_zero() and prod.z1.im == 0
    assert prod.z1.re == a * a + b * b + c * c + d * d


def _complex_part_only(q: Quaternion) -> Quaternion:
    return Quaternion(q.z1, GaussianRational(0, 0))


def _coordinate_types(q: Quaternion) -> set:
    return {type(q.z1), type(q.z2)} | {type(v) for v in q.to_coords()}


@pytest.mark.parametrize("plain", ["left", "right", "both"])
def test_product_with_a_zero_j_part_matches_oracle(plain):
    # quat_mul computes only z1*w1 when both z2 vanish; either way the
    # product, and the types of its parts, are the full rule's
    rng = random.Random(20241)
    for _ in range(100):
        x, y = rand_quat(rng), rand_quat(rng)
        if plain in ("left", "both"):
            x = _complex_part_only(x)
        if plain in ("right", "both"):
            y = _complex_part_only(y)
        product = quat_mul(x, y)
        assert product == oracle_mul(x, y)
        assert _coordinate_types(product) == {GaussianRational, Fraction}
    assert quat_mul(Q_I, Q_I) == -Q_ONE and quat_mul(Q_ONE, Q_J) == Q_J
