import dataclasses
import warnings

import pytest

from quatlie.bracket import bracket, close_under_bracket
from quatlie.errors import StructuralFailureError
from quatlie.matrices import (
    QuatMatrix,
    apply_J,
    is_J_submodule,
    is_sigma_submodule,
    mj_embed,
)
from quatlie.realizations import (
    build_named,
    chevalley_generators,
    closure_realization,
    membership,
)
from quatlie.scalars import Q_I, Q_J, Q_ONE

DIMS = {
    "gl_n_H": lambda n: 4 * n * n,
    "sl_n_H": lambda n: 4 * n * n - 1,
    "so_star_2n": lambda n: n * (2 * n - 1),
    "sp_n": lambda n: n * (2 * n + 1),
    "u_n": lambda n: n * n,
    "sk_n_C": lambda n: 2 * n * n - 1,
    "sl_n_C": lambda n: 2 * (n * n - 1),
    "so_n_C": lambda n: n * (n - 1),
}


@pytest.mark.parametrize("name", sorted(DIMS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_named_dimensions(name, n):
    algebra = build_named(name, n)
    assert algebra.dim == DIMS[name](n)


@pytest.mark.parametrize("name", sorted(DIMS))
def test_named_sigma_tau_invariant(name):
    algebra = build_named(name, 3)
    assert is_sigma_submodule(algebra.basis)


@pytest.mark.parametrize("name", sorted(DIMS))
def test_named_bracket_closed(name):
    algebra = build_named(name, 2)
    assert close_under_bracket(algebra.basis).dim == algebra.dim


def test_gl_is_J_submodule_sl_is_not():
    assert is_J_submodule(build_named("gl_n_H", 2).basis)
    assert not is_J_submodule(build_named("sl_n_H", 2).basis)


def test_membership_examples():
    assert membership("sl_n_H", 2, QuatMatrix.unit(2, 0, 0, Q_J))
    assert not membership("sl_n_H", 2, QuatMatrix.unit(2, 0, 0, Q_ONE))
    assert membership("sp_n", 2, QuatMatrix.unit(2, 0, 0, Q_I))


def test_membership_dimension_mismatch():
    with pytest.raises(ValueError):
        membership("sl_n_H", 3, QuatMatrix.zeros(2))


def test_unknown_name_and_range():
    with pytest.raises(ValueError):
        build_named("sl_q", 3)
    with pytest.raises(ValueError):
        build_named("sl_n_H", 1)
    with pytest.raises(ValueError):
        build_named("sl_n_H", 99)


def test_so2_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_named("so_n_C", 2)
    assert any("abelian" in str(w.message) for w in caught)


def test_so_star_block_characterization():
    algebra = build_named("so_star_2n", 3)
    for m in algebra.basis:
        mj = mj_embed(m)
        a, b = mj.block_a, mj.block_b
        for p in range(3):
            for q in range(3):
                assert (a[p][q] + a[q][p]).is_zero()  # A antisymmetric
                assert b[p][q] == b[q][p].conj()  # B Hermitian


def test_sp_block_characterization():
    algebra = build_named("sp_n", 2)
    for m in algebra.basis:
        mj = mj_embed(m)
        a, b = mj.block_a, mj.block_b
        for p in range(2):
            for q in range(2):
                assert a[p][q] == -a[q][p].conj()  # A skew-Hermitian
                assert b[p][q] == b[q][p]  # B symmetric


def test_u_n_basis_choice():
    algebra = build_named("u_n", 2)
    expected = [
        QuatMatrix.unit(2, 0, 0, Q_I),
        QuatMatrix.unit(2, 1, 1, Q_I),
        QuatMatrix.unit_sum(2, [(0, 1, Q_ONE), (1, 0, -Q_ONE)]),
        QuatMatrix.unit_sum(2, [(0, 1, Q_I), (1, 0, Q_I)]),
    ]
    assert sorted(map(hash, algebra.basis)) == sorted(map(hash, expected))


@pytest.mark.parametrize("n", [2, 3])
def test_sl_h_is_sk_plus_j_gl(n):
    # sl(n,H) = sk(n,C) + J gl(n,C) as spans, 2n^2-1 + 2n^2 = 4n^2-1
    from quatlie.linalg import SpanBasis
    from quatlie.matrices import apply_J, flatten

    ambient = 4 * n * n
    left = SpanBasis(ambient)
    for m in build_named("sl_n_H", n).basis:
        left.insert(flatten(m))
    right = SpanBasis(ambient)
    for m in build_named("sk_n_C", n).basis:
        right.insert(flatten(m))
    count_j = 0
    for p in range(n):
        for q in range(n):
            for coeff in (Q_ONE, Q_I):
                right.insert(flatten(apply_J(QuatMatrix.unit(n, p, q, coeff))))
                count_j += 1
    assert count_j == 2 * n * n
    assert left.same_span(right)
    assert left.rank == 4 * n * n - 1


# ---------------------------------------------------------------------------
# Chevalley generators
# ---------------------------------------------------------------------------

SUPPORTED = (
    [("A", l) for l in range(1, 5)]
    + [("B", l) for l in (2, 3, 4)]
    + [("C", l) for l in (2, 3, 4, 5)]
    + [("D", l) for l in (3, 4, 5)]
)


@pytest.mark.parametrize("type_label,rank", SUPPORTED)
def test_generator_relations_hold(type_label, rank):
    # the constructor re-validates (S1); run it explicitly as well
    gens = chevalley_generators(type_label, rank)
    gens.validate()
    assert len(gens.h) == len(gens.e) == len(gens.f) == rank


def test_type_a1_explicit():
    gens = chevalley_generators("A", 1)
    assert gens.h[0] == QuatMatrix.unit_sum(2, [(0, 0, Q_ONE), (1, 1, -Q_ONE)])
    assert gens.e[0] == QuatMatrix.unit(2, 0, 1, Q_ONE)
    assert gens.f[0] == QuatMatrix.unit(2, 1, 0, Q_ONE)
    assert bracket(gens.e[0], gens.f[0]) == gens.h[0]


def test_validate_names_the_failed_relation():
    gens = chevalley_generators("A", 2)
    flipped = dataclasses.replace(gens, e=[gens.e[0], gens.e[1].scale_rational(-1)])
    with pytest.raises(StructuralFailureError, match=r"relations\.e\.f failed at \[\(1, 1\)\]"):
        flipped.validate()
    # J e_0 breaks [e_0, f_0] = h_0 too; the coordinate test runs first
    tagged = dataclasses.replace(gens, e=[apply_J(gens.e[0]), gens.e[1]])
    with pytest.raises(StructuralFailureError, match="generator e0 has a J component"):
        tagged.validate()


def test_closure_realization_makes_no_matrix_products(monkeypatch):
    calls = []
    matmul = QuatMatrix.__matmul__

    def counted(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(QuatMatrix, "__matmul__", counted)
    for type_label, rank in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3)):
        closure_realization(type_label, rank)
    assert len(calls) == 0


def test_type_a2_cartan_action():
    gens = chevalley_generators("A", 2)
    # [h1, e2] = c_21 e2 = -e2
    assert bracket(gens.h[0], gens.e[1]) == -gens.e[1]


def test_nested_brackets_recover_matrix_units():
    # E_ij = [e_i, [e_{i+1}, ... [e_{j-2}, e_{j-1}]]] for i < j in sl(4)
    gens = chevalley_generators("A", 3)

    def nested(i, j):
        acc = gens.e[j - 1]
        for k in range(j - 2, i - 1, -1):
            acc = bracket(gens.e[k], acc)
        return acc

    n = 4
    for i in range(n - 1):
        for j in range(i + 1, n):
            assert nested(i, j) == QuatMatrix.unit(n, i, j, Q_ONE)


def test_b2_realization_membership():
    gens = chevalley_generators("B", 2)
    n = gens.ambient_n
    assert n == 5
    # split-form symmetric matrix: S = E00 + sum(E_{p,l+p} + E_{l+p,p})
    s = QuatMatrix.unit_sum(
        n, [(0, 0, Q_ONE), (1, 3, Q_ONE), (3, 1, Q_ONE), (2, 4, Q_ONE), (4, 2, Q_ONE)]
    )
    for m in [*gens.h, *gens.e, *gens.f]:
        gram = _plain_transpose(m) @ s + s @ m
        assert gram.is_zero()


def test_c2_realization_membership():
    gens = chevalley_generators("C", 2)
    n = gens.ambient_n
    omega = QuatMatrix.unit_sum(
        n, [(0, 2, Q_ONE), (1, 3, Q_ONE), (2, 0, -Q_ONE), (3, 1, -Q_ONE)]
    )
    for m in [*gens.h, *gens.e, *gens.f]:
        gram = _plain_transpose(m) @ omega + omega @ m
        assert gram.is_zero()


def test_d3_realization_membership():
    gens = chevalley_generators("D", 3)
    n = gens.ambient_n
    s = QuatMatrix.unit_sum(
        n,
        [(p, 3 + p, Q_ONE) for p in range(3)] + [(3 + p, p, Q_ONE) for p in range(3)],
    )
    for m in [*gens.h, *gens.e, *gens.f]:
        gram = _plain_transpose(m) @ s + s @ m
        assert gram.is_zero()


def _plain_transpose(m):
    n = m.n
    return QuatMatrix([[m.rows[q][p] for q in range(n)] for p in range(n)])


def test_rank_bounds():
    with pytest.raises(ValueError):
        chevalley_generators("B", 1)
    with pytest.raises(ValueError):
        chevalley_generators("D", 2)
    with pytest.raises(ValueError):
        chevalley_generators("A", 12)  # exceeds the ambient cap
