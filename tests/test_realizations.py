import hashlib
import json
import warnings

import pytest

from quatlie.bracket import bracket, close_under_bracket
from quatlie.errors import StructuralFailureError
from quatlie.matrices import QuatMatrix, apply_J, is_sigma_submodule
from quatlie.realizations import (
    build_named,
    chevalley_generators,
    closure_realization,
    membership,
    realization_spec,
)
from quatlie.rootsystem import require_type_rank
from quatlie.scalars import Q_I, Q_J, Q_ONE

from oracles import is_J_submodule, mj_embed, replace

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


# SHA-256 of the flattened rows of `chevalley_generators`, by kind in
# order, each row as its sorted (index, value) pairs.  No artifact pins
# the defining realizations of B and D: B2 closes in C2's and D3 in A3's.
GENERATOR_SHA256 = {
    ("A", 1): "53da10995d9a616561f99deb9723294b2f5d74008c81214cba8c0bb8eaf5142c",
    ("A", 2): "2d37aa69699024d63038c3da6a747af2e677a1729e931acba5ae24ec9c4ba10a",
    ("A", 3): "b4513a7bf09e7079b2ea0df6f94c5725225d4a6f4936126ee6c4604c7bbf660c",
    ("A", 4): "b013e5c7a865c8318ec5b360e5bde290d8a0dcc7aadd277364e480ed218b64d4",
    ("B", 2): "fa4b2ef092ef9105d692fed50f1cc96a0338123e7315aa1d41bc3a59e22aba67",
    ("B", 3): "99e22e6eda8fe968d32d2180e44b993f83d849d184e2e22fef3b624a295e6ccb",
    ("B", 4): "2e8cdde0176893452531a56febfb026a445236efd43986c25a0da3d42d9483be",
    ("C", 2): "5f35c4967e20da7c8fcb3b6c68f8b1939685e5cbd0d511b8b5a0afa5acda76c9",
    ("C", 3): "d584bf6272567c0e6540880fc3824bf5c828408e469c6d347fa5513f20e07f5c",
    ("C", 4): "16e0fea67029450054464d9a730ca1111ef6d76b440f08239da57609f636c999",
    ("C", 5): "387759f2ec544634928ddc20dd89b3c3441e6edbd7c4436f1c34ab01b8104a96",
    ("D", 3): "a4d98b495e7363913ecc93a653a4cb7da2b332781b039aa7a835631aef8e9c04",
    ("D", 4): "09ac78b95884c4cbd3106e4fd70b24fe8c79879e078b6eaceff15be42517e258",
    ("D", 5): "b7016a49c8ac3de078fb884bcb7a269c4b74966da9578de67f8fba858f0789fd",
}


def _generator_digest(gens) -> str:
    doc = {
        kind: [[[idx, str(v)] for idx, v in sorted(row.items())] for row in gens.rows[kind]]
        for kind in "hef"
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("type_label,rank", sorted(GENERATOR_SHA256))
def test_defining_generators_pinned(type_label, rank):
    gens = chevalley_generators(type_label, rank)
    assert _generator_digest(gens) == GENERATOR_SHA256[(type_label, rank)]


def test_type_a1_explicit():
    gens = chevalley_generators("A", 1)
    assert gens.h[0] == QuatMatrix.unit_sum(2, [(0, 0, Q_ONE), (1, 1, -Q_ONE)])
    assert gens.e[0] == QuatMatrix.unit(2, 0, 1, Q_ONE)
    assert gens.f[0] == QuatMatrix.unit(2, 1, 0, Q_ONE)
    assert bracket(gens.e[0], gens.f[0]) == gens.h[0]


def test_validate_names_the_failed_relation():
    gens = chevalley_generators("A", 2)
    flipped = replace(gens, e=[gens.e[0], gens.e[1].scale_rational(-1)])
    with pytest.raises(StructuralFailureError, match=r"relations\.e\.f failed at \[\(1, 1\)\]"):
        flipped.validate()
    # J e_0 breaks [e_0, f_0] = h_0 too; the coordinate test runs first
    tagged = replace(gens, e=[apply_J(gens.e[0]), gens.e[1]])
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


def test_unknown_type_is_refused_with_the_root_system_message():
    with pytest.raises(ValueError) as expected:
        require_type_rank("E", 6)
    for refuse in (realization_spec, closure_realization):
        with pytest.raises(ValueError) as got:
            refuse("E", 6)
        assert str(got.value) == str(expected.value)


def test_rank_bounds():
    with pytest.raises(ValueError):
        chevalley_generators("B", 1)
    with pytest.raises(ValueError):
        chevalley_generators("D", 2)
    with pytest.raises(ValueError):
        chevalley_generators("A", 12)  # exceeds the ambient cap
