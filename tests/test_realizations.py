import contextlib
import hashlib
import importlib
import io
import json
import sys
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from quatlie import cli
from quatlie.bracket import bracket, close_under_bracket
from quatlie.errors import StructuralFailureError
from quatlie.linalg import independent_span
from quatlie.matrices import QuatMatrix, flatten
from quatlie.quaternify import sigma_grading_check
from quatlie.realizations import (
    MAX_NAMED_N,
    build_named,
    chevalley_generators,
    closure_realization,
    membership,
    realization_spec,
)
from quatlie.rootsystem import cartan_matrix, positive_roots, require_type_rank
from quatlie.scalars import Q_I, Q_J, Q_ONE

from oracles import (
    apply_J,
    generator_matrices,
    is_J_submodule,
    is_sigma_submodule,
    matrix_membership,
    mj_embed,
    named_matrices,
    unit,
    unit_sum,
)

quaternify_module = importlib.import_module("quatlie.quaternify")
bracket_module = importlib.import_module("quatlie.bracket")
realizations_module = importlib.import_module("quatlie.realizations")

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
@pytest.mark.parametrize("n", range(2, MAX_NAMED_N + 1))
def test_named_dimensions(name, n):
    # independent int rows of the matrix algebra, as many as its dimension
    algebra = build_named(name, n)
    assert algebra.dim == len(algebra.basis) == DIMS[name](n)
    assert all(type(val) is int for row in algebra.basis for val in row.values())
    independent_span(algebra.basis)
    assert all(matrix_membership(name, n, QuatMatrix.unflatten(n, row)) for row in algebra.basis)


@pytest.mark.parametrize("name", sorted(DIMS))
def test_named_sigma_tau_invariant(name):
    assert is_sigma_submodule(named_matrices(name, 3))


@pytest.mark.parametrize("name", sorted(DIMS))
def test_named_bracket_closed(name):
    algebra = build_named(name, 2)
    assert close_under_bracket(algebra.basis, 2).rank == algebra.dim


def test_gl_is_J_submodule_sl_is_not():
    assert is_J_submodule(named_matrices("gl_n_H", 2))
    assert not is_J_submodule(named_matrices("sl_n_H", 2))


def test_membership_examples():
    assert membership("sl_n_H", 2, flatten(unit(2, 0, 0, Q_J)))
    assert not membership("sl_n_H", 2, flatten(unit(2, 0, 0, Q_ONE)))
    assert membership("sp_n", 2, flatten(unit(2, 0, 0, Q_I)))


def test_membership_dimension_mismatch():
    with pytest.raises(ValueError):
        membership("sl_n_H", 2, flatten(unit(3, 2, 2, Q_ONE)))


def membership_rows(name, n):
    """Sparse int rows, integer sums of the basis rows of ``build_named(name,
    n)`` (members), and such sums with a sparse row added."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # so(2, C) is abelian
        basis = build_named(name, n).basis
    # the trace conditions read the diagonal cells, so they are drawn often
    diagonal = [4 * p * (n + 1) + s for p in range(n) for s in range(4)]
    index = st.one_of(st.integers(0, 4 * n * n - 1), st.sampled_from(diagonal))
    sparse = st.dictionaries(index, st.integers(-3, 3).filter(bool), max_size=6)
    terms = st.lists(st.tuples(st.sampled_from(basis), st.integers(-2, 2)), max_size=8)

    def combine(drawn):
        kind, row, summands = drawn
        row = {} if kind == "member" else dict(row)
        if kind != "sparse":
            for b, c in summands:
                for idx, val in b.items():
                    row[idx] = row.get(idx, 0) + c * val
        return {idx: val for idx, val in row.items() if val}

    return st.tuples(st.sampled_from(("sparse", "member", "near")), sparse, terms).map(combine)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(DIMS))
def test_membership_matches_the_matrix_predicate(name, n):
    found = set()

    # derandomized, so that the verdicts found are the same on every run
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(membership_rows(name, n))
    def check(row):
        got = membership(name, n, row)
        assert got == matrix_membership(name, n, QuatMatrix.unflatten(n, row))
        found.add(got)

    check()
    # both verdicts occur, except in gl(n, H), which holds every row
    assert found == ({True} if name == "gl_n_H" else {True, False})


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
    for m in named_matrices("so_star_2n", 3):
        mj = mj_embed(m)
        a, b = mj.block_a, mj.block_b
        for p in range(3):
            for q in range(3):
                assert (a[p][q] + a[q][p]).is_zero()  # A antisymmetric
                assert b[p][q] == b[q][p].conj()  # B Hermitian


def test_sp_block_characterization():
    for m in named_matrices("sp_n", 2):
        mj = mj_embed(m)
        a, b = mj.block_a, mj.block_b
        for p in range(2):
            for q in range(2):
                assert a[p][q] == -a[q][p].conj()  # A skew-Hermitian
                assert b[p][q] == b[q][p]  # B symmetric


def test_u_n_basis_choice():
    basis = named_matrices("u_n", 2)
    expected = [
        unit(2, 0, 0, Q_I),
        unit(2, 1, 1, Q_I),
        unit_sum(2, [(1, 0, Q_ONE), (0, 1, -Q_ONE)]),
        unit_sum(2, [(0, 1, Q_I), (1, 0, Q_I)]),
    ]
    assert sorted(map(hash, basis)) == sorted(map(hash, expected))


@pytest.mark.parametrize("n", [2, 3])
def test_sl_h_is_sk_plus_j_gl(n):
    # sl(n,H) = sk(n,C) + J gl(n,C) as spans, 2n^2-1 + 2n^2 = 4n^2-1
    from quatlie.linalg import SpanBasis

    left = SpanBasis()
    for m in named_matrices("sl_n_H", n):
        left.insert(flatten(m))
    right = SpanBasis()
    for m in named_matrices("sk_n_C", n):
        right.insert(flatten(m))
    count_j = 0
    for p in range(n):
        for q in range(n):
            for coeff in (Q_ONE, Q_I):
                right.insert(flatten(apply_J(unit(n, p, q, coeff))))
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
    # the claims the `relations` and `grading` checks make of the generators
    gens = chevalley_generators(type_label, rank)
    reports = gens.relations()
    assert len(reports) == 16 and all(report.ok for report in reports)
    assert not any(idx & 2 for kind in "hef" for row in gens.rows[kind] for idx in row)
    assert len(gens.rows["h"]) == len(gens.rows["e"]) == len(gens.rows["f"]) == rank


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
    (h,), (e,), (f,) = (generator_matrices(chevalley_generators("A", 1), kind) for kind in "hef")
    assert h == unit_sum(2, [(0, 0, Q_ONE), (1, 1, -Q_ONE)])
    assert e == unit(2, 0, 1, Q_ONE)
    assert f == unit(2, 1, 0, Q_ONE)
    assert bracket(e, f) == h


def test_build_names_the_failed_relation(monkeypatch):
    # A2 generators born faulty in the defining realization: a build judges
    # them by the check registry alone, as verify does, and raises the
    # first red report outside MEASURED
    ambient, simple_roots = realizations_module._DEFINING["A"]

    def negated_e1(n, l):
        first, (h1, e1, f1) = simple_roots(n, l)
        return [first, (h1, {k: -v for k, v in e1.items()}, f1)]

    def j_e0(n, l):
        (h0, e0, f0), second = simple_roots(n, l)
        return [(h0, flatten(apply_J(QuatMatrix.unflatten(n, e0))), f0), second]

    grading = []

    def recorded(g):
        grading.append(sigma_grading_check(g))
        return grading[-1]

    monkeypatch.setattr(quaternify_module, "sigma_grading_check", recorded)
    for faulty, pair in ((negated_e1, r"\(1, 1\)"), (j_e0, r"\(0, 0\)")):
        monkeypatch.setitem(realizations_module._DEFINING, "A", (ambient, faulty))
        with pytest.raises(StructuralFailureError, match=rf"^relations\.e\.f failed: \[{pair}\]$"):
            quaternify_module.quaternify("A", 2)
    # the grading check of the same run names the J e_0 line, rows 8 to 11
    # of the generating set (the h lines come first)
    assert [report.failures for report in grading] == [[], [("parity", i) for i in range(8, 12)]]


def _count_matrix_traffic(monkeypatch) -> Counter:
    """Count QuatMatrix constructions, products, flattens and unflattens."""
    counts = Counter()
    for name in ("__init__", "__matmul__", "flatten"):
        original = getattr(QuatMatrix, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(QuatMatrix, name, counted)
    unflatten = QuatMatrix.unflatten.__func__

    def counted_unflatten(cls, n, coords):
        counts["unflatten"] += 1
        return unflatten(cls, n, coords)

    monkeypatch.setattr(QuatMatrix, "unflatten", classmethod(counted_unflatten))
    return counts


SIX_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3))


def test_closure_realization_makes_no_matrix_products(monkeypatch, tmp_path):
    counts = _count_matrix_traffic(monkeypatch)
    for type_label, rank in SIX_TYPES:
        closure_realization(type_label, rank)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # so(2, C) is abelian
        for name in DIMS:
            for n in (2, 3, 4):
                build_named(name, n)
    assert counts["__matmul__"] == 0
    assert counts == Counter()  # not one QuatMatrix constructed
    # the root vectors are the only matrices of a build or a verify: two
    # products per bracket over the non-simple positive roots, both signs
    assert sum(
        4 * (len(positive_roots(cartan_matrix(t, r))) - r) for t, r in SIX_TYPES
    ) == 44
    paths = [str(tmp_path / f"{t}{r}.json") for t, r in SIX_TYPES]
    passes = {
        "build": [
            ["build", "--type", t, "--rank", str(r), "--out", path]
            for (t, r), path in zip(SIX_TYPES, paths)
        ],
        "verify": [["verify", "--in", path] for path in paths],
    }
    for command, argvs in passes.items():
        counts.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in argvs]
        assert codes == [0, 0, 0, 1, 1, 0], command
        # unflatten: the 2l simple-root leaves; flatten: the root vectors
        # that weights.spaces reads, all but the four 8-dimensional short
        # root spaces of B2 and of C2
        traffic = {key: counts[key] for key in ("__matmul__", "unflatten", "flatten")}
        assert traffic == {"__matmul__": 44, "unflatten": 26, "flatten": 40}, command


def test_closure_realization_makes_no_relation_brackets(monkeypatch):
    # the relation families are evaluated once, by the `relations` check
    calls = []
    original = bracket_module.bracket_grouped

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quatlie" and getattr(module, "bracket_grouped", None) is original:
            monkeypatch.setattr(module, "bracket_grouped", counted)
    for type_label, rank in SIX_TYPES:
        closure_realization(type_label, rank)
    assert calls == []


def test_type_a2_cartan_action():
    h, e = (generator_matrices(chevalley_generators("A", 2), kind) for kind in "he")
    # [h1, e2] = c_21 e2 = -e2
    assert bracket(h[0], e[1]) == -e[1]


def test_nested_brackets_recover_matrix_units():
    # E_ij = [e_i, [e_{i+1}, ... [e_{j-2}, e_{j-1}]]] for i < j in sl(4)
    e = generator_matrices(chevalley_generators("A", 3), "e")

    def nested(i, j):
        acc = e[j - 1]
        for k in range(j - 2, i - 1, -1):
            acc = bracket(e[k], acc)
        return acc

    n = 4
    for i in range(n - 1):
        for j in range(i + 1, n):
            assert nested(i, j) == unit(n, i, j, Q_ONE)


def test_b2_realization_membership():
    gens = chevalley_generators("B", 2)
    n = gens.ambient_n
    assert n == 5
    # split-form symmetric matrix: S = E00 + sum(E_{p,l+p} + E_{l+p,p})
    s = unit_sum(
        n, [(0, 0, Q_ONE), (1, 3, Q_ONE), (3, 1, Q_ONE), (2, 4, Q_ONE), (4, 2, Q_ONE)]
    )
    for m in generator_matrices(gens):
        gram = _plain_transpose(m) @ s + s @ m
        assert gram.is_zero()


def test_c2_realization_membership():
    gens = chevalley_generators("C", 2)
    n = gens.ambient_n
    omega = unit_sum(
        n, [(0, 2, Q_ONE), (1, 3, Q_ONE), (2, 0, -Q_ONE), (3, 1, -Q_ONE)]
    )
    for m in generator_matrices(gens):
        gram = _plain_transpose(m) @ omega + omega @ m
        assert gram.is_zero()


def test_d3_realization_membership():
    gens = chevalley_generators("D", 3)
    n = gens.ambient_n
    s = unit_sum(
        n,
        [(p, 3 + p, Q_ONE) for p in range(3)] + [(3 + p, p, Q_ONE) for p in range(3)],
    )
    for m in generator_matrices(gens):
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
