"""Acceptance criteria, one test (or parametrized family) per criterion.

Each check prints a PASS/FAIL line; run with ``pytest -s`` to see them.

For B2 and C2 (the sp(4, C) realization) the bracket closure is all of
sl(4, H), the same span as A3.  Each short root, the short simple root
(1, 0) among them, is then the weight of two matrix positions, so its
weight space is 8-dimensional.  That is against the abstract's clause
that each fundamental root space is complex 2-dimensional, so criterion 7
stays red for B2 and C2 until a type B/C construction that follows the
paper replaces the realization.

Criterion 8 does not assert k = h_r + [k, k] for every type.  The
abstract names so*(2n) as the quaternification of so(n, C), and in the
defining realization of so(5, C) the so*(10) closure has a zero-weight
part k one dimension larger than h_r + [k, k]
(``test_quaternify.py::test_b2_defining_realization_closes_to_so_star_10``).
What criterion 8 asserts is that h_r is abelian and central in k, that
[k, k] = h_r-perp, and that the rest of k is the real diagonal
directions orthogonal to the coroots: none for A1, A2, A3 and D3, where
k = h_r + [k, k] exactly, and diag(1, -1, 1, -1) for B2 and C2.  The
build and verify reports keep k = h_r + [k, k] red for B2 and C2.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from quatlie import serialize
from quatlie.bracket import (
    bracket,
    check_conjugation_equivariance,
    close_under_bracket,
    jacobi_check,
)
from quatlie.cli import main as cli_main
from quatlie.freerep import verify_h_independence, verify_ideal_kernel
from quatlie.linalg import span_of
from quatlie.matrices import flatten
from quatlie.quaternify import (
    check_root_spaces,
    check_weight_additivity,
    k_structure,
    sigma_grading_check,
    verify_relations,
    verify_serre,
)
from quatlie.realizations import build_named, membership
from quatlie.rootsystem import cartan_matrix, custom_cartan
from quatlie.scalars import Q_I, Q_J, Q_K, Q_ONE, quat_mul

from conftest import ACCEPTANCE_TYPES, BUILD_SECONDS, rand_quat, rand_qmatrix
from oracles import (
    apply_J,
    close_matrices,
    closure_matrices,
    generator_matrices,
    is_sigma_submodule,
    mj_embed,
    mj_extract,
    named_matrices,
    unit,
    unit_sum,
)
from test_scalars import BASIS, oracle_mul


def report(number, label, ok=True, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: {status}{suffix}")
    return ok


def test_criterion_1_quaternion_core():
    start = time.monotonic()
    for x in BASIS:
        for y in BASIS:
            assert quat_mul(x, y) == oracle_mul(x, y)
    rng = random.Random(1001)
    for _ in range(1000):
        x, y = rand_quat(rng), rand_quat(rng)
        assert quat_mul(x, y) == oracle_mul(x, y)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    report(1, "quaternion core vs 4x4 oracle", detail=f"{elapsed:.2f}s")


def test_criterion_2_mj_isomorphism():
    start = time.monotonic()
    rng = random.Random(1002)
    for _ in range(100):
        x, y = rand_qmatrix(rng, 3), rand_qmatrix(rng, 3)
        assert mj_embed(x @ y) == mj_embed(x) @ mj_embed(y)
    for _ in range(100):
        x, y = rand_qmatrix(rng, 3), rand_qmatrix(rng, 3)
        assert bracket(x, y) == mj_extract(mj_embed(x).commutator(mj_embed(y)))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    report(2, "MJ embedding multiplicative + two-path bracket", detail=f"{elapsed:.2f}s")


def test_criterion_3_named_algebras():
    start = time.monotonic()
    formulas = {
        "sl_n_H": lambda n: 4 * n * n - 1,
        "so_star_2n": lambda n: n * (2 * n - 1),
        "sp_n": lambda n: n * (2 * n + 1),
    }
    for name, formula in formulas.items():
        for n in (2, 3, 4):
            algebra = build_named(name, n)
            assert algebra.dim == formula(n)
            assert close_under_bracket(algebra.basis, n).dim == algebra.dim
            assert is_sigma_submodule(named_matrices(name, n))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
    report(3, "named algebra dims, closure, conjugation invariance", detail=f"{elapsed:.2f}s")


def test_criterion_4_sl_closure_reproduction():
    start = time.monotonic()
    expected = {2: 15, 3: 35, 4: 63}
    for n, dim in expected.items():
        seed = named_matrices("sl_n_C", n)
        generators = list(seed) + [apply_J(m) for m in seed]
        result = close_matrices(generators)
        assert result.dim == dim
        assert all(membership("sl_n_H", n, row) for row in result.span.rows)
        target = build_named("sl_n_H", n)
        assert all(result.span.contains(row) for row in target.basis)
        # added directions beyond sl + J sl, sign-agnostic span membership
        assert result.span.contains(flatten(unit(n, 1, 1, Q_I)))
        for p in range(n - 1):
            for coeff in (Q_J, Q_K):  # J and i*J copies of E_pp + E_nn
                grown = unit_sum(
                    n, [(p, p, coeff), (n - 1, n - 1, coeff)]
                )
                assert result.span.contains(flatten(grown))
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 120s"
    report(4, "closure(sl + J sl) equals sl(n,H), n=2,3,4", detail=f"{elapsed:.2f}s")


def test_criterion_5_relation_suites(algebras):
    start = time.monotonic()
    for type_label, rank in ACCEPTANCE_TYPES:
        g = algebras(type_label, rank)
        reports = verify_relations(g)
        assert len(reports) == 16
        for rep in reports:
            assert rep.ok, (type_label, rank, rep.name, rep.failures[:3])
    check_time = time.monotonic() - start
    total = check_time + sum(BUILD_SECONDS.values())
    assert total < 120.0, f"took {total:.2f}s incl. builds, budget 120s"
    report(5, "16 relation families on all six algebras", detail=f"{total:.2f}s incl. builds")


def test_criterion_6_serre_vanishing(algebras):
    for type_label, rank in ACCEPTANCE_TYPES:
        rep = verify_serre(algebras(type_label, rank))
        assert rep.ok, (type_label, rank, rep.failures[:3])
    report(6, "Serre vanishing, all J-combinations")


@pytest.mark.parametrize("type_label,rank", ACCEPTANCE_TYPES)
def test_criterion_7_root_space_theorem(algebras, type_label, rank):
    g = algebras(type_label, rank)
    label = f"root spaces {type_label}{rank}"
    covered = sum(len(idx) for idx in g.weight_indices.values())
    assert covered == g.dim  # direct sum complete
    if (type_label, rank) == ("A", 2):
        assert g.dim == 35 and len(g.k_indices) == 11
        assert 35 == 11 + 6 * 4
    additive = check_weight_additivity(g)
    assert additive.ok, additive.failures[:5]
    spaces = check_root_spaces(g)
    ok = report(7, label, spaces.ok, detail="" if spaces.ok else str(spaces.failures[:4]))
    assert ok, (
        f"{type_label}{rank}: nonzero weight spaces must be 4-dimensional and "
        f"equal H x root vector; failures {spaces.failures[:4]}. For B2/C2 "
        "the sp(4,C) closure is all of sl(4,H), where each short root, the "
        "short simple root (1,0) among them, is the weight of two matrix "
        "positions, so its space is 8-dimensional."
    )


# Real diagonal directions of k outside h_r + [k, k]: the real traceless
# diagonals orthogonal to every coroot under the trace form.  The sp(4, C)
# coroots of B2/C2 span two of the three; A_l and D3 leave none.
K_COMPLETIONS = {("B", 2): [(1, -1, 1, -1)], ("C", 2): [(1, -1, 1, -1)]}


@pytest.mark.parametrize("type_label,rank", ACCEPTANCE_TYPES)
def test_criterion_8_k_lemma(algebras, type_label, rank):
    g = algebras(type_label, rank)
    label = f"k structure {type_label}{rank}"
    rep = k_structure(g)
    if type_label == "A":
        assert rep.detail["dim_k"] == 4 * rank + 3
    n = g.ambient_n
    diagonals = K_COMPLETIONS.get((type_label, rank), [])
    for diag in diagonals:
        for h in generator_matrices(g.generators, "h"):
            assert sum(h.entry(p, p).real * c for p, c in enumerate(diag)) == 0
    completions = [
        unit_sum(
            n, [(p, p, Q_ONE.scale(Fraction(c))) for p, c in enumerate(diag)]
        )
        for diag in diagonals
    ]
    split = [g.basis[i] for i in (*g.hr_indices, *g.hr_perp_indices)]
    split += [flatten(m) for m in completions]
    split_span = span_of(split, 4 * n * n)
    k_span = span_of([g.basis[i] for i in g.k_indices], 4 * n * n)
    fills = split_span.rank == len(split) and split_span.same_span(k_span)
    expected = ["k-direct-sum"] if completions else []
    ok = fills and rep.failures == expected
    detail = "" if rep.ok else f"k_structure {rep.failures}, completed by {diagonals}"
    report(8, label, ok, detail=detail)
    assert ok, (
        f"{type_label}{rank}: h_r must be abelian and central in k, [k,k] = "
        f"h_r-perp, and k = h_r + [k,k] + the real diagonals {diagonals}; "
        f"k_structure reported {rep.failures}, the completed split "
        f"{'fills' if fills else 'does not fill'} k."
    )
    assert g.reports["k-structure"].failures == expected


def test_criterion_9_rho_verification():
    start = time.monotonic()
    for type_label, rank in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2)):
        cm = cartan_matrix(type_label, rank)
        reports = verify_ideal_kernel(cm, 4)
        assert len(reports) == 16
        for rep in reports:
            assert rep.ok, (type_label, rank, rep.name, rep.failures[:2])
        indep = verify_h_independence(cm, 4)
        assert indep.ok and indep.rank_h == rank and indep.rank_jh == rank
    singular = custom_cartan([[2, -1], [-4, 2]])
    broken = verify_h_independence(singular, 2)
    assert not broken.ok and broken.rank_h == 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"
    report(9, "word-space kernel at degree 4 + h independence", detail=f"{elapsed:.2f}s")


def test_criterion_10_property_suites(algebras):
    for type_label, rank in ACCEPTANCE_TYPES:
        g = algebras(type_label, rank)
        jac = jacobi_check(g.constants)
        assert jac.ok
        if g.dim <= 40:
            assert jac.exhaustive
        else:
            assert jac.triples_checked >= 500
        equi = check_conjugation_equivariance(g.basis, g.ambient_n)
        assert equi.ok
        grading = sigma_grading_check(g)
        assert grading.ok and grading.detail["homogeneous"]
    # closure idempotence and generator-order independence over 5 shuffles
    seed = named_matrices("sl_n_C", 2)
    generators = list(seed) + [apply_J(m) for m in seed]
    reference = close_matrices(generators)
    assert close_matrices(closure_matrices(reference)).span.same_span(reference.span)
    rng = random.Random(555)
    for _ in range(5):
        shuffled = list(generators)
        rng.shuffle(shuffled)
        assert close_matrices(shuffled).dim == reference.dim
    report(10, "Jacobi, equivariance, grading, closure properties")


def test_criterion_11_cli_contract(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli_main(["build", "--type", "A", "--rank", "2", "--out", str(out_a)]) == 0
    assert cli_main(["build", "--type", "A", "--rank", "2", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert cli_main(["build", "--type", "Z", "--rank", "9", "--out", str(out_b)]) == 2
    assert cli_main(["verify", "--in", str(out_a)]) == 0
    doc = json.loads(out_a.read_text())
    entry = doc["structure_constants"]["entries"][0]
    entry[3] = serialize.format_rational(-serialize.parse_rational(entry[3]))
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["verify", "--in", str(mutated)]) == 1
    verdict = json.loads(capsys.readouterr().out)
    failing = [c for c in verdict["checks"] if not c["passed"]]
    assert failing, "mutation must be detected"
    i, j = entry[0], entry[1]
    assert any(
        f"({i}, {j}" in failure
        for check in failing
        for failure in check["failures"]
    ), "failing triple must be named"
    report(11, "CLI exit codes, determinism, mutation detection")
