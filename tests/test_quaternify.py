import importlib
import json
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest

from quatlie.bracket import (
    StructureConstants,
    bracket,
    close_vecs,
    group_rows,
    left_unit_vec,
    sigma_parity,
    structure_constants,
    support_masks,
)
from quatlie.errors import CheckReport, StructuralFailureError
from quatlie.linalg import LinearSolver, SpanBasis, span_of
from quatlie.matrices import QuatMatrix, flatten
from quatlie.quaternify import (
    MEASURED,
    check_jacobi,
    check_root_spaces,
    check_structure,
    cell_weights,
    check_weight_additivity,
    close_generators,
    closure_realization,
    generating_set,
    k_structure,
    quaternify,
    quaternion_line,
    run_checks,
    sigma_grading_check,
    verify_relations,
    verify_serre,
    weight_decomposition,
    weight_spaces,
)
from quatlie.realizations import ChevalleyGenerators, build_named, chevalley_generators
from quatlie.rootsystem import cartan_matrix, positive_roots, weight_of
from quatlie.scalars import Q_I, Q_J, Q_K, Q_ONE
from quatlie.serialize import algebra_from_json, algebra_to_json

from oracles import (
    AugmentedSolver,
    ReductionSolver,
    apply_J,
    bracket_vec,
    close_matrices,
    closure_matrices,
    constants_by_express,
    generator_matrices,
    meeting_pairs,
    named_matrices,
    quat_transpose_mj,
    replace,
    unit,
    unit_sum,
)
from test_bracket import assert_sweep_matches_pairwise_kernel

# the modules, which the package's `quaternify` and `bracket` functions shadow
quaternify_module = importlib.import_module("quatlie.quaternify")
bracket_module = importlib.import_module("quatlie.bracket")

ALL_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3))


def _span(matrices, n):
    return span_of([flatten(m) for m in matrices])


def _positions_by_weight(hs, n):
    """Matrix positions (p, q) grouped by the weight of E_pq under real diagonal hs."""
    diagonals = [[h.entry(p, p).real for p in range(n)] for h in hs]
    positions = {}
    for p in range(n):
        for q in range(n):
            values = tuple(d[p] - d[q] for d in diagonals)
            positions.setdefault(values, []).append((p, q))
    return positions


def _weight_blocks(matrices, hs, n):
    """Weight spaces of an ad(h)-invariant span, read off matrix positions.

    For real diagonal h, [h, E_pq u] = (h_pp - h_qq) E_pq u, so the weight
    space of w is the projection of the span onto the positions of weight w.
    """
    blocks = {}
    for values, positions in _positions_by_weight(hs, n).items():
        projected = [
            unit_sum(n, [(p, q, m.entry(p, q)) for p, q in positions])
            for m in matrices
        ]
        block = _span(projected, n)
        if block.rank:
            blocks[values] = block
    return blocks


def _k_split(k_block, hs, n):
    """(dim k, dim [k, k], dim h_r + [k, k]) of a zero-weight block."""
    k = [QuatMatrix.unflatten(n, row) for row in k_block.rows]
    derived = [bracket(a, b) for a in k for b in k]
    return k_block.rank, _span(derived, n).rank, _span(derived + list(hs), n).rank


def _signed_root_weights(cartan):
    roots = positive_roots(cartan)
    return {weight_of(r, cartan) for r in (*roots, *(tuple(-c for c in r) for r in roots))}


@pytest.mark.parametrize("rank,expected", [(1, 15), (2, 35), (3, 63)])
def test_type_a_dimension_formula(algebras, rank, expected):
    assert algebras("A", rank).dim == 4 * (rank + 1) ** 2 - 1 == expected


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_type_a_zero_weight_dimension(algebras, rank):
    assert len(algebras("A", rank).k_indices) == 4 * rank + 3


def test_d3_builds_at_dimension_63(algebras):
    g = algebras("D", 3)
    assert g.dim == 63
    assert len(g.k_indices) == 15


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_relation_families_all_pass(algebras, type_label, rank):
    reports = verify_relations(algebras(type_label, rank))
    assert len(reports) == 16
    for report in reports:
        assert report.ok, (report.name, report.failures)
        assert report.instances_checked == rank * rank


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_serre_vanishing(algebras, type_label, rank):
    report = verify_serre(algebras(type_label, rank))
    assert report.ok, report.failures
    if rank == 1:
        assert report.instances_checked == 0  # vacuous at rank 1


def test_specific_relation_values(algebras):
    g = algebras("A", 2)
    h, e, f = (generator_matrices(g.generators, kind) for kind in "hef")
    jh, je, jf = ([apply_J(m) for m in mats] for mats in (h, e, f))
    # [Je_1, Jf_1] = -h_1
    assert bracket(je[0], jf[0]) == -h[0]
    # [Jh_1, Je_2] = -c_21 e_2 = e_2
    assert bracket(jh[0], je[1]) == e[1]
    # [h_1, Jh_1] = 0
    assert bracket(h[0], jh[0]).is_zero()


def test_serre_example_a2(algebras):
    g = algebras("A", 2)
    e = generator_matrices(g.generators, "e")
    je = [apply_J(m) for m in e]
    # (ad e_1)^2 (e_2) = 0 and (ad Je_1)^2 (e_2) = 0
    assert bracket(e[0], bracket(e[0], e[1])).is_zero()
    assert bracket(je[0], bracket(je[0], e[1])).is_zero()


# ---------------------------------------------------------------------------
# weight decomposition
# ---------------------------------------------------------------------------


def test_a2_weights(algebras):
    g = algebras("A", 2)
    nonzero = {w for w in g.weight_indices if any(w)}
    assert nonzero == {
        (2, -1), (-2, 1), (-1, 2), (1, -2), (1, 1), (-1, -1),
    }
    for values in nonzero:
        assert len(g.weight_indices[values]) == 4
    assert len(g.weight_indices[(0, 0)]) == 11
    assert 35 == 11 + 6 * 4


def test_a1_root_space_is_quaternion_line(algebras):
    g = algebras("A", 1)
    e1 = generator_matrices(g.generators, "e")[0]
    expected = SpanBasis()
    for m in (e1, e1.scale(Q_I), apply_J(e1), apply_J(e1.scale(Q_I))):
        expected.insert(flatten(m))
    block = SpanBasis()
    for idx in g.weight_indices[(2,)]:
        block.insert(g.basis[idx])
    assert block.same_span(expected)


@pytest.mark.parametrize("type_label,rank", [("A", 1), ("A", 2), ("A", 3), ("D", 3)])
def test_root_spaces_clean_types(algebras, type_label, rank):
    report = check_root_spaces(algebras(type_label, rank))
    assert report.ok, report.failures


@pytest.mark.parametrize("type_label", ["B", "C"])
def test_root_spaces_inflate_for_bc(algebras, type_label):
    # the sp(4,C) closure is all of sl(4,H), where each short root is the
    # weight of two matrix positions, so its space is the 8-dimensional span
    # of the units E_pq (x) {1, i, j, k} at those positions
    g = algebras(type_label, 2)
    n = g.ambient_n
    report = check_root_spaces(g)
    short = [(1, 0), (1, 1), (-1, 0), (-1, -1)]
    assert report.failures == [(coeffs, "dim", 8) for coeffs in short]
    assert g.reports["weights.spaces"].failures == report.failures
    assert span_of(g.basis).same_span(_span(named_matrices("sl_n_H", n), n))
    doubled = {
        values: positions
        for values, positions in _positions_by_weight(generator_matrices(g.generators, "h"), n).items()
        if len(positions) == 2
    }
    assert sorted(doubled) == sorted(weight_of(c, g.cartan) for c in short)
    for values, positions in doubled.items():
        units = [
            unit(n, p, q, u)
            for p, q in positions
            for u in (Q_ONE, Q_I, Q_J, Q_K)
        ]
        space = [g.basis[i] for i in g.weight_indices[values]]
        assert span_of(space).same_span(_span(units, n))


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_weight_additivity(algebras, type_label, rank):
    report = check_weight_additivity(algebras(type_label, rank))
    assert report.ok, report.failures[:5]


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_weight_blocks_cover_algebra(algebras, type_label, rank):
    g = algebras(type_label, rank)
    covered = sorted(i for idx in g.weight_indices.values() for i in idx)
    assert covered == list(range(g.dim))
    decomposition = weight_decomposition(g)
    assert sum(len(block) for block in decomposition.values()) == g.dim


# ---------------------------------------------------------------------------
# zero-weight structure
# ---------------------------------------------------------------------------


def _record_close_vecs(monkeypatch):
    """``(ops given, grading given, rank)`` of every ``close_vecs`` call that
    ``close_generators`` makes."""
    calls = []
    original = quaternify_module.close_vecs

    def recorded(generators, n, ops=None, cell_weight=None):
        span = original(generators, n, ops, cell_weight)
        calls.append((ops is not None, cell_weight is not None, span.rank))
        return span

    monkeypatch.setattr(quaternify_module, "close_vecs", recorded)
    return calls


# the defining B3 and D4 realizations, which no build closes in
DEFINING = {("B", 3), ("D", 4)}


@pytest.mark.parametrize(
    "type_label,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("C", 2), ("C", 3), ("C", 4), ("D", 3),
     ("B", 3), ("D", 4)],
)
def test_ad_closure_of_the_ef_lines_is_the_closure(type_label, rank, monkeypatch):
    if (type_label, rank) in DEFINING:
        gens = chevalley_generators(type_label, rank)
    else:
        gens, _ = closure_realization(type_label, rank)
    n = gens.ambient_n
    ef = generating_set(gens)[4 * rank :]  # the h lines come first
    by_ad = close_vecs(ef, n, ef)
    pairwise = close_vecs(generating_set(gens), n)
    assert by_ad.rows == pairwise.rows and by_ad.pivots == pairwise.pivots
    calls = _record_close_vecs(monkeypatch)
    assert close_generators(gens).rows == pairwise.rows
    # one graded closure under ad of the e/f lines, and no other
    assert calls == [(True, True, pairwise.rank)]


def test_closure_refuses_when_an_h_line_is_missing(monkeypatch):
    # e = f = E_12: the e/f lines bracket to zero, so h is not in <e, f>
    plain = unit(2, 0, 1, Q_ONE)
    h = unit_sum(2, [(0, 0, Q_ONE), (1, 1, -Q_ONE)])
    gens = ChevalleyGenerators(
        type_label="A", rank=1, ambient_n=2, cartan=cartan_matrix("A", 1),
        rows={"h": [flatten(h)], "e": [flatten(plain)], "f": [flatten(plain)]},
    )
    calls = _record_close_vecs(monkeypatch)
    with pytest.raises(StructuralFailureError, match=r"^h-line row 0 \(of h_1\) is not in the closure"):
        close_generators(gens)
    # A2 with h_2 = diag(1, 1, -1): the e/f lines close to sl(3, H), whose
    # matrices have real trace 0, so of the eight h-line rows only h_2
    # itself, row 4, is outside; i h_2, J h_2 and J(i h_2) are inside
    a2, _ = closure_realization("A", 2)
    h1, h2 = a2.rows["h"]
    a2 = replace(a2, rows={**a2.rows, "h": [h1, {**h2, 0: h2.get(0, 0) + 1}]})
    with pytest.raises(StructuralFailureError, match=r"^h-line row 4 \(of h_2\)"):
        close_generators(a2)
    assert calls == [(True, True, 4), (True, True, 35)]


def _graded_and_ungraded(seeds, n, ops, hs, monkeypatch):
    """``close_vecs(seeds, n, ops)`` graded by the h rows ``hs`` and
    ungraded, each with the number of brackets it computed."""
    counts = []
    original = bracket_module.bracket_grouped

    def counted(x, y, n):
        counts[-1] += 1
        return original(x, y, n)

    monkeypatch.setattr(bracket_module, "bracket_grouped", counted)
    spans = []
    for weights in (cell_weights(hs, n), None):
        counts.append(0)
        spans.append(close_vecs(seeds, n, ops, weights))
    return spans, counts


def _same_span(a, b):
    return a.rows == b.rows and a.pivots == b.pivots


CLOSURE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("C", 2), ("C", 3), ("C", 4), ("D", 3)]
# the defining B3 and D4 realizations, whose closures have non-root weights
GRADED_TYPES = [*((t, r, "closure") for t, r in CLOSURE_TYPES), ("B", 3, "defining"), ("D", 4, "defining")]


@pytest.mark.parametrize("type_label,rank,realization", GRADED_TYPES)
def test_graded_closure_equals_the_ungraded_one(type_label, rank, realization, monkeypatch):
    # the skip never changes the span, and on every type it skips brackets
    if realization == "closure":
        gens, _ = closure_realization(type_label, rank)
    else:
        gens = chevalley_generators(type_label, rank)
    n = gens.ambient_n
    ef = generating_set(gens)[4 * rank :]  # the h lines come first
    (graded, ungraded), (fewer, more) = _graded_and_ungraded(
        ef, n, ef, gens.rows["h"], monkeypatch
    )
    assert _same_span(graded, ungraded)
    assert graded.rank == 4 * n * n - 1  # all of sl(n, H)
    assert fewer < more


@pytest.mark.parametrize("type_label,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_graded_pairwise_closure_equals_the_ungraded_one(type_label, rank, monkeypatch):
    gens, _ = closure_realization(type_label, rank)
    (graded, ungraded), (fewer, more) = _graded_and_ungraded(
        generating_set(gens), gens.ambient_n, None, gens.rows["h"], monkeypatch
    )
    assert _same_span(graded, ungraded)
    assert fewer < more


@pytest.mark.parametrize("ops", ["pairwise", "ad"])
def test_graded_closure_with_an_inhomogeneous_generator(ops, monkeypatch):
    # e_1 + f_1 lies on cells of the weights alpha_1 and -alpha_1: no
    # bracket with it, or with any other row of two weights, is skipped
    gens, _ = closure_realization("A", 2)
    rows = gens.rows
    mixed = {**rows["e"][0], **rows["f"][0]}  # disjoint cells
    seeds = [*quaternion_line(mixed), *generating_set(gens)[8:]]
    (graded, ungraded), _ = _graded_and_ungraded(
        seeds, 3, seeds if ops == "ad" else None, rows["h"], monkeypatch
    )
    assert _same_span(graded, ungraded)
    assert graded.rank > 0


@pytest.mark.parametrize("type_label,rank,drops", [("A", 2, 56), ("B", 2, 172)])
def test_closure_drops_queued_brackets_of_a_filled_weight(type_label, rank, drops, monkeypatch):
    # a bracket queued before the accepted rows fill its weight is dropped
    # uncomputed when it is dequeued (A2: 56 of 128 queued, B2: 172 of
    # 448); each such bracket lies in the span, and every other queued
    # bracket is computed once
    gens, _ = closure_realization(type_label, rank)
    queued = []  # (op, grouped row, weight) of every queued bracket
    computed = []
    bracket_grouped = bracket_module.bracket_grouped

    class RecordedQueue(deque):
        def append(self, item):
            queued.append(item)
            super().append(item)

    def recorded(x, y, n):
        computed.append((x, y))
        return bracket_grouped(x, y, n)

    monkeypatch.setattr(bracket_module, "deque", RecordedQueue)
    monkeypatch.setattr(bracket_module, "bracket_grouped", recorded)
    span = close_generators(gens)
    taken = {(id(x), id(y)) for x, y in computed}
    dropped = [(x, y) for x, y, _ in queued if (id(x), id(y)) not in taken]
    assert len(dropped) == drops
    assert len(computed) == len(taken) == len(queued) - drops
    for x, y in dropped:
        assert span.contains(bracket_grouped(x, y, gens.ambient_n))


def test_graded_closure_with_a_zero_op(monkeypatch):
    # a zero op has no weight and no support: it is never skipped, and
    # never bracketed
    gens, _ = closure_realization("A", 2)
    ef = generating_set(gens)[8:]
    (graded, ungraded), (fewer, more) = _graded_and_ungraded(
        ef, 3, [{}, *ef, {}], gens.rows["h"], monkeypatch
    )
    (plain, _), (fewer_plain, _) = _graded_and_ungraded(ef, 3, ef, gens.rows["h"], monkeypatch)
    assert _same_span(graded, ungraded) and _same_span(graded, plain)
    assert fewer == fewer_plain < more


@pytest.mark.parametrize(
    "type_label,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("C", 2), ("D", 3), ("C", 3), ("C", 4), ("A", 6)],
)
def test_weight_blocks_are_reduced_echelon(type_label, rank):
    # each block is the closure rows of its weight as they are: the same
    # rows as the echelon basis of what they span
    gens, _ = closure_realization(type_label, rank)
    n = gens.ambient_n
    span = close_generators(gens)
    spaces = weight_spaces(span, gens.rows["h"], n)
    for values, rows in spaces.items():
        assert rows == span_of(rows).rows, values
    assert sum(map(len, spaces.values())) == span.rank


@pytest.mark.parametrize(
    "type_label,rank",
    [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3), ("A", 4), ("C", 3)],
)
def test_derived_span_is_the_span_of_every_pair_bracket(type_label, rank):
    # [k, k] read off the row sweep equals the span of the brackets of
    # every pair of the zero-weight closure rows, taken one pair at a time
    gens, _ = closure_realization(type_label, rank)
    n = gens.ambient_n
    spaces = weight_spaces(close_generators(gens), gens.rows["h"], n)
    k_rows = spaces[(0,) * rank]
    derived = quaternify_module._derived_span(k_rows, n)
    pairs = span_of(bracket_vec(a, b, n) for a, b in combinations(k_rows, 2))
    assert derived.rows == pairs.rows and derived.pivots == pairs.pivots
    assert 0 < derived.rank < len(k_rows)


@pytest.mark.parametrize("type_label,rank", [("A", 4), ("C", 3), ("A", 6)])
def test_constants_sweep_agrees_with_express_oracle(algebras, type_label, rank):
    # solving each bracket's unfiltered sums gives the table of filtered
    # brackets expressed one by one: the same items in the same order, all `int`
    g = algebras(type_label, rank)
    table = structure_constants(g.basis, g.ambient_n).table
    reference = constants_by_express(g.basis, g.ambient_n, LinearSolver(g.basis))
    assert list(table.items()) == list(reference.items())
    assert {type(c) for terms in table.values() for _, c in terms} == {int}


@pytest.mark.parametrize("type_label,rank", [("A", 1), ("A", 2), ("A", 3), ("D", 3)])
def test_k_structure_clean_types(algebras, type_label, rank):
    report = k_structure(algebras(type_label, rank))
    assert report.ok, report.failures
    assert report.detail["dim_k"] == report.detail["dim_hr"] + report.detail["dim_hr_perp"]


@pytest.mark.parametrize("type_label", ["B", "C"])
def test_k_structure_bc_misses_one_direction(algebras, type_label):
    report = k_structure(algebras(type_label, 2))
    assert not report.ok
    assert report.failures == ["k-direct-sum"]
    assert report.detail["dim_k"] == 15
    assert report.detail["dim_hr"] + report.detail["dim_hr_perp"] == 14


@pytest.mark.parametrize("type_label,rank", [*ALL_TYPES, ("A", 4), ("C", 3)])
def test_built_k_structure_equals_recomputation(algebras, type_label, rank):
    # the build runs the same `k_structure(g)` as `verify`, through the registry
    g = algebras(type_label, rank)
    assert g.reports["k-structure"] == k_structure(g)


def _k_structure_by_brackets(g):
    """The k-structure check on commutators of the basis rows of k, with
    [k, k] spanned in ambient coordinates: the reference."""
    n = g.ambient_n
    k = [g.basis[i] for i in g.k_indices]
    hr = [g.basis[i] for i in g.hr_indices]
    perp = [g.basis[i] for i in g.hr_perp_indices]
    derived = span_of([bracket_vec(a, b, n) for a in k for b in k])
    split = hr + perp
    checks = [
        ("hr-central-in-k", not any(bracket_vec(h, m, n) for h in hr for m in k)),
        ("hr-abelian", not any(bracket_vec(a, b, n) for a in hr for b in hr)),
        ("derived-k-equals-hr-perp", derived.same_span(span_of(perp))),
        ("k-direct-sum", span_of(split).rank == len(split) == len(k)),
    ]
    return CheckReport(
        "k-structure",
        len(checks),
        [name for name, ok in checks if not ok],
        {
            "dim_k": len(k),
            "dim_hr": len(hr),
            "dim_hr_perp": len(perp),
            "checks": checks,
        },
    )


def _loaded(g):
    return algebra_from_json(json.loads(algebra_to_json(g)))


# index sets a file could declare: a [k, k] short of one row, one that
# holds h_0, and an h_r that names rows of [k, k] (which do not commute
# from rank 2 on); between them they turn every sub-check red
K_SPLIT_VARIANTS = {
    "perp-short": lambda g: {"hr_perp_indices": g.hr_perp_indices[:-1]},
    "perp-holds-h0": lambda g: {"hr_perp_indices": (*g.hr_perp_indices, g.hr_indices[0])},
    "hr-in-derived": lambda g: {"hr_indices": g.hr_perp_indices[: len(g.hr_indices)]},
}


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_k_structure_read_off_the_table_agrees_with_brackets(algebras, type_label, rank):
    g = algebras(type_label, rank)
    for h in (g, _loaded(g)):
        assert k_structure(h) == _k_structure_by_brackets(h)
    for name, variant in K_SPLIT_VARIANTS.items():
        cut = replace(g, **variant(g))
        report = k_structure(cut)
        assert report == _k_structure_by_brackets(cut), name
        assert not report.ok, name


def _b2_defining_closure():
    """B2 generators in the 5x5 defining realization and the closure of
    {x, i x, J(i x)} over them."""
    gens = chevalley_generators("B", 2)
    seeds = []
    for m in generator_matrices(gens):
        seeds.extend([m, m.scale(Q_I), apply_J(m.scale(Q_I))])
    return gens, close_matrices(seeds)


def test_b2_defining_realization_closes_to_so_star_10():
    # The abstract names so*(2n) as the quaternification of so(n, C).  In the
    # 5x5 defining realization of so(5, C) the closure of {x, i x, J(i x)}
    # preserves the symmetric form S of the realization and has the
    # dimension of so*(10).  Under the Cartan of so(5, C) every root space is
    # 4-dimensional, four non-root weights occur once each, and the
    # zero-weight part k is one dimension larger than h_r + [k, k].
    gens, closure = _b2_defining_closure()
    n = gens.ambient_n
    assert closure.rank == build_named("so_star_2n", 5).dim == 45
    pairs = [(0, 0), (1, 3), (3, 1), (2, 4), (4, 2)]
    form = unit_sum(n, [(p, q, Q_ONE) for p, q in pairs])
    for m in closure_matrices(closure, n):
        assert (quat_transpose_mj(m) @ form + form @ m).is_zero()
    hs = generator_matrices(gens, "h")
    blocks = _weight_blocks(closure_matrices(closure, n), hs, n)
    roots = _signed_root_weights(gens.cartan)
    dims = {values: block.rank for values, block in blocks.items() if any(values)}
    assert {values: dims[values] for values in roots} == dict.fromkeys(roots, 4)
    assert sorted(d for values, d in dims.items() if values not in roots) == [1] * 4
    assert _k_split(blocks[(0, 0)], hs, n) == (9, 6, 8)


def test_weight_spaces_name_the_non_root_weights_of_so_star_10():
    # The so*(10) closure above is ad(h)-stable, but four of its weights are
    # not roots of B2: weight_spaces returns them as blocks of one row
    # each, and judging them against the roots is left to weights.spaces.
    gens, closure = _b2_defining_closure()
    roots = _signed_root_weights(gens.cartan)
    spaces = weight_spaces(closure, gens.rows["h"], gens.ambient_n)
    non_roots = {w: rows for w, rows in spaces.items() if any(w) and w not in roots}
    assert list(spaces)[0] == (0, 0) and len(spaces[(0, 0)]) == 9
    assert sorted(non_roots) == [(-4, 2), (0, -2), (0, 2), (4, -2)]
    assert [len(rows) for rows in non_roots.values()] == [1] * 4


def test_b2_built_from_its_defining_realization_reports_the_non_root_weights(monkeypatch):
    # All four quaternion lines of so(5, C) in its defining realization
    # close to sl(5, H).  The build does not raise on the four weights that
    # are not roots of B2: weights.spaces names them, a measured red fact.
    monkeypatch.setattr(
        quaternify_module,
        "closure_realization",
        lambda type_label, rank: (chevalley_generators(type_label, rank), "defining"),
    )
    g = quaternify("B", 2)
    assert g.dim == 99
    spaces = g.reports["weights.spaces"]
    assert spaces.failures[0] == ("weight-set", [(-4, 2), (0, -2), (0, 2), (4, -2)])
    assert [name for name, r in g.reports.items() if not r.ok and name not in MEASURED] == []


@pytest.mark.parametrize(
    "h", [{1: 1}, {4: 1}], ids=["i-times-E00", "off-diagonal-E01"]
)
def test_weight_spaces_reject_an_h_that_is_not_real_diagonal(h):
    gens, _ = closure_realization("A", 1)
    span = close_matrices(generator_matrices(gens))
    with pytest.raises(StructuralFailureError, match="real diagonal"):
        weight_spaces(span, [h], gens.ambient_n)


def test_weight_spaces_reject_a_span_that_ad_h_leaves():
    # E_01 + E_10 has weights 2 and -2 under diag(1, -1): its one echelon
    # row has two weights, so its span is not ad(h)-stable
    gens, _ = closure_realization("A", 1)
    span = span_of([{4: 1, 8: 1}])
    two_weights = r"echelon row 0 has weights \[\(-2,\), \(2,\)\]"
    with pytest.raises(StructuralFailureError, match=two_weights):
        weight_spaces(span, [gens.rows["h"][0]], gens.ambient_n)


@pytest.mark.parametrize(
    "type_label,rank,dim,root_dims,k_split",
    [
        ("A", 3, 63, [4] * 12, (15, 12, 15)),
        ("B", 2, 36, [3] * 4 + [4] * 4, (8, 6, 8)),
        ("C", 2, 36, [3] * 4 + [4] * 4, (8, 6, 8)),
    ],
)
def test_closure_without_j_of_i_images(type_label, rank, dim, root_dims, k_split):
    # Ablation of the generating set to {x, i x, J x}: A3 still closes to
    # sl(4, H); B2/C2 close at dim 36, where k = h_r + [k, k] holds but four
    # root spaces are 3-dimensional.
    gens, _ = closure_realization(type_label, rank)
    n = gens.ambient_n
    seeds = []
    for m in generator_matrices(gens):
        seeds.extend([m, m.scale(Q_I), apply_J(m)])
    closure = close_matrices(seeds)
    assert closure.rank == dim
    hs = generator_matrices(gens, "h")
    blocks = _weight_blocks(closure_matrices(closure, n), hs, n)
    roots = _signed_root_weights(gens.cartan)
    assert set(blocks) == roots | {(0,) * rank}
    assert sorted(blocks[values].rank for values in roots) == root_dims
    assert _k_split(blocks[(0,) * rank], hs, n) == k_split


def test_a2_hr_perp_matches_matrix_description(algebras):
    # zero-weight complement: i R E_pp for all p, plus J of the full
    # diagonal Cartan extended by C E_00
    g = algebras("A", 2)
    n = g.ambient_n
    blocks = [unit(n, p, p, Q_I) for p in range(n)]
    for m in generator_matrices(g.generators, "h"):
        blocks.append(apply_J(m))
        blocks.append(apply_J(m.scale(Q_I)))
    blocks.append(apply_J(unit(n, 0, 0, Q_ONE)))
    blocks.append(apply_J(unit(n, 0, 0, Q_I)))
    expected = SpanBasis()
    for m in blocks:
        expected.insert(flatten(m))
    actual = SpanBasis()
    for idx in g.hr_perp_indices:
        actual.insert(g.basis[idx])
    assert actual.same_span(expected)
    assert len(g.hr_perp_indices) == 9


def test_generating_bracket_hits_new_diagonal_direction(algebras):
    # [i*Jh_1, Jh_2] lies on the line through i*E_22; only span membership
    # is asserted, the sign is convention-dependent
    g = algebras("A", 2)
    h1, h2 = generator_matrices(g.generators, "h")
    result = bracket(apply_J(h1).scale(Q_I), apply_J(h2))
    assert not result.is_zero()
    target = unit(3, 1, 1, Q_I)
    from quatlie.linalg import SpanBasis

    line = SpanBasis()
    line.insert(flatten(target))
    assert line.contains(flatten(result))
    # and the closure indeed contains that direction
    assert span_of(g.basis).contains(flatten(target))


@pytest.mark.parametrize("rank", [1, 2])
def test_type_a_k_is_generated_by_cartan_part(algebras, rank):
    g = algebras("A", rank)
    seeds = []
    for h in generator_matrices(g.generators, "h"):
        hi = h.scale(Q_I)
        seeds.extend([h, hi, apply_J(h), apply_J(hi)])
    generated = close_matrices(seeds)
    k_span = SpanBasis()
    for idx in g.k_indices:
        k_span.insert(g.basis[idx])
    assert generated.same_span(k_span)


def test_hr_is_abelian_and_central_in_k(algebras):
    for type_label, rank in ALL_TYPES:
        g = algebras(type_label, rank)
        report = k_structure(g)
        checks = dict(report.detail["checks"])
        assert checks["hr-abelian"]
        assert checks["hr-central-in-k"]


# ---------------------------------------------------------------------------
# sigma grading
# ---------------------------------------------------------------------------


def _line_algebra(g, row):
    """``g`` cut down to the span of one row, which is bracket-closed."""
    return replace(
        g,
        basis=[row],
        span=span_of([row]),
        constants=StructureConstants(dim=1),
        weight_indices={},
        k_indices=(),
        hr_indices=(),
        hr_perp_indices=(),
    )


# e + J e is tau-stable but not sigma-stable, (1 + i) e the reverse
@pytest.mark.parametrize("unit,leaving", [(2, "sigma"), (1, "tau")])
def test_conjugations_reject_a_span_that_leaves(algebras, unit, leaving):
    g = algebras("A", 1)
    e = g.generators.rows["e"][0]
    row = {**e, **left_unit_vec(unit, e)}  # e is real, so the offsets are disjoint
    reports, _ = run_checks(_line_algebra(g, row), ["conjugations", "structure", "jacobi"])
    assert [(r.name, r.instances_checked, r.failures) for r in reports] == [
        ("conjugations", 2, [(0, leaving)]),
        ("structure", 0, []),
        ("jacobi", 0, []),
    ]


# ---------------------------------------------------------------------------
# the stored table against the basis
# ---------------------------------------------------------------------------


def _structure_by_solving(g):
    """The structure check as one solve per basis pair: the reference."""
    solver = LinearSolver(g.basis)
    failures = []
    checked = 0
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            checked += 1
            coeffs = solver.express(bracket_vec(g.basis[i], g.basis[j], g.ambient_n))
            if coeffs is None:
                failures.append((i, j, "outside-span"))
            elif coeffs != dict(g.constants.get(i, j)):
                failures.append((i, j, "table-mismatch"))
    return CheckReport("structure", checked, failures)


def _with_table(g, edit):
    """``g`` with a copy of its table that ``edit(table, g)`` has changed."""
    table = dict(g.constants.table)
    edit(table, g)
    return replace(g, constants=StructureConstants(dim=g.dim, table=table))


def _negate_a_coefficient(table, g):
    (i, j), terms = next(iter(table.items()))
    (k, c), *rest = terms
    table[(i, j)] = ((k, -c), *rest)


def _drop_an_entry(table, g):
    del table[next(iter(table))]


def _add_an_entry_on_a_commuting_pair(table, g):
    pair = next((i, j) for i in range(g.dim) for j in range(i + 1, g.dim) if (i, j) not in table)
    table[pair] = ((0, 1),)


def _add_an_entry_on_a_disjoint_pair(table, g):
    # a pair whose supports miss, which the structure sweep decides
    # without a bracket
    meeting = set(meeting_pairs(g.basis, g.ambient_n))
    pair = next(
        (i, j) for i in range(g.dim) for j in range(i + 1, g.dim) if (i, j) not in meeting
    )
    table[pair] = ((0, 1),)


def _retarget_a_k(table, g):
    (i, j), terms = next(iter(table.items()))
    (k, c), *rest = terms
    used = {m for m, _ in terms}
    target = next(m for m in range(g.dim) if m not in used)
    table[(i, j)] = ((target, c), *rest)


TABLE_EDITS = [
    _negate_a_coefficient,
    _drop_an_entry,
    _add_an_entry_on_a_commuting_pair,
    _add_an_entry_on_a_disjoint_pair,
    _retarget_a_k,
]


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
@pytest.mark.parametrize("edit", [None, *TABLE_EDITS])
def test_structure_expansion_agrees_with_a_solve_per_pair(algebras, type_label, rank, edit):
    g = algebras(type_label, rank)
    if edit is not None:
        g = _with_table(g, edit)
    report = check_structure(g)
    assert report == _structure_by_solving(g)
    assert report.instances_checked == g.dim * (g.dim - 1) // 2
    assert report.ok == (edit is None)


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
@pytest.mark.parametrize("edit", TABLE_EDITS)
def test_table_readers_rest_on_structure(algebras, type_label, rank, edit):
    # a copy starts with no reports, so the settled `structure` of the
    # build it was copied from does not vouch for the edited table
    g = _with_table(algebras(type_label, rank), edit)
    assert g.reports == {}
    unverified = [("structure", len(check_structure(g).failures))]
    for report in (
        check_jacobi(g),
        k_structure(g),
        sigma_grading_check(g),
        check_weight_additivity(g),
    ):
        assert report.failures == unverified, report.name
    assert k_structure(g).detail.keys() == {"dim_k", "dim_hr", "dim_hr_perp"}


@pytest.mark.parametrize("type_label,rank", [*ALL_TYPES, ("A", 4), ("C", 3)])
def test_pairs_whose_supports_miss_bracket_to_zero(algebras, type_label, rank):
    # the masks skip exactly the pairs whose unflattened matrices have no
    # column of one among the rows of the other; each such bracket is zero
    # and the built table holds no entry there
    g = algebras(type_label, rank)
    n = g.ambient_n
    masks = [support_masks(group_rows(row, n)) for row in g.basis]
    skipped = [
        (i, j)
        for i, j in combinations(range(g.dim), 2)
        if not (masks[i][1] & masks[j][0] or masks[j][1] & masks[i][0])
    ]
    meeting = meeting_pairs(g.basis, n)
    assert sorted(skipped + meeting) == list(combinations(range(g.dim), 2))
    assert skipped
    for i, j in skipped:
        assert bracket_vec(g.basis[i], g.basis[j], n) == {}, (i, j)
        assert (i, j) not in g.constants.table, (i, j)


@pytest.mark.parametrize("type_label,rank", [("A", 4), ("C", 3), ("A", 6)])
def test_constants_sweep_agrees_with_one_that_skips_nothing(algebras, type_label, rank):
    # every pair bracketed one at a time and solved by reduction with the
    # augmented echelon basis: the same items in the same order
    g = algebras(type_label, rank)
    n = g.ambient_n
    table = structure_constants(g.basis, n).table
    reference = constants_by_express(g.basis, n, ReductionSolver(g.basis, 4 * n * n))
    assert list(table.items()) == list(reference.items())
    assert list(table.items()) == list(g.constants.table.items())


# rows of each built basis that have no private column, the only ones the
# solver row-reduces; the others are read off their private column
ELIMINATED_ROWS = {
    ("A", 1): 0,
    ("A", 2): 0,
    ("A", 3): 1,
    ("B", 2): 2,
    ("C", 2): 2,
    ("D", 3): 1,
    ("A", 4): 2,
    ("C", 3): 4,
}


@pytest.mark.parametrize("type_label,rank", sorted(ELIMINATED_ROWS))
def test_solver_eliminates_only_rows_without_a_private_column(
    algebras, monkeypatch, type_label, rank
):
    g = algebras(type_label, rank)
    inserts = []
    insert = SpanBasis.insert
    monkeypatch.setattr(
        SpanBasis, "insert", lambda self, vec: inserts.append(vec) or insert(self, vec)
    )
    LinearSolver(g.basis)
    assert len(inserts) == ELIMINATED_ROWS[type_label, rank]


@pytest.mark.parametrize("type_label,rank", sorted(ELIMINATED_ROWS))
def test_constants_table_is_built_in_key_order(algebras, type_label, rank):
    g = algebras(type_label, rank)
    table = structure_constants(g.basis, g.ambient_n).table
    assert list(table) == sorted(table)
    for terms in table.values():
        ks = [k for k, _ in terms]
        assert ks == sorted(ks) and len(set(ks)) == len(ks)
    reference = constants_by_express(g.basis, g.ambient_n, AugmentedSolver(g.basis))
    assert table == reference


@pytest.mark.parametrize(
    "type_label,rank",
    [*ALL_TYPES, ("A", 4), ("C", 3), ("A", 6), ("C", 4)],
)
def test_sweep_on_built_bases_matches_the_pairwise_kernel(algebras, type_label, rank):
    g = algebras(type_label, rank)
    assert_sweep_matches_pairwise_kernel(g.basis, g.ambient_n)


def test_structure_names_a_bracket_outside_the_span(algebras):
    # the A1 root vectors without k: [e-block, f-block] lands in k, outside
    # the span; the table claims one bracket that is 0 in fact
    g = algebras("A", 1)
    rows = [g.basis[i] for i in range(g.dim) if i not in g.k_indices]
    cut = replace(
        _line_algebra(g, rows[0]),
        basis=rows,
        span=span_of(rows),
        constants=StructureConstants(dim=len(rows), table={(0, 1): ((2, 1),)}),
    )
    report = check_structure(cut)
    assert report == _structure_by_solving(cut)
    kinds = {kind for _, _, kind in report.failures}
    assert kinds == {"outside-span", "table-mismatch"}
    assert report.instances_checked == len(rows) * (len(rows) - 1) // 2


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_sigma_grading(algebras, type_label, rank):
    report = sigma_grading_check(algebras(type_label, rank))
    assert report.ok, report.failures[:5]
    assert report.detail["homogeneous"]


def test_grading_examples(algebras):
    g = algebras("A", 2)
    e = generator_matrices(g.generators, "e")
    assert sigma_parity(flatten(apply_J(e[0]))) == -1
    odd = bracket(e[0], apply_J(e[1]))
    assert not odd.is_zero() and sigma_parity(flatten(odd)) == -1
    even = bracket(apply_J(e[0]), apply_J(e[1]))
    assert not even.is_zero() and sigma_parity(flatten(even)) == 1


# ---------------------------------------------------------------------------
# support boundaries
# ---------------------------------------------------------------------------


def test_unsupported_ranks_rejected():
    with pytest.raises(ValueError):
        quaternify("B", 3)
    with pytest.raises(ValueError):
        quaternify("D", 4)
    with pytest.raises(ValueError):
        quaternify("E", 6)


def test_realization_tags(algebras):
    assert "sl(2,C)" in algebras("A", 1).realization
    assert "spin" in algebras("B", 2).realization
    assert "half-spin" in algebras("D", 3).realization


@pytest.mark.parametrize("type_label,rank", ALL_TYPES)
def test_weight_blocks_are_ad_h_eigenspaces(algebras, type_label, rank):
    # Oracle independent of the coordinate weights: [h_k, B] = w_k B, with
    # the bracket taken by quaternion matrix products.
    g = algebras(type_label, rank)
    for values, indices in g.weight_indices.items():
        for i in indices:
            b = QuatMatrix.unflatten(g.ambient_n, g.basis[i])
            for h, w in zip(generator_matrices(g.generators, "h"), values):
                assert bracket(h, b) == b.scale_rational(Fraction(w)), (values, i)


def test_weight_accessors(algebras):
    g = algebras("A", 1)
    space = [g.basis[i] for i in g.weight_indices[(2,)]]
    assert len(space) == 4
    assert all(m in g.basis for m in space)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def test_check_report_is_equal_by_type_and_fields():
    report = CheckReport("structure", 3, [(0, 1)])
    assert report == CheckReport("structure", 3, [(0, 1)], {})
    assert report != CheckReport("structure", 3, [])
    assert report != CheckReport("structure", 3, [(0, 1)], {"dim_k": 1})
    assert report != ("structure", 3, [(0, 1)], {})

    class Named(CheckReport):
        __slots__ = ()

    assert report != Named("structure", 3, [(0, 1)])
    assert repr(report) == (
        "CheckReport(name='structure', instances_checked=3, failures=[(0, 1)], detail={})"
    )
    # each report holds its own default detail
    other = CheckReport("structure", 3, [(0, 1)])
    other.detail["dim_k"] = 1
    assert report.detail == {}


def test_replace_rebuilds_the_root_data(algebras):
    g = algebras("A", 2)
    rebuilt = replace(g)
    assert rebuilt.pos_roots == g.pos_roots
    assert rebuilt.root_vectors == g.root_vectors
    assert rebuilt.root_vectors is not g.root_vectors and rebuilt.reports == {}
    wider = replace(g, generators=algebras("A", 3).generators)
    assert wider.pos_roots == algebras("A", 3).pos_roots
    assert len(wider.root_vectors) == 2 * 6
    # e_1 set to zero: its rows are derived again, and the root vector of
    # (1, 1) vanishes
    gens = g.generators
    cut = replace(gens, rows={**gens.rows, "e": [gens.rows["e"][0], {}]})
    assert cut.rows["e"][1] == {} and gens.rows["e"][1] != {}
    with pytest.raises(StructuralFailureError, match=r"root vector for \(1, 1\) vanished"):
        replace(g, generators=cut)
