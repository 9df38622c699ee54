import operator
from fractions import Fraction

import pytest

from quatlie.bracket import bracket
from quatlie.matrices import flatten
from quatlie.realizations import chevalley_generators
from quatlie.rootsystem import (
    cartan_matrix,
    custom_cartan,
    positive_roots,
    positive_roots_with_tree,
    simple_root,
    weight_of,
)

from oracles import EXCEPTIONAL_CARTAN, generator_matrices, weyl_orbit_roots


def coeff_set(roots):
    return set(roots)


def test_cartan_a1():
    assert cartan_matrix("A", 1).entries == ((2,),)


def test_cartan_a2():
    assert cartan_matrix("A", 2).entries == ((2, -1), (-1, 2))


def test_cartan_b2():
    # pinned so that [h_i, e_j] = c_ji e_j holds for the rank-2 generators
    assert cartan_matrix("B", 2).entries == ((2, -1), (-2, 2))


def test_cartan_c2():
    assert cartan_matrix("C", 2).entries == ((2, -1), (-2, 2))


def test_cartan_d3():
    assert cartan_matrix("D", 3).entries == (
        (2, -1, -1),
        (-1, 2, 0),
        (-1, 0, 2),
    )


def test_cartan_b3_c3_shapes():
    b3 = cartan_matrix("B", 3).entries
    assert b3 == ((2, -1, 0), (-2, 2, -1), (0, -1, 2))
    c3 = cartan_matrix("C", 3).entries
    assert c3 == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))


def test_invalid_types_and_ranks():
    with pytest.raises(ValueError):
        cartan_matrix("E", 6)
    with pytest.raises(ValueError):
        cartan_matrix("B", 1)
    with pytest.raises(ValueError):
        cartan_matrix("D", 2)


def test_custom_cartan_validation():
    with pytest.raises(ValueError):
        custom_cartan([[1, 0], [0, 2]])  # diagonal must be 2
    with pytest.raises(ValueError):
        custom_cartan([[2, 1], [-1, 2]])  # off-diagonal must be <= 0
    with pytest.raises(ValueError):
        custom_cartan([[2, 0], [-1, 2]])  # zero pattern must be symmetric
    with pytest.raises(ValueError, match="^Cartan matrix must be square$"):
        custom_cartan([[2, -1], []])  # every row's length before any cross index


# every defining realization within realizations.MAX_AMBIENT_N
DEFINING = (
    [("A", l) for l in range(1, 10)]
    + [("B", l) for l in range(2, 5)]
    + [("C", l) for l in range(2, 6)]
    + [("D", l) for l in range(3, 6)]
)


@pytest.mark.parametrize("type_label,rank", DEFINING)
def test_cartan_entries_are_read_off_the_defining_generators(type_label, rank):
    # [h_i, e_j] = c_ji e_j with the matrix bracket, so each type's off-diagonal
    # entries (D's fork above all) are held against its realization
    gens = chevalley_generators(type_label, rank)
    c = cartan_matrix(type_label, rank).entries
    for i, h in enumerate(generator_matrices(gens, "h")):
        for j, e in enumerate(generator_matrices(gens, "e")):
            image, row = flatten(bracket(h, e)), flatten(e)
            coeff = Fraction(image.get(min(row), 0), row[min(row)])
            assert image == {k: coeff * v for k, v in row.items() if coeff}, (i, j)
            assert coeff == c[j][i], (i, j)


# ---------------------------------------------------------------------------
# positive roots, cross-checked against hand enumerations
# ---------------------------------------------------------------------------

HAND_ENUMERATED = {
    ("A", 1): {(1,)},
    ("A", 2): {(1, 0), (0, 1), (1, 1)},
    ("A", 3): {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)},
    # B2 with the short root first: eps2, eps1-eps2, eps1, eps1+eps2
    ("B", 2): {(1, 0), (0, 1), (1, 1), (2, 1)},
    ("C", 2): {(1, 0), (0, 1), (1, 1), (2, 1)},
    ("D", 3): {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (1, 0, 1),
        (1, 1, 1),
    },
    # B3 short-first: eps3, eps2-eps3, eps1-eps2 as the simple roots
    ("B", 3): {
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (0, 1, 1), (1, 1, 1),
        (2, 1, 0), (2, 1, 1), (2, 2, 1),
    },
}


@pytest.mark.parametrize("key", sorted(HAND_ENUMERATED))
def test_positive_roots_match_hand_enumeration(key):
    type_label, rank = key
    roots = positive_roots(cartan_matrix(type_label, rank))
    assert coeff_set(roots) == HAND_ENUMERATED[key]


@pytest.mark.parametrize(
    "type_label,rank,count",
    [("A", 4, 10), ("B", 4, 16), ("C", 3, 9), ("C", 4, 16), ("D", 4, 12), ("D", 5, 20)],
)
def test_positive_root_counts(type_label, rank, count):
    assert len(positive_roots(cartan_matrix(type_label, rank))) == count


def test_roots_contain_simples_and_are_positive():
    cm = cartan_matrix("B", 3)
    roots = positive_roots(cm)
    for i in range(3):
        assert simple_root(cm, i) in roots
    for root in roots:
        assert all(c >= 0 for c in root)


def test_root_tree_parents_consistent():
    cm = cartan_matrix("A", 3)
    for node in positive_roots_with_tree(cm):
        if node.parent is None:
            assert sum(node.root) == 1
        else:
            parent = positive_roots_with_tree(cm)[node.parent].root
            grown = list(parent)
            grown[node.simple] += 1
            assert tuple(grown) == node.root


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_output_closed_under_string_condition(type_label, rank):
    cm = cartan_matrix(type_label, rank)
    roots = coeff_set(positive_roots(cm))
    for beta in roots:
        for i in range(rank):
            down = 0
            probe = list(beta)
            while True:
                probe[i] -= 1
                if tuple(probe) in roots:
                    down += 1
                else:
                    break
            grown = list(beta)
            grown[i] += 1
            should_grow = down - cm.pairing(beta, i) > 0
            assert (tuple(grown) in roots) == should_grow


@pytest.mark.parametrize(
    "type_label,rank",
    [("A", l) for l in range(1, 9)]
    + [(t, l) for t in "BC" for l in range(2, 9)]
    + [("D", l) for l in range(3, 9)],
)
def test_positive_roots_are_the_positive_weyl_orbit_of_the_simple_roots(type_label, rank):
    cm = cartan_matrix(type_label, rank)
    assert set(positive_roots(cm)) == weyl_orbit_roots(cm)


@pytest.mark.parametrize(
    "name,count", [("G2", 6), ("F4", 24), ("E6", 36), ("E7", 63), ("E8", 120)]
)
def test_exceptional_positive_roots_are_the_positive_weyl_orbit(name, count):
    cm = custom_cartan(EXCEPTIONAL_CARTAN[name])
    roots = positive_roots(cm)
    assert len(roots) == len(set(roots)) == count
    assert set(roots) == weyl_orbit_roots(cm)


def test_divergence_guard_on_affine_matrix():
    affine = custom_cartan([[2, -2], [-2, 2]])
    with pytest.raises(ValueError, match="finite"):
        positive_roots(affine)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_weight_of_simple_roots_a2():
    cm = cartan_matrix("A", 2)
    assert weight_of((1, 0), cm) == (2, -1)
    assert weight_of((-1, 0), cm) == (-2, 1)
    assert weight_of((1, 1), cm) == (1, 1)


def test_weight_linearity_on_roots():
    cm = cartan_matrix("B", 3)
    roots = coeff_set(positive_roots(cm))
    for r in roots:
        for s in roots:
            total = tuple(a + b for a, b in zip(r, s))
            if total in roots:
                ws = tuple(map(operator.add, weight_of(r, cm), weight_of(s, cm)))
                assert ws == weight_of(total, cm)


def test_roots_weights_and_cartan_matrices_are_values():
    cm = cartan_matrix("B", 2)
    assert cm == cartan_matrix("B", 2) and hash(cm) == hash(cartan_matrix("B", 2))
    assert cm != cartan_matrix("C", 2)
    # roots and weights are plain int tuples, the keys an algebra stores them under
    a, b = simple_root(cm, 0), simple_root(cm, 1)
    assert type(a) is tuple and a == (1, 0) and a != b
    assert {a: "short", b: "long"}[(0, 1)] == "long"
    assert type(weight_of(a, cm)) is tuple and weight_of(a, cm) == (2, -1)
