import json

import pytest

from quatlie import serialize
from quatlie.cli import main
from quatlie.bracket import structure_constants
from quatlie.errors import MalformedInputError
from quatlie.matrices import QuatMatrix, flatten
from quatlie.realizations import build_named
from quatlie.scalars import format_rational

from conftest import rand_qmatrix, rand_quat
from oracles import bracket_vec


def test_quaternion_round_trip(rng):
    # a matrix entry is the quaternion's four coordinates as rational strings
    for _ in range(30):
        q = rand_quat(rng)
        doc = serialize.matrix_to_json(flatten(QuatMatrix([[q]])), 1)
        assert doc["entries"] == [[[format_rational(v) for v in q.to_coords()]]]
        back = serialize.matrix_from_json(doc, 1, "test")
        assert QuatMatrix.unflatten(1, back) == QuatMatrix([[q]])


def test_quaternion_bad_length():
    with pytest.raises(MalformedInputError):
        serialize.matrix_from_json({"n": 1, "entries": [[["1", "2", "3"]]]}, 1, "test")


def test_quat_matrix_round_trip(rng):
    for _ in range(10):
        m = rand_qmatrix(rng, 3)
        doc = serialize.matrix_to_json(flatten(m), 3)
        assert doc["n"] == 3
        back = serialize.matrix_from_json(doc, 3, "test")
        assert back == flatten(m)
        assert QuatMatrix.unflatten(3, back) == m
    with pytest.raises(MalformedInputError):
        serialize.matrix_from_json(doc, 2, "test")


def test_constants_round_trip():
    sc = structure_constants([flatten(m) for m in build_named("u_n", 2).basis], 2)
    doc = serialize.constants_to_json(sc)
    for entry in doc["entries"]:
        i, j, k, coeff = entry
        assert i < j and isinstance(coeff, str)
    back = serialize.constants_from_json(doc)
    assert back.dim == sc.dim and back.table == sc.table


def test_constants_reject_bad_order():
    with pytest.raises(MalformedInputError):
        serialize.constants_from_json({"dim": 2, "entries": [[1, 0, 0, "1"]]})


@pytest.mark.parametrize("type_label,rank", [("A", 1), ("A", 2), ("B", 2), ("D", 3)])
def test_algebra_file_round_trip(algebras, type_label, rank, tmp_path):
    # A1 has only simple roots; A2, B2 and D3 grow root vectors along the
    # root tree, B2 and D3 in a realization of another type
    g = algebras(type_label, rank)
    path = tmp_path / "algebra.json"
    serialize.write_json(str(path), serialize.algebra_to_json(g))
    loaded = serialize.algebra_from_json(serialize.read_json(str(path)))
    assert loaded.dim == g.dim
    assert loaded.basis == g.basis
    assert loaded.constants.table == g.constants.table
    assert loaded.weight_indices == g.weight_indices
    assert loaded.k_indices == g.k_indices
    assert loaded.cartan.entries == g.cartan.entries
    assert loaded.generators.h == g.generators.h
    for name in ("type_label", "rank", "ambient_n", "realization", "pos_roots", "root_vectors"):
        assert getattr(loaded, name) == getattr(g, name), name


def _value_types(g):
    """Types of every basis value, constant and coefficient of a few brackets."""
    types = {type(v) for row in g.basis for v in row.values()}
    types |= {type(c) for terms in g.constants.table.values() for _, c in terms}
    last = g.dim - 1
    for i, j in ((0, last), (1, last // 2), (last // 3, last)):
        coeffs = g.solver.express(bracket_vec(g.basis[i], g.basis[j], g.ambient_n))
        assert coeffs is not None
        types |= {type(c) for c in coeffs.values()}
    return types


@pytest.mark.parametrize(
    "type_label, rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3)]
)
def test_values_are_ints_built_and_loaded(algebras, type_label, rank):
    # every coordinate and structure constant of the six types is
    # integral, so none of them may be a Fraction, let alone a float
    g = algebras(type_label, rank)
    assert _value_types(g) == {int}
    doc = json.loads(serialize.dumps(serialize.algebra_to_json(g)))
    assert _value_types(serialize.algebra_from_json(doc)) == {int}


@pytest.mark.parametrize(
    "type_label, rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3)]
)
def test_loader_requires_the_realization_ambient_n(algebras, type_label, rank):
    g = algebras(type_label, rank)
    doc = serialize.algebra_to_json(g)
    assert serialize.algebra_from_json(doc).ambient_n == g.ambient_n
    doc["ambient_n"] = g.ambient_n + 1  # checked before any matrix is parsed
    with pytest.raises(MalformedInputError, match=f"ambient_n must be {g.ambient_n}"):
        serialize.algebra_from_json(doc)


def test_loader_rejects_a_coefficient_past_the_digit_limit(algebras):
    doc = serialize.algebra_to_json(algebras("A", 1))
    doc["structure_constants"]["entries"][0][3] = "1" * 5000
    with pytest.raises(MalformedInputError, match="not a rational string"):
        serialize.algebra_from_json(doc)


# field -> replacement value, or None to drop the field
WRONG_SHAPES = {
    "weight-not-an-object": ("weights", [5]),
    "generator-list-not-a-list": ("generators", {"h": 5}),
    "basis-matrix-not-an-object": ("basis", [5]),
    "k-indices-missing": ("k_indices", None),
}


@pytest.mark.parametrize("field, value", WRONG_SHAPES.values(), ids=WRONG_SHAPES)
def test_loader_refuses_a_field_of_the_wrong_shape(algebras, field, value, tmp_path, capsys):
    doc = serialize.algebra_to_json(algebras("A", 1))
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    with pytest.raises(MalformedInputError):
        serialize.algebra_from_json(doc)
    path = tmp_path / "bad.json"
    serialize.write_json(str(path), doc)
    assert main(["verify", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load algebra") and captured.err.count("\n") == 1


def test_algebra_dump_is_deterministic(algebras):
    g = algebras("A", 1)
    first = serialize.dumps(serialize.algebra_to_json(g))
    second = serialize.dumps(serialize.algebra_to_json(g))
    assert first == second
    assert first.endswith("\n")
    json.loads(first)  # valid JSON


def test_algebra_from_json_rejects_wrong_kind():
    with pytest.raises(MalformedInputError):
        serialize.algebra_from_json({"kind": "something-else"})
