import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from quatlie import serialize
from quatlie.cli import main
from quatlie.bracket import StructureConstants, structure_constants
from quatlie.errors import MalformedInputError
from quatlie.linalg import LinearSolver, span_of
from quatlie.matrices import QuatMatrix, flatten
from quatlie.realizations import build_named
from quatlie.scalars import format_rational, parse_rational

import oracles
from conftest import rand_qmatrix, rand_quat
from oracles import bracket_vec


def test_quaternion_round_trip(rng):
    # a matrix entry is the quaternion's four coordinates as rational strings
    for _ in range(30):
        q = rand_quat(rng)
        doc = oracles.matrix_to_json(flatten(QuatMatrix([[q]])), 1)
        assert doc["entries"] == [[[format_rational(v) for v in q.to_coords()]]]
        back = serialize.matrix_from_json(doc, 1, "test")
        assert QuatMatrix.unflatten(1, back) == QuatMatrix([[q]])


def test_quaternion_bad_length():
    with pytest.raises(MalformedInputError):
        serialize.matrix_from_json({"n": 1, "entries": [[["1", "2", "3"]]]}, 1, "test")


def test_quat_matrix_round_trip(rng):
    for _ in range(10):
        m = rand_qmatrix(rng, 3)
        doc = oracles.matrix_to_json(flatten(m), 3)
        assert doc["n"] == 3
        back = serialize.matrix_from_json(doc, 3, "test")
        assert back == flatten(m)
        assert QuatMatrix.unflatten(3, back) == m
    with pytest.raises(MalformedInputError):
        serialize.matrix_from_json(doc, 2, "test")


def test_constants_round_trip():
    sc = structure_constants(build_named("u_n", 2).basis, 2)
    doc = oracles.constants_to_json(sc)
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
    assert loaded.generators.rows["h"] == g.generators.rows["h"]
    for name in ("type_label", "rank", "ambient_n", "realization", "pos_roots", "root_vectors"):
        assert getattr(loaded, name) == getattr(g, name), name


@pytest.mark.parametrize(
    "type_label, rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3)]
)
def test_built_and_loaded_spans_are_the_basis_span(algebras, type_label, rank):
    # a build keeps its closure span, a load the echelon span of the file's
    # basis; both must be the span of the adapted basis rows
    g = algebras(type_label, rank)
    loaded = serialize.algebra_from_json(json.loads(serialize.algebra_to_json(g)))
    for algebra in (g, loaded):
        assert algebra.span.same_span(span_of(algebra.basis))
        assert algebra.span.rank == algebra.dim


def _value_types(g):
    """Types of every basis value, constant and coefficient of a few brackets."""
    types = {type(v) for row in g.basis for v in row.values()}
    types |= {type(c) for terms in g.constants.table.values() for _, c in terms}
    last = g.dim - 1
    solver = LinearSolver(g.basis)
    for i, j in ((0, last), (1, last // 2), (last // 3, last)):
        coeffs = solver.express(bracket_vec(g.basis[i], g.basis[j], g.ambient_n))
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
    doc = json.loads(serialize.algebra_to_json(g))
    assert _value_types(serialize.algebra_from_json(doc)) == {int}


@pytest.mark.parametrize(
    "type_label, rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3)]
)
def test_loader_requires_the_realization_ambient_n(algebras, type_label, rank):
    g = algebras(type_label, rank)
    doc = json.loads(serialize.algebra_to_json(g))
    assert serialize.algebra_from_json(doc).ambient_n == g.ambient_n
    doc["ambient_n"] = g.ambient_n + 1  # checked before any matrix is parsed
    with pytest.raises(MalformedInputError, match=f"ambient_n must be {g.ambient_n}"):
        serialize.algebra_from_json(doc)


def test_loader_rejects_a_coefficient_past_the_digit_limit(algebras):
    doc = json.loads(serialize.algebra_to_json(algebras("A", 1)))
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
    doc = json.loads(serialize.algebra_to_json(algebras("A", 1)))
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    with pytest.raises(MalformedInputError):
        serialize.algebra_from_json(doc)
    path = tmp_path / "bad.json"
    serialize.write_json(str(path), oracles.dumps(doc))
    assert main(["verify", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load algebra") and captured.err.count("\n") == 1


def test_algebra_dump_is_deterministic(algebras):
    g = algebras("A", 1)
    first = serialize.algebra_to_json(g)
    second = serialize.algebra_to_json(g)
    assert first == second
    assert first.endswith("\n")
    json.loads(first)  # valid JSON


RENDERED_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("C", 2), ("C", 3), ("D", 3)]


@pytest.mark.parametrize("type_label, rank", RENDERED_TYPES)
def test_rendered_file_is_the_reference_encoding(algebras, type_label, rank, tmp_path, capsys):
    # with the manifest `build` embeds, whose red failures (B2, C2, C3)
    # carry quotes and parentheses, and without one
    path = tmp_path / "algebra.json"
    main(["build", "--type", type_label, "--rank", str(rank), "--out", str(path)])
    capsys.readouterr()
    text = path.read_text()
    manifest = json.loads(text)["manifest"]
    g = algebras(type_label, rank)
    assert serialize.algebra_to_json(g, manifest) == oracles.dumps(oracles.algebra_doc(g, manifest))
    assert text == serialize.algebra_to_json(g, manifest)
    assert serialize.algebra_to_json(g) == oracles.dumps(oracles.algebra_doc(g))


def _fields_around(n, rows, constants):
    """What the renderer reads of an algebra, around given rows and table."""
    return SimpleNamespace(
        type_label="A",
        rank=1,
        realization="sl_n_H",
        ambient_n=n,
        dim=len(rows),
        cartan=SimpleNamespace(entries=((2,),)),
        basis=rows,
        constants=constants,
        generators=SimpleNamespace(rows={"h": rows[:1], "e": rows[1:2], "f": rows[2:3]}),
        pos_roots=[(1,)],
        weight_indices={(0,): tuple(range(len(rows)))},
        k_indices=tuple(range(len(rows))),
        hr_indices=(0,),
        hr_perp_indices=(),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_matrices_and_table_render_as_the_reference_encodes(rng, n):
    rows = [flatten(rand_qmatrix(rng, n)) for _ in range(8)] + [{}]
    values = [v for row in rows for v in row.values()]
    assert min(values) < 0 and any(type(v) is Fraction and v.denominator > 1 for v in values)
    assert any(0 < len(row) < 4 * n * n for row in rows)  # zeros beside nonzero coordinates
    # keys out of sorted order, and a Fraction coefficient among ints
    table = {(2, 5): ((0, Fraction(-3, 7)), (4, 2)), (0, 1): ((3, -1),), (0, 8): ((8, 1),)}
    g = _fields_around(n, rows, StructureConstants(dim=len(rows), table=table))
    assert serialize.algebra_to_json(g) == oracles.dumps(oracles.algebra_doc(g))


def test_algebra_from_json_rejects_wrong_kind():
    with pytest.raises(MalformedInputError):
        serialize.algebra_from_json({"kind": "something-else"})


# ---------------------------------------------------------------------------
# the column-wise structure-constant loader against the per-entry one
# ---------------------------------------------------------------------------


def reference_constants_from_json(data) -> StructureConstants:
    """The per-entry loader that the column-wise one replaced, less its
    cache of parsed strings: every check of an entry runs before the next
    entry is read."""
    dim = serialize._int(data["dim"], "structure constant dim")
    sc = StructureConstants(dim=dim)
    grouped: dict[tuple, dict] = {}
    what = "structure constant index"
    for entry in data["entries"]:
        if not isinstance(entry, list) or len(entry) != 4:
            raise MalformedInputError("structure constant entries must be [i, j, k, coeff]")
        i, j, k, coeff = entry
        i, j, k = serialize._int(i, what), serialize._int(j, what), serialize._int(k, what)
        if not i < j:
            raise MalformedInputError("structure constants must be stored with i < j")
        if not (0 <= i and j < dim and 0 <= k < dim):
            raise MalformedInputError(
                f"structure constant index out of range(dim={dim}): {[i, j, k]}"
            )
        value = parse_rational(coeff)
        terms = grouped.setdefault((i, j), {})
        if k in terms:
            raise MalformedInputError(f"structure constant entry {[i, j, k]} is repeated")
        terms[k] = value
    for key, terms in grouped.items():
        # zero coefficients dropped, and a key left with no term stores nothing
        nonzero = tuple((k, c) for k, c in terms.items() if c)
        if nonzero:
            sc.table[key] = nonzero
    return sc


LOADED_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3), ("A", 4), ("C", 3)]


def _same_table(loaded, reference):
    # same keys in the same order, each with the same terms in the same order
    assert loaded.dim == reference.dim
    assert list(loaded.table.items()) == list(reference.table.items())
    for (key, terms), (_, expected) in zip(loaded.table.items(), reference.table.items()):
        assert [type(c) for _, c in terms] == [type(c) for _, c in expected], key


@pytest.mark.parametrize("type_label, rank", LOADED_TYPES)
def test_loader_gives_the_reference_table(algebras, type_label, rank):
    built = algebras(type_label, rank).constants
    doc = oracles.constants_to_json(built)
    loaded = serialize.constants_from_json(doc)
    _same_table(loaded, reference_constants_from_json(doc))
    assert loaded.table == built.table
    # entries in any order, so that a key's terms are scattered through the file
    random.Random(rank).shuffle(doc["entries"])
    _same_table(serialize.constants_from_json(doc), reference_constants_from_json(doc))


def _a2_doc(algebras):
    doc = json.loads(serialize.algebra_to_json(algebras("A", 2)))
    assert doc["structure_constants"]["dim"] == 35
    return doc


def _at_middle(position, value):
    def edit(entries):
        entries[len(entries) // 2][position] = value

    return edit


def _repeat_entry(entries):
    entries.append(entries[3][:3] + ["7"])  # not adjacent to its first occurrence


def _replace_middle(entries):
    entries[len(entries) // 2] = "0 1 2 1"


# name -> edit of the A2 file's entries, or the value that replaces them
BULK_REFUSALS = {
    "negative-i": _at_middle(0, -1),
    "negative-k": _at_middle(2, -1),
    "j-is-dim": _at_middle(1, 35),
    "k-is-dim": _at_middle(2, 35),
    "repeat-not-adjacent": _repeat_entry,
    "bool-k": _at_middle(2, True),
    "non-list-after-valid-entries": _replace_middle,
    "float-coefficient": _at_middle(3, 1.5),
    "entries-a-string": "0 1 2 1",
    "entries-a-dict": {"0": [0, 1, 2, "1"]},
}


def _edited(doc, edit):
    if callable(edit):
        edit(doc["structure_constants"]["entries"])
    else:
        doc["structure_constants"]["entries"] = edit
    return doc


def _refusal(loader, data) -> str:
    with pytest.raises(MalformedInputError) as caught:
        loader(data)
    return str(caught.value)


def _verify_refuses(doc, tmp_path, capsys, message):
    path = tmp_path / "bad-table.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: cannot load algebra from {path}: {message}\n"


@pytest.mark.parametrize("case", BULK_REFUSALS)
def test_loader_refuses_as_the_reference_does(case, algebras, tmp_path, capsys):
    doc = _edited(_a2_doc(algebras), BULK_REFUSALS[case])
    table = doc["structure_constants"]
    message = _refusal(reference_constants_from_json, table)
    assert _refusal(serialize.constants_from_json, table) == message
    _verify_refuses(doc, tmp_path, capsys, message)


def test_loader_names_the_first_entry_at_fault(algebras):
    table = _a2_doc(algebras)["structure_constants"]
    entries = table["entries"]
    first, last = entries[5], entries[-1]
    first[2] = last[2] = 35
    assert _refusal(serialize.constants_from_json, table) == (
        f"structure constant index out of range(dim=35): {first[:3]}"
    )


def test_loader_checks_indices_before_coefficients(algebras, tmp_path, capsys):
    # two faults: the per-entry loader named the earlier entry's, the
    # column-wise one names the earlier check's (see its docstring)
    doc = _a2_doc(algebras)
    entries = doc["structure_constants"]["entries"]
    entries[0][3] = "1/0"
    entries[-1][2] = 35
    table = doc["structure_constants"]
    assert _refusal(reference_constants_from_json, table) == "not a rational string: '1/0'"
    message = f"structure constant index out of range(dim=35): {entries[-1][:3]}"
    assert _refusal(serialize.constants_from_json, table) == message
    _verify_refuses(doc, tmp_path, capsys, message)


def test_loader_reads_empty_entries_as_the_reference_does(algebras, tmp_path, capsys):
    # no entries is a well-formed table that says every bracket is zero;
    # the loader accepts it and the `structure` check turns it red
    doc = _edited(_a2_doc(algebras), [])
    table = doc["structure_constants"]
    _same_table(serialize.constants_from_json(table), reference_constants_from_json(table))
    assert serialize.constants_from_json(table).table == {}
    path = tmp_path / "empty-table.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(path), "--checks", "structure"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["structure"]


def test_loader_drops_a_zero_coefficient(algebras):
    table = _a2_doc(algebras)["structure_constants"]
    entries = table["entries"]
    without = serialize.constants_from_json(table)
    i, j = next(
        (i, j) for i in range(35) for j in range(i + 1, 35) if (i, j) not in without.table
    )
    entries.insert(len(entries) // 2, [i, j, 0, "0"])
    loaded = serialize.constants_from_json(table)
    _same_table(loaded, without)
    _same_table(loaded, reference_constants_from_json(table))


def test_loader_names_the_first_bad_coefficient(algebras):
    # distinct strings are parsed in first-occurrence order, so the message
    # is the per-entry loader's and does not depend on string hashing
    table = _a2_doc(algebras)["structure_constants"]
    entries = table["entries"]
    for pos, text in ((3, "3/x"), (len(entries) // 2, "two"), (-1, "1/0")):
        entries[pos][3] = text
    message = _refusal(reference_constants_from_json, table)
    assert message == "not a rational string: '3/x'"
    assert _refusal(serialize.constants_from_json, table) == message
