import contextlib
import functools
import hashlib
import importlib
import io
import json
import operator
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from quatlie import cli, freerep, realizations, rootsystem, serialize
from quatlie.cli import main
from quatlie.errors import MalformedInputError, StructuralFailureError
from quatlie.linalg import LinearSolver, span_of
from quatlie.matrices import QuatMatrix

from oracles import bracket_vec, meeting_pairs

# the modules, which the package's `quaternify` and `bracket` functions shadow
quaternify = importlib.import_module("quatlie.quaternify")
bracket = importlib.import_module("quatlie.bracket")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_build_writes_algebra_and_manifest(tmp_path, capsys):
    path = tmp_path / "a1.json"
    code, doc = run_json(capsys, "build", "--type", "A", "--rank", "1", "--out", str(path))
    assert code == 0
    assert doc["ok"] and doc["dim"] == 15 and doc["dim_k"] == 7
    assert "timings_ms" in doc
    stored = json.loads(path.read_text())
    assert stored["dim"] == 15
    assert stored["manifest"]["inputs"] == {"rank": 1, "type": "A"}
    assert "timings_ms" not in stored["manifest"]


def test_build_rank2_dimension(tmp_path, capsys):
    path = tmp_path / "a2.json"
    code, doc = run_json(capsys, "build", "--type", "A", "--rank", "2", "--out", str(path))
    assert code == 0 and doc["dim"] == 35


@pytest.mark.parametrize(
    "type_label,rank", [("Z", "9"), ("E", "6"), ("B", "3"), ("D", "4"), ("A", "12")]
)
def test_build_usage_error(type_label, rank, tmp_path, capsys):
    # unknown types, B/D ranks without a closure realization and a rank
    # beyond the ambient cap are all rejected by the one realization decision
    code = main(["build", "--type", type_label, "--rank", rank, "--out", str(tmp_path / "z.json")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("type_label,rank,n", [("A", 300, 301), ("C", 6, 12)])
def test_build_beyond_the_cap_builds_no_matrix(type_label, rank, n, tmp_path, monkeypatch, capsys):
    # the cap is read off type and rank alone: before it was checked only
    # after every generator matrix was built (A300: 4.85 s and 656 MB)
    calls = []
    init = QuatMatrix.__init__

    def counted(self, rows):
        calls.append(1)
        init(self, rows)

    monkeypatch.setattr(QuatMatrix, "__init__", counted)
    out = tmp_path / "x.json"
    assert main(["build", "--type", type_label, "--rank", str(rank), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"error: {type_label}{rank} needs ambient n={n}, beyond the supported cap\n"
    )
    assert calls == []


def test_build_byte_deterministic(tmp_path, capsys):
    first = tmp_path / "x.json"
    second = tmp_path / "y.json"
    assert main(["build", "--type", "A", "--rank", "1", "--out", str(first)]) == 0
    assert main(["build", "--type", "A", "--rank", "1", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


# SHA-256 of the algebra file `quatlie build` writes for each type; any
# change to the closure, the basis, the constants or the embedded
# manifest changes these digests.  A4 and C3 add larger n, where the
# weight decomposition has the most rows to split; C3, like B2 and C2,
# builds with its root-space check red (exit 1)
ARTIFACT_SHA256 = {
    ("A", 1): "b95a9f2e66b02d88a93b7fde304d5c56eb38e0e2c1607c1de4a3d94b98f4a330",
    ("A", 2): "0ea6175c908d3032ce45c180ea2c01e920f6fd0ed07f983104cb71dab1110828",
    ("A", 3): "40628abda9f4ce3b45be027524b78d8f12eead32c0f20ce66ddcbdd819a461d6",
    ("A", 4): "1d2321e8494ce85a437578aaa48c9668b73ea7b7ab268a7bd09a043e1457e04a",
    ("B", 2): "9967822b1c3a3744b7e409c7b3ef0ae78effac4d9c09432fe920466bc6842504",
    ("C", 2): "728b61701a2df0ae796ad87037e3212e45b7195432a6a0f2791ba8ee36a7e2bf",
    ("C", 3): "c3be751284a9de305ff346f17fba033779e4515378f1bca62ae13058d7b6822f",
    ("D", 3): "54c35dae8784bbd4366ce699db9031f57496f71970318e61ab4b339669bbc334",
}


@pytest.mark.parametrize("type_label,rank", sorted(ARTIFACT_SHA256))
def test_build_artifact_sha256_pinned(type_label, rank, tmp_path, capsys):
    path = tmp_path / f"{type_label}{rank}.json"
    code = main(["build", "--type", type_label, "--rank", str(rank), "--out", str(path)])
    capsys.readouterr()
    assert code == (1 if type_label in "BC" else 0)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == ARTIFACT_SHA256[(type_label, rank)]


@pytest.fixture(scope="module")
def a2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "a2.json"
    assert main(["build", "--type", "A", "--rank", "2", "--out", str(path)]) == 0
    return path


def test_verify_all_checks_pass(a2_file, capsys):
    code, doc = run_json(capsys, "verify", "--in", str(a2_file))
    assert code == 0 and doc["ok"]
    names = {c["name"] for c in doc["checks"]}
    assert {"serre", "jacobi", "structure", "conjugations", "grading", "k-structure"} <= names
    assert any(n.startswith("relations.") for n in names)
    assert any(n.startswith("weights.") for n in names)


def test_verify_selected_checks(a2_file, capsys):
    code, doc = run_json(capsys, "verify", "--in", str(a2_file), "--checks", "relations")
    assert code == 0
    assert all(c["name"].startswith("relations.") for c in doc["checks"])


def test_verify_unknown_check(a2_file, capsys):
    assert main(["verify", "--in", str(a2_file), "--checks", "nonsense"]) == 2


@pytest.mark.parametrize(
    "checks,named", [("jacobi,jacobi", "jacobi"), ("weights,serre,weights", "weights")]
)
def test_verify_repeated_check(a2_file, checks, named, capsys):
    assert main(["verify", "--in", str(a2_file), "--checks", checks]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: check {named!r} is named more than once\n"


def test_verify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--in", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["verify", "--in", str(missing)]) == 2


def test_verify_detects_structure_constant_mutation(a2_file, tmp_path, capsys):
    doc = json.loads(a2_file.read_text())
    entry = doc["structure_constants"]["entries"][0]
    entry[3] = serialize.format_rational(-serialize.parse_rational(entry[3]))
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", "--in", str(mutated))
    assert code == 1
    report = json.loads(out)
    assert not report["ok"]
    failing = [c for c in report["checks"] if not c["passed"]]
    assert failing
    # the failing triple is named in at least one failure payload
    i, j = entry[0], entry[1]
    assert any(
        f"({i}, {j}" in failure
        for check in failing
        for failure in check["failures"]
    )


def _drop_weight_block(doc):
    doc["weights"].pop()


def _sc_index_past_dim(doc):
    doc["structure_constants"]["entries"][0][2] = doc["dim"]


def _k_index_past_dim(doc):
    doc["k_indices"][0] = doc["dim"]


def _non_rational_coefficient(doc):
    doc["structure_constants"]["entries"][0][3] = "x/y"


def _cartan_of_wrong_rank(doc):
    doc["cartan"] = [[2]]


def _zero_generator(doc):
    for row in doc["generators"]["e"][0]["entries"]:
        for entry in row:
            entry[:] = ["0", "0", "0", "0"]


def _int_zero_coordinate(doc):
    # an int 0 is as falsy as the string "0" but is not a rational string
    entry = next(
        entry for row in doc["basis"][0]["entries"] for entry in row if "0" in entry
    )
    entry[entry.index("0")] = 0


def _top_level_array(doc):
    return [doc]


def _float_k_index(doc):
    doc["k_indices"][0] = float(doc["k_indices"][0])


def _bool_k_index(doc):
    doc["k_indices"][1] = True  # equal to 1 in Python, but not an index


def _float_weight_index(doc):
    doc["weights"][0]["indices"][0] = float(doc["weights"][0]["indices"][0])


def _float_sc_i(doc):
    entry = doc["structure_constants"]["entries"][0]
    entry[0] = float(entry[0])


def _float_sc_k(doc):
    entry = doc["structure_constants"]["entries"][0]
    entry[2] = float(entry[2])


def _three_element_sc_entry(doc):
    doc["structure_constants"]["entries"][0].pop()


def _float_rank(doc):
    doc["rank"] = float(doc["rank"])


def _float_ambient_n(doc):
    doc["ambient_n"] = float(doc["ambient_n"])


def _unknown_type(doc):
    doc["type"] = "Z"


def _list_type(doc):
    doc["type"] = ["x"]


def _cartan_of_another_type(doc):
    doc["cartan"] = [[2, -1], [-2, 2]]  # B2's, in an A2 file


def _changed_positive_roots(doc):
    doc["positive_roots"] = [[7, 7]]


def _float_positive_root(doc):
    doc["positive_roots"][0][0] = float(doc["positive_roots"][0][0])


def _other_realization(doc):
    doc["realization"] = "x"


@pytest.mark.parametrize(
    "mutate",
    [
        _sc_index_past_dim,
        _k_index_past_dim,
        _drop_weight_block,
        _non_rational_coefficient,
        _cartan_of_wrong_rank,
        _zero_generator,
        _int_zero_coordinate,
        _top_level_array,
        _float_k_index,
        _bool_k_index,
        _float_weight_index,
        _float_sc_i,
        _float_sc_k,
        _three_element_sc_entry,
        _float_rank,
        _float_ambient_n,
        _unknown_type,
        _list_type,
        _cartan_of_another_type,
        _changed_positive_roots,
        _float_positive_root,
        _other_realization,
    ],
)
def test_verify_rejects_malformed_artifact(mutate, a2_file, tmp_path, capsys):
    doc = json.loads(a2_file.read_text())
    doc = mutate(doc) or doc
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load algebra") and captured.err.count("\n") == 1


def _counted_root_trees(monkeypatch) -> list:
    """A list that gets one entry per ``positive_roots_with_tree`` call made
    through any binding of it in the package from now on."""
    calls = []
    original = rootsystem.positive_roots_with_tree

    def counted(cm):
        calls.append(cm.rank)
        return original(cm)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "quatlie":
            continue
        if getattr(module, "positive_roots_with_tree", None) is original:
            monkeypatch.setattr(module, "positive_roots_with_tree", counted)
    return calls


def test_build_grows_one_positive_root_tree(tmp_path, monkeypatch):
    calls = _counted_root_trees(monkeypatch)
    assert main(["build", "--type", "A", "--rank", "2", "--out", str(tmp_path / "a2.json")]) == 0
    assert calls == [2]


def test_verify_reports_a_non_root_weight_in_weights_spaces(a2_file, tmp_path, capsys):
    # the loader keeps the declared weight labels as they are; weights.spaces
    # is what compares them with the signed roots
    doc = json.loads(a2_file.read_text())
    (block,) = [item for item in doc["weights"] if item["weight"] == [1, 1]]
    block["weight"] = [3, 3]
    path = tmp_path / "a2_non_root.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "verify", "--in", str(path))
    assert code == 1
    red = {c["name"]: c["failures"] for c in out["checks"] if not c["passed"]}
    assert set(red) == {"weights.spaces", "weights.additivity"}
    assert red["weights.spaces"][0] == "('weight-set', [(1, 1), (3, 3)])"


def test_verify_names_swapped_root_blocks_in_weights_spaces(a2_file, tmp_path, capsys):
    # alpha_1 = (1, 0) has the weight (2, -1) and alpha_2 = (0, 1) the weight
    # (-1, 2); with their index tuples swapped each block is four
    # dimensional and lies in the other root's quaternion line
    doc = json.loads(a2_file.read_text())
    blocks = {tuple(item["weight"]): item for item in doc["weights"]}
    first, second = blocks[(2, -1)], blocks[(-1, 2)]
    first["indices"], second["indices"] = second["indices"], first["indices"]
    path = tmp_path / "a2_swapped.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "verify", "--in", str(path), "--checks", "weights")
    assert code == 1
    red = {c["name"]: c["failures"] for c in out["checks"] if not c["passed"]}
    assert red["weights.spaces"] == ["((1, 0), 'span-mismatch')", "((0, 1), 'span-mismatch')"]


def test_verify_rejects_a_rank_beyond_the_cap_first(a2_file, tmp_path, monkeypatch, capsys):
    # an A2 file that declares A120 with A120's Cartan matrix and label:
    # generating A120's 7,260 positive roots first took 12.6 s
    calls = _counted_root_trees(monkeypatch)
    assert main(["verify", "--in", str(a2_file), "--checks", "serre"]) == 0
    assert calls == [2]
    doc = json.loads(a2_file.read_text())
    doc["rank"] = 120
    doc["cartan"] = [list(row) for row in rootsystem.cartan_matrix("A", 120).entries]
    doc["realization"] = "sl(121,C) in gl(121,H)"
    path = tmp_path / "a120.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: cannot load algebra")
    assert captured.err.endswith("A120 needs ambient n=121, beyond the supported cap\n")
    assert calls == [2]


def _leaf_paths(node, path=()):
    """Key paths to every scalar and every empty list of a JSON document."""
    if isinstance(node, dict):
        return [p for key, value in node.items() for p in _leaf_paths(value, (*path, key))]
    if isinstance(node, list) and node:
        return [p for i, value in enumerate(node) for p in _leaf_paths(value, (*path, i))]
    return [path]


def _mutated_copy(a2_file, data, keys, leaf_filter, new_value):
    """The A2 document with one drawn leaf under one of ``keys`` replaced.

    The top-level key is drawn first, so small fields such as ``rank``
    are as likely to be hit as the large basis table.
    """
    doc = json.loads(a2_file.read_text())
    key = data.draw(st.sampled_from(keys))
    leaves = [p for p in _leaf_paths(doc[key], (key,)) if leaf_filter(_lookup(doc, p))]
    leaf = data.draw(st.sampled_from(leaves))
    _lookup(doc, leaf[:-1])[leaf[-1]] = data.draw(new_value(_lookup(doc, leaf)))
    path = a2_file.parent / "mutated-leaf.json"
    path.write_text(json.dumps(doc))
    return path


def _lookup(doc, path):
    return functools.reduce(operator.getitem, path, doc)


def _verify_quietly(path):
    """Exit code, stdout and stderr of `verify` on a file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--in", str(path)])
    return code, out.getvalue(), err.getvalue()


JSON_LEAVES = st.one_of(
    st.integers(-1, 40),
    st.integers(-1, 40).map(float),  # equal to an int, but not an int
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(-1, 3), max_size=3),
)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_never_raises_on_a_mutated_leaf(a2_file, data):
    doc = json.loads(a2_file.read_text())
    path = _mutated_copy(a2_file, data, sorted(doc), lambda v: True, lambda v: JSON_LEAVES)
    code, _, err = _verify_quietly(path)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.count("\n") == 1, err


RETYPED_VALUES = (None, True, 1.5, "x", [], {}, [[]])
DELETED = object()


def _retyped_fields(doc):
    """(path of the container, key) of every field the retyping sweep edits:
    each top-level field, each Cartan row, and the first element of each
    short list, of the table's entries, of the basis and of the e
    generators, and of the first basis and e generator matrix."""
    yield from (((), key) for key in doc)
    yield from ((("cartan",), r) for r in range(len(doc["cartan"])))
    firsts = [
        ("weights",),
        ("positive_roots",),
        ("k_indices",),
        ("hr_indices",),
        ("hr_perp_indices",),
        ("structure_constants", "entries"),
        ("basis",),
        ("basis", 0, "entries"),
        ("generators", "e"),
        ("generators", "e", 0, "entries"),
    ]
    yield from ((where, 0) for where in firsts)


def test_verify_never_raises_on_a_retyped_field(a2_file, tmp_path):
    # a Cartan row of [] or {} once escaped the loader as an IndexError
    text = a2_file.read_text()
    path = tmp_path / "retyped.json"
    edits = 0
    for where, key in _retyped_fields(json.loads(text)):
        for value in (*RETYPED_VALUES, DELETED):
            doc = json.loads(text)
            container = _lookup(doc, where)
            if value is DELETED:
                del container[key]
            else:
                container[key] = value
            path.write_text(json.dumps(doc))
            code, _, err = _verify_quietly(path)
            assert code in (0, 1, 2), (where, key, value)
            if code == 2:
                assert err.count("\n") == 1, err
            edits += 1
    assert edits == (17 + 2 + 10) * 8


def _other_rational(text):
    old = serialize.parse_rational(text)
    new = st.fractions(-4, 4, max_denominator=5).filter(lambda x: x != old)
    return new.map(serialize.format_rational)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_fails_on_a_changed_coefficient(a2_file, data):
    keys = ["basis", "structure_constants"]
    path = _mutated_copy(a2_file, data, keys, lambda v: isinstance(v, str), _other_rational)
    code, out, _ = _verify_quietly(path)
    assert code in (1, 2)
    table = json.loads(path.read_text())["structure_constants"]
    if table != json.loads(a2_file.read_text())["structure_constants"]:
        assert code == 1
        red = {c["name"] for c in json.loads(out)["checks"] if not c["passed"]}
        assert {"structure", "jacobi"} <= red


def _changed_constant(a2_file, tmp_path):
    """The A2 file with the coefficient of its first table entry negated."""
    doc = json.loads(a2_file.read_text())
    entry = doc["structure_constants"]["entries"][0]
    entry[3] = serialize.format_rational(-serialize.parse_rational(entry[3]))
    path = tmp_path / "changed-constant.json"
    path.write_text(json.dumps(doc))
    return path


# check -> the report of it that reads the stored table
TABLE_READERS = {
    "jacobi": "jacobi",
    "k-structure": "k-structure",
    "grading": "grading",
    "weights": "weights.additivity",
}


@pytest.mark.parametrize("check", TABLE_READERS)
def test_verify_jacobi_alone_runs_structure(a2_file, tmp_path, check, capsys):
    # each check that reads the table runs `structure` when it is not
    # selected, and is red through it alone on a changed coefficient
    path = _changed_constant(a2_file, tmp_path)
    code, doc = run_json(capsys, "verify", "--in", str(path), "--checks", check)
    assert code == 1
    red = [(c["name"], c["failures"]) for c in doc["checks"] if not c["passed"]]
    assert red == [(TABLE_READERS[check], ["('structure', 1)"])]
    if check == "jacobi":
        assert doc["checks"] == [
            {"name": "jacobi", "passed": False, "instances": 6545, "failures": ["('structure', 1)"]}
        ]
    checks = f"relations,serre,{check}"
    code, doc = run_json(capsys, "verify", "--in", str(a2_file), "--checks", checks)
    assert code == 0 and doc["checks"][-1]["name"] == TABLE_READERS[check]


def _stored_basis(path):
    """The basis rows of an algebra file and their matrix size."""
    algebra = serialize.algebra_from_json(json.loads(path.read_text()))
    return algebra.basis, algebra.ambient_n


# A2: 358 of the 595 basis pairs have a column of one row among the
# matrix rows of the other; the bracket of each other pair has no term
A2_MEETING_PAIRS = 358


KERNEL = ("group_rows", "bracket_terms", "bracket_grouped")


def _count_kernel_calls(monkeypatch, counts, refuse=()):
    """Count each call of the ``KERNEL`` functions into ``counts`` by name,
    wherever the bracket and quaternify modules call them; a call made
    while ``refuse`` is non-empty fails the test."""
    for module in (bracket, quaternify):
        for name in KERNEL:
            if not hasattr(module, name):
                continue

            def counted(*args, _fn=getattr(module, name), _name=name):
                counts[_name] += 1
                if refuse:
                    raise AssertionError(f"{refuse[-1]} called {_name}")
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "checks", ["structure,jacobi,conjugations", "jacobi,structure,conjugations", "conjugations,jacobi"]
)
def test_verify_brackets_each_meeting_basis_pair_once(a2_file, checks, monkeypatch, capsys):
    # the structure sweep yields exactly the basis pairs whose supports
    # meet, each once, and brackets no pair one at a time
    basis, n = _stored_basis(a2_file)
    pairs = []
    sweep = quaternify.sweep_brackets

    def recorded(vecs, n):
        for i, brackets in sweep(vecs, n):
            pairs.extend((i, j) for j in brackets)
            yield i, brackets

    counts = dict.fromkeys(KERNEL, 0)
    _count_kernel_calls(monkeypatch, counts)
    monkeypatch.setattr(quaternify, "sweep_brackets", recorded)
    code, _ = run_json(capsys, "verify", "--in", str(a2_file), "--checks", checks)
    assert code == 0
    assert sorted(pairs) == meeting_pairs(basis, n)
    assert len(pairs) == A2_MEETING_PAIRS
    assert counts == {"group_rows": 35, "bracket_terms": 0, "bracket_grouped": 0}


def test_verify_groups_each_basis_row_once(a2_file, monkeypatch, capsys):
    # the structure sweep groups the 35 basis rows once and reads the
    # brackets of the 358 pairs whose supports meet off its index, with
    # no call of the pairwise kernel; no other check of this run groups
    # or brackets
    assert len(meeting_pairs(*_stored_basis(a2_file))) == A2_MEETING_PAIRS
    counts = dict.fromkeys(KERNEL, 0)
    _count_kernel_calls(monkeypatch, counts)
    checks = "structure,jacobi,conjugations"
    code, _ = run_json(capsys, "verify", "--in", str(a2_file), "--checks", checks)
    assert code == 0
    assert counts == {"group_rows": 35, "bracket_terms": 0, "bracket_grouped": 0}


def test_verify_and_decompose_build_no_solver(a2_file, monkeypatch, capsys):
    # the loader keeps the echelon span of the basis; the structure sweep
    # confirms each of the 595 pairs by expanding its table entry, and
    # conjugations asks membership of sigma(b) and tau(b) in that span
    calls = []
    for name in ("__init__", "express"):
        monkeypatch.setattr(LinearSolver, name, lambda self, *args, name=name: calls.append(name))
    code, doc = run_json(capsys, "verify", "--in", str(a2_file))
    assert code == 0 and doc["ok"]
    code, _ = run_json(capsys, "decompose", "--in", str(a2_file))
    assert code == 0
    assert calls == []


def test_verify_refuses_a_dependent_declared_basis(a2_file, tmp_path, capsys):
    doc = json.loads(a2_file.read_text())
    doc["basis"][1] = doc["basis"][0]
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "declared basis is linearly dependent" in captured.err


def test_build_closes_by_ad_of_the_ef_lines(tmp_path, monkeypatch, capsys):
    # A2: each of the 35 accepted rows meets the support of 368 of the 560
    # (e/f line, row) pairs; closing pairwise takes C(35, 2) = 595.  Of the
    # 368, 72 are bracketed, in order: the other 296 pair rows of one
    # weight each whose weights sum to a weight that the accepted rows of
    # that weight fill before the pair is queued or dequeued, so their
    # brackets lie in the span
    grouped_rows = []  # the rows closing groups: the 16 lines, then each accepted row
    index = {}  # id of a grouped row -> its place in grouped_rows
    calls = []
    closing = []
    group_rows, bracket_grouped = bracket.group_rows, bracket.bracket_grouped
    close_vecs = quaternify.close_vecs

    def grouped(row, n):
        out = group_rows(row, n)
        if closing:
            index[id(out)] = len(grouped_rows)
            grouped_rows.append(row)
        return out

    def counted(x, y, n):
        if closing:
            calls.append((index[id(x)], index[id(y)]))
        return bracket_grouped(x, y, n)

    def close_counted(*args):
        closing.append(True)
        try:
            return close_vecs(*args)
        finally:
            closing.pop()

    monkeypatch.setattr(bracket, "group_rows", grouped)
    monkeypatch.setattr(bracket, "bracket_grouped", counted)
    monkeypatch.setattr(quaternify, "close_vecs", close_counted)
    path = tmp_path / "a2.json"
    code, _ = run_json(capsys, "build", "--type", "A", "--rank", "2", "--out", str(path))
    assert code == 0
    assert len(grouped_rows) == 16 + 35
    meets = set(meeting_pairs(grouped_rows, 3))
    every = [(k, m) for m in range(16, 16 + 35) for k in range(16) if (k, m) in meets]
    assert len(every) == 368
    bracketed = set(calls)
    assert calls == [pair for pair in every if pair in bracketed]
    assert len(calls) == 72
    closed = span_of(grouped_rows[16:])
    assert closed.rank == 35
    skipped = [pair for pair in every if pair not in bracketed]
    assert len(skipped) == 368 - 72
    for k, m in skipped:
        assert closed.contains(bracket_vec(grouped_rows[k], grouped_rows[m], 3)), (k, m)


def test_build_flattens_only_the_root_vectors(tmp_path, monkeypatch, capsys):
    # A2: the generators are built as rows and never flattened;
    # check_root_spaces flattens the six root vectors
    calls = []
    flatten = QuatMatrix.flatten

    def counted(self):
        calls.append(self)
        return flatten(self)

    monkeypatch.setattr(QuatMatrix, "flatten", counted)
    path = tmp_path / "a2.json"
    code, _ = run_json(capsys, "build", "--type", "A", "--rank", "2", "--out", str(path))
    assert code == 0
    assert len(calls) == 6


def test_build_derives_k_once(tmp_path, monkeypatch, capsys):
    # the split and the settled `k-structure` report share one [k, k]
    calls = []
    derived_span = quaternify._derived_span

    def counted(rows, n):
        calls.append(len(rows))
        return derived_span(rows, n)

    monkeypatch.setattr(quaternify, "_derived_span", counted)
    path = tmp_path / "a2.json"
    code, _ = run_json(capsys, "build", "--type", "A", "--rank", "2", "--out", str(path))
    assert code == 0
    assert calls == [11]


def test_build_groups_the_rows_of_k_once(tmp_path, monkeypatch, capsys):
    # `k-structure` reads [k, k] off the table: it groups and brackets
    # nothing, in a build or in `verify`, where the one `structure` sweep
    # groups the 35 basis rows once and brackets no pair one at a time
    in_k_structure = []
    judged_calls = []
    counts = dict.fromkeys(KERNEL, 0)
    _count_kernel_calls(monkeypatch, counts, refuse=in_k_structure)
    k_structure = quaternify.k_structure

    def judged(g):
        judged_calls.append(g.dim)
        in_k_structure.append("k_structure")
        try:
            return k_structure(g)
        finally:
            in_k_structure.pop()

    monkeypatch.setattr(quaternify, "k_structure", judged)
    path = tmp_path / "a2.json"
    code, _ = run_json(capsys, "build", "--type", "A", "--rank", "2", "--out", str(path))
    assert code == 0 and judged_calls == [35]
    counts.update(dict.fromkeys(KERNEL, 0))
    code, _ = run_json(capsys, "verify", "--in", str(path), "--checks", "structure,k-structure")
    assert code == 0 and judged_calls == [35, 35]
    assert len(meeting_pairs(*_stored_basis(path))) == A2_MEETING_PAIRS
    assert counts == {"group_rows": 35, "bracket_terms": 0, "bracket_grouped": 0}


def test_build_reports_a_failed_zero_block_split(tmp_path, monkeypatch, capsys):
    # a [k, k] that contains h_0 makes h_r + [k, k] dependent, so the
    # zero-weight block gets one row more than dim k: `quaternify` raises,
    # and `build` reports a red `build` check, with no traceback and no file
    derived_span = quaternify._derived_span

    def with_h0(rows, n):
        span = derived_span(rows, n)
        span.insert(quaternify.closure_realization("A", 2)[0].rows["h"][0])
        return span

    monkeypatch.setattr(quaternify, "_derived_span", with_h0)
    with pytest.raises(StructuralFailureError, match="12 rows, k has dimension 11"):
        quaternify.quaternify("A", 2)
    path = tmp_path / "a2.json"
    code, doc = run_json(capsys, "build", "--type", "A", "--rank", "2", "--out", str(path))
    assert code == 1 and not path.exists()
    assert doc["checks"] == [
        _check("build", 1, ["zero-weight block has 12 rows, k has dimension 11"])
    ]
    assert capsys.readouterr().err == ""


def test_build_times_each_phase_and_check(tmp_path, capsys):
    path = tmp_path / "a1.json"
    code, doc = run_json(capsys, "build", "--type", "A", "--rank", "1", "--out", str(path))
    assert code == 0
    phases = {
        "realization", "closure", "decomposition", "constants", "verification", "write", "total"
    }
    assert set(doc["timings_ms"]) == phases | set(quaternify.CHECKS) - {"structure"}


def _drop_k_index_14(doc):
    doc["k_indices"].remove(14)


def _hr_indices_with_14(doc):
    doc["hr_indices"] = [0, 1, 14]


@pytest.fixture(scope="module")
def bc_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("bc")
    for type_label in "BC":
        main(["build", "--type", type_label, "--rank", "2", "--out", str(folder / f"{type_label}2.json")])
    return folder


@pytest.mark.parametrize("tamper", [_drop_k_index_14, _hr_indices_with_14])
@pytest.mark.parametrize("type_label", ["B", "C"])
def test_verify_rejects_a_retargeted_k_split(bc_files, type_label, tamper, tmp_path, capsys):
    # either edit alone turned the red `k-direct-sum` green before the
    # loader tied the split lists to the weights and the h generators
    doc = json.loads((bc_files / f"{type_label}2.json").read_text())
    tamper(doc)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load algebra") and captured.err.count("\n") == 1


def _pad_to_gl3(doc):
    """Re-embed a built A1 file in gl(3, H): every matrix gets a zero row
    and column, and ``ambient_n`` says 3; the label still says gl(2,H)."""
    zero = ["0"] * 4
    matrices = [*doc["basis"], *(m for kind in "hef" for m in doc["generators"][kind])]
    for matrix in matrices:
        matrix["n"] = 3
        matrix["entries"] = [row + [zero] for row in matrix["entries"]] + [[zero] * 3]
    doc["ambient_n"] = 3


def test_verify_rejects_an_ambient_n_beyond_the_realization(tmp_path, capsys):
    path = tmp_path / "a1.json"
    assert main(["build", "--type", "A", "--rank", "1", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    _pad_to_gl3(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load algebra") and captured.err.count("\n") == 1
    assert "ambient_n must be 2 for A1" in captured.err


def test_verify_k_structure_reports_dims(tmp_path, capsys):
    path = tmp_path / "a1.json"
    assert main(["build", "--type", "A", "--rank", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, "verify", "--in", str(path), "--checks", "k-structure")
    assert code == 0
    entry = doc["checks"][0]
    assert entry["dim_k"] == 7 and entry["dim_hr"] == 1 and entry["dim_hr_perp"] == 6


def test_verify_detects_weight_index_corruption(a2_file, tmp_path, capsys):
    doc = json.loads(a2_file.read_text())
    # move one index from a nonzero-weight block into another
    blocks = [w for w in doc["weights"] if any(w["weight"])]
    moved = blocks[0]["indices"].pop()
    blocks[1]["indices"].append(moved)
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--in", str(corrupted), "--checks", "weights"]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert not verdict["ok"]


def test_decompose(a2_file, capsys):
    code, doc = run_json(capsys, "decompose", "--in", str(a2_file))
    assert code == 0
    assert doc["dim"] == 35
    zero = [w for w in doc["weights"] if w["zero"]]
    assert len(zero) == 1 and zero[0]["dim"] == 11
    assert sum(w["dim"] for w in doc["weights"]) == 35


def test_roots_command(capsys):
    code, doc = run_json(capsys, "roots", "--type", "A", "--rank", "2")
    assert code == 0
    assert sorted(map(tuple, doc["positive_roots"])) == [(0, 1), (1, 0), (1, 1)]
    assert main(["roots", "--type", "X", "--rank", "2"]) == 2


def test_rho_check_command(capsys):
    code, doc = run_json(capsys, "rho-check", "--type", "A", "--rank", "2", "--degree", "4")
    assert code == 0 and doc["ok"]
    families = [c for c in doc["checks"] if c["name"].startswith("family.")]
    assert len(families) == 16
    assert main(["rho-check", "--type", "A", "--rank", "2", "--degree", "1"]) == 2


def test_rho_check_times_each_check(capsys):
    code, doc = run_json(capsys, "rho-check", "--type", "A", "--rank", "2", "--degree", "3")
    assert code == 0
    assert set(doc["timings_ms"]) == {"ideal-kernel", "h-independence", "total"}
    assert all(isinstance(ms, int) for ms in doc["timings_ms"].values())


def test_rho_check_names_the_words_that_break_the_j_rule(monkeypatch, capsys):
    # with the flag kept, Jh maps f1 to f1 instead of J.f1; the entry
    # gives the h rank, then the first nine (word, j) pairs
    monkeypatch.setattr(
        freerep, "_twist", lambda tagged, flag: (flag, -1 if tagged and flag else 1)
    )
    code, doc = run_json(capsys, "rho-check", "--type", "A", "--rank", "2", "--degree", "3")
    assert code == 1
    entry = next(c for c in doc["checks"] if c["name"] == "h-independence")
    assert not entry["passed"] and entry["instances"] == 14
    assert entry["failures"] == [
        "rank_h=2",
        "('f1', 0)",
        "('f1', 1)",
        "('f2', 0)",
        "('f2', 1)",
        "('f1f1', 0)",
        "('f1f1', 1)",
        "('f1f2', 0)",
        "('f1f2', 1)",
        "('f2f1', 0)",
    ]


@pytest.mark.parametrize("type_label,rank,degree", [("A", 8, 12), ("A", 1, 10**9), ("D", 4, 9)])
def test_rho_check_beyond_the_word_cap_builds_no_word(type_label, rank, degree, monkeypatch, capsys):
    # A8 at degree 12 would list about 8e10 words; the cap is read off
    # rank and degree alone
    def refuse(*args):
        raise AssertionError("a word list was built")

    monkeypatch.setattr(freerep, "plain_words", refuse)
    argv = ["rho-check", "--type", type_label, "--rank", str(rank), "--degree", str(degree)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: more than {freerep.MAX_WORDS} words up to degree {degree} at rank {rank}, "
        "beyond the supported cap\n"
    )


@pytest.mark.parametrize("degree", [1, 0])
def test_rho_check_refuses_a_low_degree_before_the_cartan_matrix(degree, monkeypatch, capsys):
    # rank 99,999 at degree 1 is 100,000 words, within the word cap, and
    # its Cartan matrix would hold about 10^10 entries
    def refuse(*args):
        raise AssertionError("a Cartan matrix was built")

    monkeypatch.setattr(cli, "cartan_matrix", refuse)
    argv = ["rho-check", "--type", "A", "--rank", "99999", "--degree", str(degree)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree must be at least 2\n"


def test_rho_check_refuses_rank_one_past_the_letter_cap_before_the_cartan_matrix(
    monkeypatch, capsys
):
    # rank 1 at degree 1,414: 1,415 words within the word cap, but
    # 1,000,405 letters; the refusal comes before any matrix or word
    def refuse(*args):
        raise AssertionError("a Cartan matrix or a word list was built")

    monkeypatch.setattr(cli, "cartan_matrix", refuse)
    monkeypatch.setattr(freerep, "plain_words", refuse)
    assert main(["rho-check", "--type", "A", "--rank", "1", "--degree", "1414"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: more than {freerep.MAX_LETTERS} letters in the words up to degree 1414 "
        "at rank 1, beyond the supported cap\n"
    )


def _outcome(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    if doc:
        doc.pop("timings_ms")
    return code, doc, captured.err


def test_parser_is_built_once_and_carries_nothing_between_calls(capsys):
    argvs = (
        ["verify"],
        ["roots", "--type", "A", "--rank", "2"],
        ["rho-check", "--type", "B", "--rank", "2", "--degree", "3"],
    )
    cli.build_parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in argvs]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert shared[0][2].startswith("usage:") and shared[1][1]["ok"] and shared[2][1]["ok"]


# preset -> the names of its two checks and its dimension, in closed form
CLOSURE_PRESETS = {
    "sl": (("closure-dim", "equals-sl-n-H"), lambda n: 4 * n * n - 1),
    "so-star": (("bracket-closed", "sigma-tau-invariant"), lambda n: n * (2 * n - 1)),
    "sp": (("bracket-closed", "sigma-tau-invariant"), lambda n: n * (2 * n + 1)),
}


def test_closure_presets(capsys):
    # closure sets no timings, so its whole output is pinned
    for preset, (names, dim_formula) in CLOSURE_PRESETS.items():
        for n in range(2, realizations.MAX_NAMED_N + 1):
            dim = dim_formula(n)
            expected = {
                "artifact_version": "1",
                "checks": [
                    {"failures": [], "instances": dim, "name": name, "passed": True}
                    for name in names
                ],
                "command": "closure",
                "dim": dim,
                "inputs": {"n": n, "preset": preset},
                "ok": True,
                "timings_ms": {},
            }
            if preset == "sl":
                expected["summary"] = f"closure dim {dim}, equals sl({n},H): True"
            assert run_json(capsys, "closure", "--preset", preset, "--n", str(n)) == (0, expected)


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def _assert_one_error_line(code, capsys, prefix="error: "):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1


def _refuse_cartan_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Cartan matrix was built")

    for module in (cli, realizations):
        monkeypatch.setattr(module, "cartan_matrix", refuse)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["build", "--type", "A", "--rank", "6000"], "A6000 needs ambient n=6001"),
        (["rho-check", "--type", "A", "--rank", "6000", "--degree", "3"], "more than 100000 words"),
        (["roots", "--type", "A", "--rank", "45"], "A45 has 1035 positive roots, more than 1000"),
        (["roots", "--type", "D", "--rank", "100000"], "D100000 has 9999900000 positive roots"),
    ],
    ids=["build-A6000", "rho-check-A6000-d3", "roots-A45", "roots-D100000"],
)
def test_caps_are_read_before_the_cartan_matrix(argv, message, tmp_path, monkeypatch, capsys):
    # the rank x rank Cartan matrix alone took 2.2 s and 154 MB at A3000;
    # every cap is read off type, rank and degree
    _refuse_cartan_matrix(monkeypatch)
    out = tmp_path / "x.json"
    if argv[0] == "build":
        argv = argv + ["--out", str(out)]
    _assert_one_error_line(main(argv), capsys, f"error: {message}")
    assert not out.exists()


def test_rho_check_rank_zero_with_a_huge_degree_is_refused_at_once(capsys):
    # the word cap counts no lengths below rank 2, so the rank check follows at once
    code = main(["rho-check", "--type", "A", "--rank", "0", "--degree", str(10**12)])
    _assert_one_error_line(code, capsys, "error: type A needs rank >= 1")


def test_roots_gate_admits_the_largest_listing_under_the_cap(capsys):
    code, doc = run_json(capsys, "roots", "--type", "C", "--rank", "31")
    assert code == 0 and len(doc["positive_roots"]) == 961 <= rootsystem.MAX_POSITIVE_ROOTS


@pytest.fixture(scope="module")
def a1_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "a1.json"
    assert main(["build", "--type", "A", "--rank", "1", "--out", str(path)]) == 0
    return path.read_text()


def _huge_coefficient(text):
    doc = json.loads(text)
    doc["structure_constants"]["entries"][0][3] = "7" * 5000
    return json.dumps(doc)


def test_verify_refuses_an_unknown_type_with_one_line(a1_text, tmp_path, capsys):
    doc = json.loads(a1_text)
    doc["type"], doc["rank"] = "E", 6
    path = tmp_path / "e6.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--in", str(path)])
    _assert_one_error_line(code, capsys, f"error: cannot load algebra from {path}: ")


def _huge_rank(text):
    return text.replace('"rank":1', '"rank":' + "7" * 5000)


@pytest.mark.parametrize(
    "case",
    [None, lambda text: "[" * 100_000, _huge_coefficient, _huge_rank],
    ids=["out-dir-missing", "deep-nesting", "huge-coefficient", "huge-rank"],
)
def test_input_errors_that_once_raised_exit_two_with_one_line(case, a1_text, tmp_path, capsys):
    # at each of these a traceback ended the run with exit 1
    if case is None:
        out = tmp_path / "missing" / "a1.json"
        code = main(["build", "--type", "A", "--rank", "1", "--out", str(out)])
        _assert_one_error_line(code, capsys)
        return
    path = tmp_path / "bad.json"
    text = case(a1_text)
    assert text != a1_text
    path.write_text(text)
    code = main(["verify", "--in", str(path)])
    _assert_one_error_line(code, capsys, f"error: cannot load algebra from {path}: ")


@pytest.mark.parametrize("row", [[], {}])
def test_verify_refuses_a_short_cartan_row_with_one_line(row, a2_file, tmp_path, capsys):
    # the Cartan check read row 1 across before its length: an IndexError
    doc = json.loads(a2_file.read_text())
    doc["cartan"][1] = row
    path = tmp_path / "short-row.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--in", str(path)])
    _assert_one_error_line(
        code, capsys, f"error: cannot load algebra from {path}: bad Cartan matrix: "
    )


def test_verify_refuses_a_repeated_structure_constant_entry(a2_file, tmp_path, capsys):
    # with both terms of [x_0, x_11] stored, `ad` read a coefficient of 3
    # while a check that kept only the last term passed the file green
    doc = json.loads(a2_file.read_text())
    entries = doc["structure_constants"]["entries"]
    at = entries.index([0, 11, 11, "-2"])
    entries.insert(at, [0, 11, 11, "5"])
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: cannot load algebra from {path}: "
        "structure constant entry [0, 11, 11] is repeated\n"
    )


def _set_entry(position, value):
    def edit(entries):
        entries[0][position] = value

    return edit


def _replace_entry(value):
    def edit(entries):
        entries[0] = value

    return edit


def _swap_i_j(entries):
    entries[0][0], entries[0][1] = entries[0][1], entries[0][0]


LOADER_REFUSALS = {
    "not-a-list": (_replace_entry("0 1 2 1"), "structure constant entries must be [i, j, k, coeff]"),
    "three-items": (lambda e: e[0].pop(), "structure constant entries must be [i, j, k, coeff]"),
    "bool-index": (_set_entry(0, False), "structure constant index must be an integer"),
    "float-index": (_set_entry(1, 11.0), "structure constant index must be an integer"),
    "str-index": (_set_entry(2, "11"), "structure constant index must be an integer"),
    "i-not-below-j": (_swap_i_j, "structure constants must be stored with i < j"),
    "k-out-of-range": (_set_entry(2, 35), "structure constant index out of range(dim=35): [0, 11, 35]"),
    "zero-denominator": (_set_entry(3, "1/0"), "not a rational string: '1/0'"),
    "int-coefficient": (_set_entry(3, -2), "not a rational string: -2"),
    "list-coefficient": (_set_entry(3, ["-2"]), "not a rational string: ['-2']"),
}


@pytest.mark.parametrize("case", sorted(LOADER_REFUSALS))
def test_loader_refuses_a_bad_structure_constant_entry(case, a2_file, tmp_path, capsys):
    edit, message = LOADER_REFUSALS[case]
    doc = json.loads(a2_file.read_text())
    entries = doc["structure_constants"]["entries"]
    assert entries[0] == [0, 11, 11, "-2"]
    edit(entries)
    with pytest.raises(MalformedInputError) as caught:
        serialize.constants_from_json(doc["structure_constants"])
    assert str(caught.value) == message
    path = tmp_path / "bad-entry.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: cannot load algebra from {path}: {message}\n"


SUBCOMMAND_ARGV = {
    "cmd_build": ["build", "--type", "A", "--rank", "1", "--out", "x.json"],
    "cmd_verify": ["verify", "--in", "x.json"],
    "cmd_decompose": ["decompose", "--in", "x.json"],
    "cmd_roots": ["roots", "--type", "A", "--rank", "1"],
    "cmd_rho_check": ["rho-check", "--type", "A", "--rank", "1", "--degree", "2"],
    "cmd_closure": ["closure", "--preset", "sl", "--n", "2"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_main_alone_maps_a_value_error_to_exit_two(command, monkeypatch, capsys):
    def raising(exc):
        def command_function(args):
            raise exc

        return command_function

    # the parser binds the command functions when it is built
    cli.build_parser.cache_clear()
    try:
        monkeypatch.setattr(cli, command, raising(ValueError("injected input error")))
        code = main(SUBCOMMAND_ARGV[command])
        _assert_one_error_line(code, capsys, "error: injected input error\n")
        # anything else is a crash and propagates
        monkeypatch.setattr(cli, command, raising(KeyError("injected crash")))
        cli.build_parser.cache_clear()
        with pytest.raises(KeyError):
            main(SUBCOMMAND_ARGV[command])
    finally:
        monkeypatch.undo()
        cli.build_parser.cache_clear()


def _assert_no_floats(node):
    if isinstance(node, float):
        raise AssertionError(f"float in report: {node}")
    if isinstance(node, dict):
        for value in node.values():
            _assert_no_floats(value)
    elif isinstance(node, list):
        for value in node:
            _assert_no_floats(value)


def test_reports_contain_no_floats(tmp_path, capsys):
    path = tmp_path / "a1.json"
    code, doc = run_json(capsys, "build", "--type", "A", "--rank", "1", "--out", str(path))
    assert code == 0
    _assert_no_floats(doc)
    code, doc = run_json(capsys, "verify", "--in", str(path))
    _assert_no_floats(doc)
    code, doc = run_json(capsys, "decompose", "--in", str(path))
    _assert_no_floats(doc)
    _assert_no_floats(json.loads(path.read_text()))


def test_module_entry_point():
    # the fresh interpreter imports the same quatlie sources as this one
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "quatlie", "roots", "--type", "A", "--rank", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["positive_roots"] == [[1]]
    proc = subprocess.run(
        [sys.executable, "-m", "quatlie", "roots", "--type", "Q", "--rank", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2


def test_build_b2_reports_structural_failures(tmp_path, capsys):
    # B2 builds and persists, but the measured dimension-4 and k-split
    # claims fail structurally, so the build manifest reports exit 1
    path = tmp_path / "b2.json"
    code, doc = run_json(capsys, "build", "--type", "B", "--rank", "2", "--out", str(path))
    assert code == 1
    assert not doc["ok"]
    failing = {c["name"] for c in doc["checks"] if not c["passed"]}
    assert failing == {"built.root-spaces", "built.k-structure"}
    assert doc["dim"] == 63 and doc["dim_k"] == 15
    # the persisted file is still verifiable: exact identities pass,
    # only the weights/k measurements fail
    code, verdict = run_json(
        capsys, "verify", "--in", str(path), "--checks", "relations,serre,jacobi"
    )
    assert code == 0 and verdict["ok"]
    code, verdict = run_json(capsys, "verify", "--in", str(path))
    assert code == 1
    failing = {c["name"] for c in verdict["checks"] if not c["passed"]}
    assert failing == {"k-structure", "weights.spaces"}


# The `verify` manifest of each built artifact, timings left out.  Per
# type: the instances of each relation family, serre, jacobi, structure,
# conjugations, grading, k-structure with (dim_k, dim_hr, dim_hr_perp),
# weights.spaces and weights.additivity.  B2 and C2 keep their two red
# measured claims.
RELATION_FAMILIES = (
    "h.h", "e.f", "h.e", "h.f", "h.Jh", "Jh.h", "Jh.Jh", "Je.f",
    "e.Jf", "Je.Jf", "h.Je", "Jh.e", "Jh.Je", "h.Jf", "Jh.f", "Jh.Jf",
)
VERIFY_PINNED = {
    ("A", 1): (1, 0, 455, 105, 30, 102, (7, 1, 6), 2, 90),
    ("A", 2): (4, 16, 6545, 595, 70, 409, (11, 2, 9), 6, 385),
    ("A", 3): (9, 48, 39711, 1953, 126, 1024, (15, 3, 12), 12, 988),
    ("B", 2): (4, 16, 39711, 1953, 126, 1012, (15, 2, 12), 8, 988),
    ("C", 2): (4, 16, 39711, 1953, 126, 1012, (15, 2, 12), 8, 988),
    ("D", 3): (9, 48, 39711, 1953, 126, 1024, (15, 3, 12), 12, 988),
}
SHORT_ROOTS_AT_DIM_8 = [
    "((1, 0), 'dim', 8)", "((1, 1), 'dim', 8)", "((-1, 0), 'dim', 8)", "((-1, -1), 'dim', 8)",
]


def _check(name, instances, failures=()):
    return {"name": name, "passed": not failures, "instances": instances, "failures": list(failures)}


@pytest.mark.parametrize("type_label,rank", sorted(VERIFY_PINNED))
def test_verify_manifest_pinned(type_label, rank, tmp_path, capsys):
    path = tmp_path / f"{type_label}{rank}.json"
    main(["build", "--type", type_label, "--rank", str(rank), "--out", str(path)])
    capsys.readouterr()
    code, doc = run_json(capsys, "verify", "--in", str(path))
    relations, serre, jacobi, structure, conjugations, grading, dims, spaces, additivity = (
        VERIFY_PINNED[(type_label, rank)]
    )
    red = type_label in "BC"
    expected = [_check(f"relations.{family}", relations) for family in RELATION_FAMILIES]
    expected += [
        _check("serre", serre),
        _check("jacobi", jacobi),
        _check("structure", structure),
        _check("conjugations", conjugations),
        _check("grading", grading),
        dict(
            _check("k-structure", 4, ["k-direct-sum"] if red else []),
            dim_k=dims[0], dim_hr=dims[1], dim_hr_perp=dims[2],
        ),
        _check("weights.spaces", spaces, SHORT_ROOTS_AT_DIM_8 if red else []),
        _check("weights.additivity", additivity),
    ]
    assert code == (1 if red else 0)
    assert doc["checks"] == expected
    assert doc["ok"] is not red
    assert sorted(doc["timings_ms"]) == sorted(
        ["relations", "serre", "jacobi", "structure", "conjugations", "grading", "k-structure", "weights"]
    )


# The `rho-check` manifest of small cases: every relation family checks
# rank^2 * (words up to length degree - 1, both flags) instances and
# h-independence counts the nonempty plain words up to the degree.  The
# last three are the benchmark's word-space cases (35,211, 16,510 and
# 43,860 instances in all).
RHO_PINNED = {
    ("A", 2, 4): (120, 30),
    ("B", 2, 5): (248, 62),
    ("D", 4, 3): (672, 84),
    ("A", 3, 5): (2178, 363),
    ("B", 2, 7): (1016, 254),
    ("D", 4, 4): (2720, 340),
}


@pytest.mark.parametrize("type_label,rank,degree", sorted(RHO_PINNED))
def test_rho_check_manifest_pinned(type_label, rank, degree, capsys):
    code, doc = run_json(
        capsys, "rho-check", "--type", type_label, "--rank", str(rank), "--degree", str(degree)
    )
    families, words = RHO_PINNED[(type_label, rank, degree)]
    expected = [_check(f"family.{family}", families) for family in RELATION_FAMILIES]
    expected.append(_check("h-independence", words))
    assert code == 0 and doc["ok"]
    assert doc["checks"] == expected
