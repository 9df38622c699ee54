"""Every single-field edit of the A1 algebra file is caught by `verify`.

An edit is caught when `verify` exits 2 on it or gives a verdict other
than the honest file's; the verdict is the exit code with each red check
and its failures (the honest A1 file is green).  The edits:

* each structure-constant coefficient, negated or dropped;
* each nonzero basis coordinate, set from v to -v or to 2v;
* each zero coordinate of a cell where a basis row is nonzero, set to 1;
* each coordinate of a cell where a basis row is zero, set to 1.  These
  edits change a row's support, which is what the structure sweep's
  index of the rows reads.

The structure sweep, and every check that reads the table through it,
must catch the basis and table edits: a `check_structure` that compares
nothing lets some of them through, which the negative control shows.

Three more kinds of edit are run on their own:

* each entry's k retargeted to the next index (mod dim), and each
  entry's i and j swapped, which the loader must refuse (exit 2);
* each generator coordinate edited as the basis coordinates are, on A1
  and on A2, whose (1, 1) root vector the loader grows by `bracket`;
* each basis index moved to each other weight block, and each index
  added to or dropped from `k_indices`, `hr_indices` and
  `hr_perp_indices`, on A1.  The loader, the `weights` checks or
  `k-structure` must catch each.  On a file that is red when honest
  (B2), some `hr_perp_indices` edits keep the red checks' names and
  change only their failures, which is why a verdict compares failures.
"""

import contextlib
import copy
import importlib
import io
import json
from math import comb

import pytest

from quatlie import serialize
from quatlie.cli import main
from quatlie.errors import CheckReport

# the module, which the package's `quaternify` function shadows
quaternify = importlib.import_module("quatlie.quaternify")


@pytest.fixture(scope="module")
def a1_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("mutations") / "a1.json"
    assert main(["build", "--type", "A", "--rank", "1", "--out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def a2_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("mutations") / "a2.json"
    assert main(["build", "--type", "A", "--rank", "2", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _coordinate_edits(doc, paths):
    """Each nonzero coordinate of the matrices at ``paths`` set to -v or 2v,
    and each zero coordinate of a nonzero cell set to 1."""
    for path in paths:
        for p, cells in enumerate(_at(doc, path)["entries"]):
            for q, cell in enumerate(cells):
                if cell == ["0"] * 4:
                    continue
                for s, text in enumerate(cell):
                    v = serialize.parse_rational(text)
                    values = (-v, 2 * v) if v else (1,)
                    for value in map(serialize.format_rational, values):
                        edited = copy.deepcopy(doc)
                        _at(edited, path)["entries"][p][q][s] = value
                        where = " ".join(map(str, path))
                        yield f"{where} cell ({p}, {q}) offset {s}: {text} -> {value}", edited


def _zero_cell_edits(doc, paths):
    """Each coordinate of each all-zero cell of the matrices at ``paths`` set to 1."""
    for path in paths:
        for p, cells in enumerate(_at(doc, path)["entries"]):
            for q, cell in enumerate(cells):
                if cell != ["0"] * 4:
                    continue
                for s in range(4):
                    edited = copy.deepcopy(doc)
                    _at(edited, path)["entries"][p][q][s] = "1"
                    where = " ".join(map(str, path))
                    yield f"{where} zero cell ({p}, {q}) offset {s}: 0 -> 1", edited


def _edits(doc):
    """(label, edited copy of ``doc``) for every edit of the module docstring."""
    for pos, entry in enumerate(doc["structure_constants"]["entries"]):
        c = serialize.parse_rational(entry[3])
        negated = copy.deepcopy(doc)
        negated["structure_constants"]["entries"][pos][3] = serialize.format_rational(-c)
        yield f"negate entry {pos}", negated
        dropped = copy.deepcopy(doc)
        del dropped["structure_constants"]["entries"][pos]
        yield f"drop entry {pos}", dropped
    basis = [("basis", b) for b in range(len(doc["basis"]))]
    yield from _coordinate_edits(doc, basis)
    yield from _zero_cell_edits(doc, basis)


def _index_edits(doc):
    """Each entry's k moved to the next index, and each entry's i and j swapped."""
    dim = doc["dim"]
    for pos, (i, j, k, _) in enumerate(doc["structure_constants"]["entries"]):
        retargeted = copy.deepcopy(doc)
        retargeted["structure_constants"]["entries"][pos][2] = (k + 1) % dim
        yield f"retarget entry {pos}: k {k} -> {(k + 1) % dim}", retargeted
        swapped = copy.deepcopy(doc)
        swapped["structure_constants"]["entries"][pos][:2] = [j, i]
        yield f"swap i and j of entry {pos}", swapped


def _generator_edits(doc):
    gens = doc["generators"]
    yield from _coordinate_edits(
        doc, [("generators", kind, g) for kind in ("h", "e", "f") for g in range(len(gens[kind]))]
    )


def _block_edits(doc):
    """Each basis index moved to each other weight block, and each index
    added to or dropped from the three index lists of k."""
    weights = doc["weights"]
    for a, block in enumerate(weights):
        for i in block["indices"]:
            for b, other in enumerate(weights):
                if b == a:
                    continue
                moved = copy.deepcopy(doc)
                moved["weights"][a]["indices"].remove(i)
                moved["weights"][b]["indices"] = sorted([*other["indices"], i])
                yield f"move index {i} from weight {block['weight']} to {other['weight']}", moved
    for name in ("k_indices", "hr_indices", "hr_perp_indices"):
        for i in range(doc["dim"]):
            edited = copy.deepcopy(doc)
            if i in edited[name]:
                edited[name].remove(i)
                yield f"drop {i} from {name}", edited
            else:
                edited[name] = sorted([*edited[name], i])
                yield f"add {i} to {name}", edited


def _verdict(doc, path):
    """Exit code of `verify` on ``doc``, with each red check and its failures."""
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--in", str(path)])
    if code == 2:
        return (2,)
    checks = json.loads(out.getvalue())["checks"]
    return code, [(c["name"], c["failures"]) for c in checks if not c["passed"]]


def _survivors(doc, path, first_only=False, edits=_edits):
    honest = _verdict(doc, path)
    assert honest == (0, [])
    survivors = []
    for label, edited in edits(doc):
        verdict = _verdict(edited, path)
        if verdict != (2,) and verdict == honest:
            survivors.append(label)
            if first_only:
                break
    return survivors


def test_every_a1_edit_is_caught(a1_doc, tmp_path):
    edits = list(_edits(a1_doc))
    entries = len(a1_doc["structure_constants"]["entries"])
    assert sum(label.startswith(("negate", "drop")) for label, _ in edits) == 2 * entries
    assert len(edits) > 2 * entries
    assert sum("zero cell" in label for label, _ in edits) == 176  # 44 all-zero cells
    assert _survivors(a1_doc, tmp_path / "edited.json") == []


def test_a1_edits_survive_a_structure_check_that_compares_nothing(a1_doc, tmp_path, monkeypatch):
    # the negative control: the sweep above is live only if it fails here
    monkeypatch.setattr(
        quaternify, "check_structure", lambda g: CheckReport("structure", comb(g.dim, 2), [])
    )
    assert _survivors(a1_doc, tmp_path / "edited.json", first_only=True)


def test_every_a1_index_edit_is_caught(a1_doc, tmp_path):
    path = tmp_path / "edited.json"
    assert _verdict(a1_doc, path) == (0, [])
    verdicts = {label: _verdict(edited, path) for label, edited in _index_edits(a1_doc)}
    assert len(verdicts) == 2 * len(a1_doc["structure_constants"]["entries"])
    swaps = [verdict for label, verdict in verdicts.items() if label.startswith("swap")]
    assert set(swaps) == {(2,)}  # the loader refuses i > j
    assert [label for label, verdict in verdicts.items() if verdict == (0, [])] == []


def test_a1_retargets_survive_a_structure_check_that_compares_nothing(
    a1_doc, tmp_path, monkeypatch
):
    monkeypatch.setattr(
        quaternify, "check_structure", lambda g: CheckReport("structure", comb(g.dim, 2), [])
    )
    assert _survivors(a1_doc, tmp_path / "edited.json", first_only=True, edits=_index_edits)


@pytest.mark.parametrize("doc", ["a1_doc", "a2_doc"])
def test_every_generator_edit_is_caught(doc, request, tmp_path):
    doc = request.getfixturevalue(doc)
    edited = {label.split(" cell")[0] for label, _ in _generator_edits(doc)}
    assert len(edited) == 3 * doc["rank"]  # every h, e and f is edited
    assert _survivors(doc, tmp_path / "edited.json", edits=_generator_edits) == []


def test_every_a1_block_and_k_index_edit_is_caught(a1_doc, tmp_path):
    edits = list(_block_edits(a1_doc))
    dim, blocks = a1_doc["dim"], len(a1_doc["weights"])
    assert len(edits) == dim * (blocks - 1) + 3 * dim
    assert _survivors(a1_doc, tmp_path / "edited.json", edits=_block_edits) == []


def test_a1_k_index_edits_survive_a_k_structure_that_checks_nothing(
    a1_doc, tmp_path, monkeypatch
):
    # the negative control: `k-structure` alone catches some of the edits
    monkeypatch.setattr(quaternify, "k_structure", lambda g: CheckReport("k-structure", 4, []))
    survivors = _survivors(a1_doc, tmp_path / "edited.json", edits=_block_edits)
    assert survivors and all("hr_perp_indices" in label for label in survivors)
