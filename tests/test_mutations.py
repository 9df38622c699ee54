"""Every single-field edit of the A1 algebra file is caught by `verify`.

An edit is caught when `verify` exits 2 on it or gives a verdict other
than the honest file's; the verdict is the exit code with each red check
and its failures (the honest A1 file is green).  The edits:

* each structure-constant coefficient, negated or dropped;
* each nonzero basis coordinate, set from v to -v or to 2v;
* each zero coordinate of a cell where a basis row is nonzero, set to 1.

The structure sweep, and every check that reads the table through it,
must catch the basis and table edits: a `check_structure` that compares
nothing lets some of them through, which the negative control shows.
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
    for b, row in enumerate(doc["basis"]):
        for p, cells in enumerate(row["entries"]):
            for q, cell in enumerate(cells):
                if cell == ["0"] * 4:
                    continue
                for s, text in enumerate(cell):
                    v = serialize.parse_rational(text)
                    values = (-v, 2 * v) if v else (1,)
                    for value in map(serialize.format_rational, values):
                        edited = copy.deepcopy(doc)
                        edited["basis"][b]["entries"][p][q][s] = value
                        yield f"basis {b} cell ({p}, {q}) offset {s}: {text} -> {value}", edited


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


def _survivors(doc, path, first_only=False):
    honest = _verdict(doc, path)
    assert honest == (0, [])
    survivors = []
    for label, edited in _edits(doc):
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
    assert _survivors(a1_doc, tmp_path / "edited.json") == []


def test_a1_edits_survive_a_structure_check_that_compares_nothing(a1_doc, tmp_path, monkeypatch):
    # the negative control: the sweep above is live only if it fails here
    monkeypatch.setattr(
        quaternify, "check_structure", lambda g: CheckReport("structure", comb(g.dim, 2), [])
    )
    assert _survivors(a1_doc, tmp_path / "edited.json", first_only=True)
