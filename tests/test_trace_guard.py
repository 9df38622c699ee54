"""The benchmark's traced runs still see the program they trace.

``perfbench/tracing.py`` patches quatlie functions by name and then
checks invariants of the counts it collected (``check_complete``).  A
renamed function or a changed call path breaks the traced benchmark
without breaking any other test, so these tests run the tracer on a small
`build` and `verify` pass and on a `rho-check` (`wordspace`) pass.  The tracing module is only imported, never
edited.  A2 is used because its loader makes matrix brackets (the root
vector of (1, 1)); A1's `verify` makes none.
"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

from quatlie import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_tracing():
    # tracing.py imports its sibling `workloads` as a top-level module;
    # no bytecode is written, so the benchmark directory stays untouched
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write_bytecode


def _traced_pass(tracing, tracer, workload, argv):
    tracer.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    metrics = tracing.pass_metrics(tracer, [json.loads(out.getvalue())])
    return code, tracing.check_complete(workload, metrics), metrics


def test_traced_build_and_verify_are_complete(tmp_path):
    tracing = _import_tracing()
    path = str(tmp_path / "A2.json")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bindings = dict(tracer.bindings)
        build = _traced_pass(
            tracing, tracer, "build", ["build", "--type", "A", "--rank", "2", "--out", path]
        )[:2]
        verify = _traced_pass(tracing, tracer, "verify", ["verify", "--in", path])[:2]
    finally:
        tracer.uninstall()
    targets = [f"{module}.{attr}" for module, attr, _ in tracing.TIMED_FUNCTIONS]
    targets += [f"{module}.{attr}" for module, attr, _ in tracing.COUNTED_FUNCTIONS]
    assert [t for t in targets if not bindings.get(t)] == []
    assert build == (0, [])
    assert verify == (0, [])


def test_traced_wordspace_is_complete():
    tracing = _import_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, problems, metrics = _traced_pass(
            tracing, tracer, "wordspace", ["rho-check", "--type", "A", "--rank", "2", "--degree", "4"]
        )
    finally:
        tracer.uninstall()
    assert (code, problems) == (0, [])
    # one Jh image per (plain word, index) in h-independence: 2 x 30 words
    # of length 1..4; 16 families x 4 (i, j) x 2 flags x 15 plain words
    # up to length 3, plus the 30 words h-independence uses
    assert metrics["freerep.rho_apply.calls"] == 60
    assert metrics["freerep.instances"] == 1950
