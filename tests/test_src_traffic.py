"""``src/quatlie`` holds what a command runs, and what stays unrun has a reason.

One pass of each command runs under ``sys.setprofile``: ``build``,
``verify`` and ``decompose`` of A2, B2, C2 and D3, ``roots``, a small
``rho-check`` and the three ``closure`` presets at n = 2.  Every function
that the package defines is found with ``ast``.  The functions the pass
never enters, less the benchmark tracer's targets, must be exactly
``KEEP``.  A function that no command runs and that has no reason below
belongs beside the tests, in ``oracles.py``, or nowhere; one in ``KEEP``
that a command comes to run leaves it.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import quatlie
from quatlie import cli

from test_trace_guard import _import_tracing

PACKAGE = Path(quatlie.__file__).resolve().parent

KEEP_GROUPS = {
    # called only by the tracer's targets jacobi_check and
    # check_conjugation_equivariance, or read off the reports they return
    "called by the tracer's targets": {
        "bracket.EquivarianceReport.ok",
        "bracket.JacobiReport.exhaustive",
        "bracket.JacobiReport.ok",
        "bracket.StructureConstants.ad",
        "bracket.StructureConstants.jacobi_defect",
    },
    # the methods a value type is expected to have; the tests use them
    "value-type methods": {
        "errors.CheckReport.__eq__",
        "errors.CheckReport.__repr__",
        "matrices.QuatMatrix.__add__",
        "matrices.QuatMatrix.__eq__",
        "matrices.QuatMatrix.__hash__",
        "matrices.QuatMatrix.__neg__",
        "matrices.QuatMatrix.entry",
        "matrices.QuatMatrix.scale",
        "matrices.QuatMatrix.scale_rational",
        "rootsystem.Root.__add__",
        "rootsystem.Weight.__add__",
        "rootsystem.Weight.__neg__",
        "rootsystem.Weight.is_zero",
        "scalars.GaussianRational.__add__",
        "scalars.GaussianRational.__eq__",
        "scalars.GaussianRational.__hash__",
        "scalars.GaussianRational.__repr__",
        "scalars.GaussianRational.conj",
        "scalars.Quaternion.__add__",
        "scalars.Quaternion.__eq__",
        "scalars.Quaternion.__hash__",
        "scalars.Quaternion.__repr__",
        "scalars.Quaternion.conj",
        "scalars.Quaternion.real",
        "scalars.Quaternion.scale",
    },
    # the console script's entry point; the pass calls cli.main
    "entry point": {"cli.entry"},
    # runs only when a check fails: names the failing word
    "failure messages": {"freerep.FreeWord.label"},
    # the library example of the README
    "README API": {"quaternify.weight_decomposition"},
    # the defining B_l / D_l realizations that building B_l and D_l past
    # B2 and D3 needs, and the named algebras no command builds
    "realizations kept for later types": {
        "realizations._basis_gl_h",
        "realizations._basis_sk_c",
        "realizations._gens_type_b",
        "realizations._gens_type_d",
        "realizations.chevalley_generators",
    },
}
KEEP = set().union(*KEEP_GROUPS.values())


def defined_functions() -> dict:
    """(file name, first line) -> ``module.qualified.name`` of every function
    in the package; the first line is the first decorator's, as in code objects."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path.name, first)] = f"{path.stem}.{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def entered_functions(argvs) -> set:
    """(file name, first line) of every package function the commands enter."""
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    cli.build_parser.cache_clear()  # a cached parser would hide build_parser
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    # B2 and C2 build and verify red (the root spaces and the k split)
    assert codes.count(1) == 4 and codes.count(0) == len(argvs) - 4, codes
    return {
        (Path(name).name, line)
        for name, line in calls
        if Path(name).resolve().parent == PACKAGE
    }


def tracer_targets() -> set:
    """``module.name`` of every function and method perfbench's tracer patches."""
    tracing = _import_tracing()
    targets = {f"{m}.{f}" for m, f, _ in (*tracing.TIMED_FUNCTIONS, *tracing.COUNTED_FUNCTIONS)}
    targets |= {
        f"{m}.{c}.{f}" for m, c, f, _ in (*tracing.TIMED_METHODS, *tracing.COUNTED_METHODS)
    }
    return {name.removeprefix("quatlie.") for name in targets}


def _command_pass(tmp_path) -> list:
    argvs = []
    for type_label, rank in (("A", 2), ("B", 2), ("C", 2), ("D", 3)):
        path = str(tmp_path / f"{type_label}{rank}.json")
        argvs += [
            ["build", "--type", type_label, "--rank", str(rank), "--out", path],
            ["verify", "--in", path],
            ["decompose", "--in", path],
        ]
    argvs.append(["roots", "--type", "B", "--rank", "3"])
    argvs.append(["rho-check", "--type", "A", "--rank", "2", "--degree", "3"])
    argvs += [["closure", "--preset", preset, "--n", "2"] for preset in ("sl", "so-star", "sp")]
    return argvs


def test_functions_no_command_enters_are_the_kept_ones(tmp_path):
    defined = defined_functions()
    entered = entered_functions(_command_pass(tmp_path))
    never = {name for key, name in defined.items() if key not in entered}
    assert never - tracer_targets() == KEEP
