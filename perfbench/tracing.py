"""Outside-in tracing of the quatlie layers for the benchmark's traced runs.

The tracer wraps public functions and methods of the ``quatlie`` modules
from the benchmark's own files; the program itself is not edited.  A
timed wrapper keeps one span ``(name, start, end, parent)`` per call in
memory, where ``parent`` is the index of the enclosing span or -1.  A
counting wrapper only counts, for functions called too often to span.
Self time is a span's duration minus the time its child spans cover.

A function is patched in every ``quatlie`` module namespace that binds
it (``from .bracket import bracket`` makes a second binding in
``quaternify``, ``cli`` and ``realizations``); methods are patched once
on their class.  ``check_complete`` then tests an invariant that a
missed binding would break.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

from workloads import RHO_CASES, TYPES

# (module, function, span name)
TIMED_FUNCTIONS = (
    ("quatlie.bracket", "bracket", "bracket"),
    ("quatlie.bracket", "close_under_bracket", "bracket.closure"),
    ("quatlie.bracket", "jacobi_check", "check.jacobi"),
    ("quatlie.bracket", "check_conjugation_equivariance", "check.conjugations"),
    ("quatlie.quaternify", "verify_relations", "check.relations"),
    ("quatlie.quaternify", "verify_serre", "check.serre"),
    ("quatlie.quaternify", "check_weight_additivity", "check.additivity"),
    ("quatlie.quaternify", "sigma_grading_check", "check.grading"),
    ("quatlie.quaternify", "check_root_spaces", "check.root_spaces"),
    ("quatlie.quaternify", "k_structure", "check.k_structure"),
    ("quatlie.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("quatlie.serialize", "algebra_to_json", "serialize.write"),
    ("quatlie.serialize", "write_json", "serialize.write"),
    ("quatlie.serialize", "read_json", "serialize.load"),
    ("quatlie.serialize", "algebra_from_json", "serialize.load"),
    ("quatlie.freerep", "verify_ideal_kernel", "freerep.ideal_kernel"),
    ("quatlie.freerep", "verify_h_independence", "freerep.h_independence"),
)

# (module, class, method, span name)
TIMED_METHODS = (
    ("quatlie.matrices", "QuatMatrix", "__matmul__", "matrices.matmul"),
    ("quatlie.linalg", "SpanBasis", "insert", "linalg.insert"),
    ("quatlie.linalg", "LinearSolver", "express", "linalg.express"),
    ("quatlie.linalg", "LinearSolver", "__init__", "linalg.solver_init"),
)

# (module, function, count name)
COUNTED_FUNCTIONS = (
    ("quatlie.scalars", "quat_mul", "scalars.quat_mul.calls"),
    ("quatlie.freerep", "rho_apply", "freerep.rho_apply.calls"),
)

# (module, class, method, count name)
COUNTED_METHODS = (
    ("quatlie.matrices", "QuatMatrix", "flatten", "matrices.flatten.calls"),
    ("quatlie.matrices", "QuatMatrix", "unflatten", "matrices.unflatten.calls"),
)


class Tracer:
    """Spans and counts of one traced pass, and the patches that feed them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._restore: list[tuple] = []
        self.bindings: dict[str, list[str]] = {}

    def clear(self) -> None:
        self.spans = []
        self.counts = Counter()

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span of its own."""
        return self._timed(name, fn)(*args)

    def _timed(self, name: str, fn, after=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, open_ = tracer.spans, tracer._open
            index = len(spans)
            parent = open_[-1] if open_ else -1
            # placeholder keeps the name visible to hooks of child calls
            spans.append((name, 0.0, 0.0, parent))
            open_.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                open_.pop()
            if after is not None:
                after(args, result, parent)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method; undo with ``uninstall``."""
        add, size = self._add, os.path.getsize
        # counts read off arguments and return values, by wrapped attribute
        hooks = {
            "write_json": lambda a, r, p: add("serialize.bytes_written", size(a[0])),
            "read_json": lambda a, r, p: add("serialize.bytes_read", size(a[0])),
            "jacobi_check": lambda a, r, p: add("check.jacobi.triples", r.triples_checked),
            "check_conjugation_equivariance": lambda a, r, p: add(
                "check.conjugations.pairs", r.pairs_checked
            ),
            "verify_ideal_kernel": lambda a, r, p: add(
                "freerep.instances", sum(rep.instances_checked for rep in r)
            ),
            "verify_h_independence": lambda a, r, p: add("freerep.instances", r.words_used),
            "insert": self._closure_insert,
        }
        for module, attr, name in TIMED_FUNCTIONS:
            self._patch_function(
                module, attr, lambda fn, n=name, h=hooks.get(attr): self._timed(n, fn, h)
            )
        for module, attr, name in COUNTED_FUNCTIONS:
            self._patch_function(module, attr, lambda fn, n=name: self._counted(n, fn))
        for module, cls, attr, name in TIMED_METHODS:
            self._patch_method(
                module, cls, attr, lambda fn, n=name, h=hooks.get(attr): self._timed(n, fn, h)
            )
        for module, cls, attr, name in COUNTED_METHODS:
            self._patch_method(module, cls, attr, lambda fn, n=name: self._counted(n, fn))

    def _add(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def _closure_insert(self, args, result, parent) -> None:
        """Closure candidates are the span inserts made directly by the closure."""
        if parent >= 0 and self.spans[parent][0] == "bracket.closure":
            self.counts["bracket.closure.candidates"] += 1
            self.counts["bracket.closure.accepted"] += bool(result)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch_function(self, module_name: str, attr: str, make) -> None:
        # import_module, because the package attributes `quatlie.bracket`
        # and `quatlie.quaternify` are re-exported functions, not modules
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = make(original)
        where = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "quatlie" or mod_name.startswith("quatlie.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))
                    where.append(mod_name)
        self.bindings[f"{module_name}.{attr}"] = where

    def _patch_method(self, module_name: str, cls_name: str, attr: str, make) -> None:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        setattr(cls, attr, wrapped)
        self._restore.append((cls, attr, original))
        self.bindings[f"{module_name}.{cls_name}.{attr}"] = [cls_name]

    # -- reading -----------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Inclusive seconds, self seconds and span count, by span name.

        A span nested inside a span of the same name adds no inclusive
        time of its own, so recursion is not counted twice.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        inclusive: dict = defaultdict(float)
        own: dict = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            calls[name] += 1
            own[name] += duration - covered[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += duration
        return inclusive, own, calls

    def write(self, path, pass_index: int, origin: float) -> None:
        """Append this pass's spans as tab-separated lines, times in seconds."""
        with open(path, "a", encoding="utf-8") as handle:
            if pass_index == 1:
                handle.write("pass\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                handle.write(
                    f"{pass_index}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n"
                )


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

TAGS = tuple(f"{type_label}{rank}" for type_label, rank in TYPES)
RHO_TAGS = tuple(f"{t}{rank}d{degree}" for t, rank, degree, _ in RHO_CASES)
PHASES = ("closure", "decomposition", "constants", "verification")
# check metric name -> its key in the verify manifest's timings_ms; the
# two halves of the `weights` check have no key of their own
CHECKS = {
    "relations": "relations",
    "serre": "serre",
    "additivity": None,
    "grading": "grading",
    "conjugations": "conjugations",
    "jacobi": "jacobi",
    "root_spaces": None,
    "k_structure": "k-structure",
    "structure": "structure",
}

PER_LAYER = (
    [(f"cli.build.{t}_s", "s") for t in TAGS]
    + [(f"cli.verify.{t}_s", "s") for t in TAGS]
    + [(f"cli.rho.{t}_s", "s") for t in RHO_TAGS]
    + [(f"quaternify.{p}_s", "s") for p in PHASES]
    + [(f"check.{c}_s", "s") for c in CHECKS]
    + [
        ("check.jacobi.triples", "count"),
        ("check.conjugations.pairs", "count"),
        ("bracket.calls", "count"),
        ("bracket.s", "s"),
        ("bracket.self_s", "s"),
        ("bracket.closure.s", "s"),
        ("bracket.closure.candidates", "count"),
        ("bracket.closure.accepted", "count"),
        ("bracket.closure.accept_ratio", "ratio"),
        ("matrices.matmul.calls", "count"),
        ("matrices.matmul_s", "s"),
        ("matrices.flatten.calls", "count"),
        ("matrices.unflatten.calls", "count"),
        ("scalars.quat_mul.calls", "count"),
        ("linalg.insert.calls", "count"),
        ("linalg.insert_s", "s"),
        ("linalg.express.calls", "count"),
        ("linalg.express_s", "s"),
        ("linalg.kernel_basis.calls", "count"),
        ("linalg.kernel_basis_s", "s"),
        ("linalg.solver_init_s", "s"),
        ("serialize.write_s", "s"),
        ("serialize.bytes_written", "bytes"),
        ("serialize.load_s", "s"),
        ("serialize.bytes_read", "bytes"),
        ("freerep.ideal_kernel_s", "s"),
        ("freerep.h_independence_s", "s"),
        ("freerep.rho_apply.calls", "count"),
        ("freerep.instances", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def pass_metrics(tracer: Tracer, docs: list) -> dict:
    """Per-layer values of one traced pass, from its spans, counts and the
    manifests the pass's CLI calls printed."""
    inclusive, own, calls = tracer.totals()
    counts = tracer.counts
    phase_ms: Counter = Counter()
    verify_ms: Counter = Counter()
    for doc in docs:
        if doc is None:
            continue
        timings = doc.get("timings_ms", {})
        if doc.get("command") == "build":
            phase_ms.update({p: timings.get(p, 0) for p in PHASES})
        elif doc.get("command") == "verify":
            verify_ms.update(timings)

    m = {}
    for name, unit in PER_LAYER:
        if name.startswith("cli."):
            m[name] = inclusive.get(name[: -len("_s")], 0.0)
    for phase in PHASES:
        m[f"quaternify.{phase}_s"] = phase_ms[phase] / 1000.0
    for check, key in CHECKS.items():
        if key is not None and key in verify_ms:
            m[f"check.{check}_s"] = verify_ms[key] / 1000.0
        else:
            m[f"check.{check}_s"] = inclusive.get(f"check.{check}", 0.0)
    candidates = counts["bracket.closure.candidates"]
    m.update(
        {
            "check.jacobi.triples": counts["check.jacobi.triples"],
            "check.conjugations.pairs": counts["check.conjugations.pairs"],
            "bracket.calls": calls["bracket"],
            "bracket.s": inclusive.get("bracket", 0.0),
            "bracket.self_s": own.get("bracket", 0.0),
            "bracket.closure.s": inclusive.get("bracket.closure", 0.0),
            "bracket.closure.candidates": candidates,
            "bracket.closure.accepted": counts["bracket.closure.accepted"],
            "bracket.closure.accept_ratio": (
                counts["bracket.closure.accepted"] / candidates if candidates else 0.0
            ),
            "matrices.matmul.calls": calls["matrices.matmul"],
            "matrices.matmul_s": inclusive.get("matrices.matmul", 0.0),
            "matrices.flatten.calls": counts["matrices.flatten.calls"],
            "matrices.unflatten.calls": counts["matrices.unflatten.calls"],
            "scalars.quat_mul.calls": counts["scalars.quat_mul.calls"],
            "linalg.insert.calls": calls["linalg.insert"],
            "linalg.insert_s": inclusive.get("linalg.insert", 0.0),
            "linalg.express.calls": calls["linalg.express"],
            "linalg.express_s": inclusive.get("linalg.express", 0.0),
            "linalg.kernel_basis.calls": calls["linalg.kernel_basis"],
            "linalg.kernel_basis_s": inclusive.get("linalg.kernel_basis", 0.0),
            "linalg.solver_init_s": inclusive.get("linalg.solver_init", 0.0),
            "serialize.write_s": inclusive.get("serialize.write", 0.0),
            "serialize.bytes_written": counts["serialize.bytes_written"],
            "serialize.load_s": inclusive.get("serialize.load", 0.0),
            "serialize.bytes_read": counts["serialize.bytes_read"],
            "freerep.ideal_kernel_s": inclusive.get("freerep.ideal_kernel", 0.0),
            "freerep.h_independence_s": inclusive.get("freerep.h_independence", 0.0),
            "freerep.rho_apply.calls": counts["freerep.rho_apply.calls"],
            "freerep.instances": counts["freerep.instances"],
        }
    )
    return m


def check_complete(workload: str, m: dict) -> list[str]:
    """Invariants of a traced pass that a missed binding would break.

    Every QuatMatrix product in `build` comes from `bracket`, which makes
    exactly two; `wordspace` runs no matrix code at all, and the matrix
    workloads run no word-space code.
    """
    problems = []
    if workload == "build":
        if not m["bracket.calls"] or m["matrices.matmul.calls"] != 2 * m["bracket.calls"]:
            problems.append(
                f"matrices.matmul.calls {m['matrices.matmul.calls']} != "
                f"2 * bracket.calls {m['bracket.calls']}"
            )
    matrix_counts = (
        "bracket.calls",
        "scalars.quat_mul.calls",
        "matrices.matmul.calls",
        "matrices.flatten.calls",
        "matrices.unflatten.calls",
    )
    word_counts = ("freerep.rho_apply.calls", "freerep.instances")
    must_be_zero = matrix_counts if workload == "wordspace" else word_counts
    must_be_set = word_counts if workload == "wordspace" else matrix_counts[:1]
    for name in must_be_zero:
        if m[name]:
            problems.append(f"{name} is {m[name]} on {workload}, expected 0")
    for name in must_be_set:
        if not m[name]:
            problems.append(f"{name} is 0 on {workload}: its wrapper saw no call")
    return problems
