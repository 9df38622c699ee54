"""Command line front end.

Subcommands: build, verify, decompose, roots, rho-check, closure.
Every command prints a JSON manifest on stdout and exits with 0 when
all checks pass, 1 on a verification failure and 2 on a usage or input
error.  Commands raise ValueError or OSError on bad input and ``main``
alone turns it into exit 2 and one ``error:`` line; any other exception
is a crash, not an input error, and propagates.  Algebra files written
by ``build`` embed a timing-free copy of the manifest so rebuilds are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import serialize
from .bracket import close_under_bracket, left_unit_vec, sigma_vec, tau_vec
from .errors import StructuralFailureError
from .linalg import independent_span, span_of
from .quaternify import CHECKS, quaternify, run_checks
from .realizations import build_named
from .rootsystem import cartan_matrix, positive_roots, require_root_count
from .freerep import require_word_space, verify_h_independence, verify_ideal_kernel

USAGE_ERROR = 2
CHECK_ERROR = 1

# report details that a `verify` manifest prints beside the verdict
MANIFEST_DETAIL = ("dim_k", "dim_hr", "dim_hr_perp")


class Manifest:
    __slots__ = ("command", "inputs", "checks", "timings_ms")

    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.checks = []
        self.timings_ms = {}

    def add(self, name: str, passed: bool, instances: int, failures=(), **extra):
        self.checks.append(
            {
                "name": name,
                "passed": bool(passed),
                "instances": int(instances),
                "failures": [str(f) for f in list(failures)[:10]],
                **extra,
            }
        )

    @property
    def ok(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self, with_timings: bool = True) -> dict:
        doc = {
            "artifact_version": serialize.ARTIFACT_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "checks": self.checks,
            "ok": self.ok,
        }
        if with_timings:
            # integer milliseconds: manifests carry no floating point
            doc["timings_ms"] = {
                k: int(round(v)) for k, v in self.timings_ms.items()
            }
        return doc


def _emit(manifest: Manifest, extra: dict | None = None) -> int:
    doc = manifest.to_json()
    if extra:
        doc.update(extra)
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0 if manifest.ok else CHECK_ERROR


def cmd_build(args) -> int:
    manifest = Manifest(
        command="build",
        inputs={"type": args.type, "rank": args.rank, "out": args.out},
    )
    t0 = time.perf_counter()
    try:
        algebra = quaternify(args.type, args.rank)
    except StructuralFailureError as exc:
        manifest.add("build", False, 1, [str(exc)])
        return _emit(manifest)
    manifest.timings_ms.update(algebra.timings_ms)
    manifest.timings_ms["total"] = (time.perf_counter() - t0) * 1000.0
    manifest.add("build", True, 1)
    manifest.add("dim", algebra.dim > 0, algebra.dim)
    spaces = algebra.reports["weights.spaces"]
    manifest.add("built.root-spaces", spaces.ok, spaces.instances_checked, spaces.failures)
    k = algebra.reports["k-structure"]
    # the artifact digests pin this instance count, not k-structure's own
    manifest.add("built.k-structure", k.ok, len(k.failures) or 1, k.failures)
    # the embedded copy omits timings and the output path so identical
    # parameters rebuild byte-identical files
    embedded = Manifest(
        command="build", inputs={"type": args.type, "rank": args.rank}
    )
    embedded.checks = manifest.checks
    serialize.write_json(
        args.out, serialize.algebra_to_json(algebra, embedded.to_json(with_timings=False))
    )
    return _emit(manifest, {"dim": algebra.dim, "dim_k": len(algebra.k_indices)})


def _load_algebra(path: str):
    """The algebra stored at ``path``; any failure to read or parse it is a
    ValueError naming the path (JSON, MalformedInputError and int-size
    errors are ValueErrors already; JSON nested too deeply raises
    RecursionError)."""
    try:
        return serialize.algebra_from_json(serialize.read_json(path))
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot load algebra from {path}: {exc}") from exc


def cmd_verify(args) -> int:
    checks = tuple(CHECKS) if args.checks is None else tuple(args.checks.split(","))
    for pos, name in enumerate(checks):
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {', '.join(CHECKS)}")
        if name in checks[:pos]:
            raise ValueError(f"check {name!r} is named more than once")
    manifest = Manifest(
        command="verify", inputs={"in": args.in_path, "checks": list(checks)}
    )
    algebra = _load_algebra(args.in_path)
    reports, manifest.timings_ms = run_checks(algebra, checks)
    for r in reports:
        detail = {key: r.detail[key] for key in MANIFEST_DETAIL if key in r.detail}
        manifest.add(r.name, r.ok, r.instances_checked, r.failures, **detail)
    return _emit(manifest)


def cmd_decompose(args) -> int:
    manifest = Manifest(command="decompose", inputs={"in": args.in_path})
    algebra = _load_algebra(args.in_path)
    table = []
    for values, indices in sorted(algebra.weight_indices.items()):
        table.append(
            {
                "weight": list(values),
                "dim": len(indices),
                "indices": list(indices),
                "zero": not any(values),
            }
        )
    covered = sum(row["dim"] for row in table)
    manifest.add("decomposition-complete", covered == algebra.dim, covered)
    return _emit(
        manifest,
        {
            "dim": algebra.dim,
            "weights": table,
            "k_indices": list(algebra.k_indices),
            "hr_indices": list(algebra.hr_indices),
            "hr_perp_indices": list(algebra.hr_perp_indices),
        },
    )


def cmd_roots(args) -> int:
    require_root_count(args.type, args.rank)  # before the Cartan matrix
    cm = cartan_matrix(args.type, args.rank)
    roots = positive_roots(cm)
    manifest = Manifest(command="roots", inputs={"type": args.type, "rank": args.rank})
    manifest.add("count", True, len(roots))
    return _emit(
        manifest,
        {
            "cartan": [list(row) for row in cm.entries],
            "positive_roots": [list(r.coeffs) for r in roots],
        },
    )


def cmd_rho_check(args) -> int:
    # verify_ideal_kernel's own refusal and the word cap, before the
    # rank x rank Cartan matrix
    if args.degree < 2:
        raise ValueError("degree must be at least 2")
    require_word_space(args.rank, args.degree)
    cm = cartan_matrix(args.type, args.rank)
    manifest = Manifest(
        command="rho-check",
        inputs={"type": args.type, "rank": args.rank, "degree": args.degree},
    )
    t0 = time.perf_counter()
    for report in verify_ideal_kernel(cm, args.degree):
        manifest.add(
            f"family.{report.name}",
            report.ok,
            report.instances_checked,
            report.failures,
        )
    indep = verify_h_independence(cm, args.degree)
    manifest.add(
        "h-independence",
        indep.ok,
        indep.words_used,
        [] if indep.ok else [f"rank_h={indep.rank_h}", f"rank_jh={indep.rank_jh}"],
    )
    manifest.timings_ms["total"] = (time.perf_counter() - t0) * 1000.0
    return _emit(manifest)


def cmd_closure(args) -> int:
    n = args.n
    ambient = 4 * n * n
    manifest = Manifest(command="closure", inputs={"preset": args.preset, "n": n})
    if args.preset == "sl":
        seed = build_named("sl_n_C", n).basis
        generators = seed + [left_unit_vec(2, v) for v in seed]  # and their J images
        result = close_under_bracket(generators, n)
        expected = 4 * n * n - 1
        manifest.add("closure-dim", result.dim == expected, result.dim)
        target = build_named("sl_n_H", n)
        same = result.span.same_span(span_of(target.basis, ambient))
        manifest.add("equals-sl-n-H", same, target.dim)
    else:  # argparse admits only "so-star" and "sp" besides "sl"
        name = "so_star_2n" if args.preset == "so-star" else "sp_n"
        algebra = build_named(name, n)
        generators = algebra.basis
        result = close_under_bracket(generators, n)
        manifest.add("bracket-closed", result.dim == algebra.dim, algebra.dim)
        span = independent_span(generators, ambient)
        stable = all(span.contains(conj(v)) for v in generators for conj in (sigma_vec, tau_vec))
        manifest.add("sigma-tau-invariant", stable, len(generators))
    extra = {"dim": result.dim}
    if args.preset == "sl":
        extra["summary"] = (
            f"closure dim {result.dim}, equals sl({n},H): {manifest.ok}"
        )
    return _emit(manifest, extra)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="quatlie",
        description="exact quaternion Lie algebra construction and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct and verify an algebra")
    p_build.add_argument("--type", required=True)
    p_build.add_argument("--rank", type=int, required=True)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="re-run checks on a built algebra file")
    p_verify.add_argument("--in", dest="in_path", required=True)
    p_verify.add_argument("--checks", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="print the weight decomposition")
    p_dec.add_argument("--in", dest="in_path", required=True)
    p_dec.set_defaults(func=cmd_decompose)

    p_roots = sub.add_parser("roots", help="print the positive root system")
    p_roots.add_argument("--type", required=True)
    p_roots.add_argument("--rank", type=int, required=True)
    p_roots.set_defaults(func=cmd_roots)

    p_rho = sub.add_parser("rho-check", help="word-space relation family checks")
    p_rho.add_argument("--type", required=True)
    p_rho.add_argument("--rank", type=int, required=True)
    p_rho.add_argument("--degree", type=int, required=True)
    p_rho.set_defaults(func=cmd_rho_check)

    p_clo = sub.add_parser("closure", help="named-algebra closure presets")
    p_clo.add_argument("--preset", required=True, choices=("sl", "so-star", "sp"))
    p_clo.add_argument("--n", type=int, required=True)
    p_clo.set_defaults(func=cmd_closure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
