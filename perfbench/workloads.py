"""The benchmark's workloads: fixed operation lists and their pinned outcomes.

Every operation is one call of the public CLI entry point
``quatlie.cli.main(argv)``; the program receives nothing but the argument
list.  Each operation carries the outcome it must produce, and any other
outcome counts as a failed operation.  Why each workload exists, and
where it predicts no change, is recorded in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# (type, rank) of every artifact, in the ROADMAP's order.
TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("D", 3))

DIMS = {"A1": 15, "A2": 35, "A3": 63, "B2": 63, "C2": 63, "D3": 63}

# SHA-256 of each algebra file as `quatlie build` writes it; rebuilds are
# byte-identical, so any other digest is a changed result.
ARTIFACT_SHA256 = {
    "A1": "b95a9f2e66b02d88a93b7fde304d5c56eb38e0e2c1607c1de4a3d94b98f4a330",
    "A2": "0ea6175c908d3032ce45c180ea2c01e920f6fd0ed07f983104cb71dab1110828",
    "A3": "40628abda9f4ce3b45be027524b78d8f12eead32c0f20ce66ddcbdd819a461d6",
    "B2": "9967822b1c3a3744b7e409c7b3ef0ae78effac4d9c09432fe920466bc6842504",
    "C2": "728b61701a2df0ae796ad87037e3212e45b7195432a6a0f2791ba8ee36a7e2bf",
    "D3": "54c35dae8784bbd4366ce699db9031f57496f71970318e61ab4b339669bbc334",
}

# B2 and C2 close to all of sl(4,H): two measured textbook claims are red
# there and stay red until the construction changes.  Exactly these
# checks fail, with exit code 1; every other type passes everything.
KNOWN_RED = {"B2", "C2"}
BUILD_RED = frozenset({"built.root-spaces", "built.k-structure"})
VERIFY_RED = frozenset({"k-structure", "weights.spaces"})

# (type, rank, degree, instances rho-check checks: the sixteen relation
# families on every word, plus the words of the h-independence check)
RHO_CASES = (("A", 3, 5, 35211), ("B", 2, 7, 16510), ("D", 4, 4, 43860))


@dataclass(frozen=True)
class Op:
    """One CLI call and the outcome it must have."""

    label: str  # per-layer name stem, e.g. "cli.build.A3"
    argv: tuple
    exit_code: int
    red: frozenset = frozenset()  # names of the checks that must fail
    dim: int | None = None
    artifact: Path | None = None  # file the call writes, with a pinned digest
    sha256: str | None = None
    instances: int | None = None  # instances over all checks (rho-check)

    def problems(self, code: int, doc: dict | None) -> list[str]:
        """Every way the observed outcome differs from the pinned one."""
        found = []
        if code != self.exit_code:
            found.append(f"exit {code}, expected {self.exit_code}")
        if doc is None:
            return found + ["no JSON manifest on stdout"]
        red = {c["name"] for c in doc.get("checks", ()) if not c["passed"]}
        if red != self.red:
            found.append(f"red checks {sorted(red)}, expected {sorted(self.red)}")
        if self.dim is not None and doc.get("dim") != self.dim:
            found.append(f"dim {doc.get('dim')}, expected {self.dim}")
        if self.sha256 is not None:
            digest = file_sha256(self.artifact)
            if digest != self.sha256:
                found.append(f"artifact sha256 {digest}, expected {self.sha256}")
        if self.instances is not None:
            total = sum(c["instances"] for c in doc.get("checks", ()))
            if total != self.instances:
                found.append(f"{total} instances, expected {self.instances}")
        return found


def file_sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def parse_manifest(stdout: str) -> dict | None:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def artifact_path(work: Path, tag: str) -> Path:
    return work / f"{tag}.json"


def build_ops(work: Path) -> list[Op]:
    ops = []
    for type_label, rank in TYPES:
        tag = f"{type_label}{rank}"
        out = artifact_path(work, tag)
        ops.append(
            Op(
                label=f"cli.build.{tag}",
                argv=("build", "--type", type_label, "--rank", str(rank), "--out", str(out)),
                exit_code=1 if tag in KNOWN_RED else 0,
                red=BUILD_RED if tag in KNOWN_RED else frozenset(),
                dim=DIMS[tag],
                artifact=out,
                sha256=ARTIFACT_SHA256[tag],
            )
        )
    return ops


def verify_ops(work: Path) -> list[Op]:
    ops = []
    for type_label, rank in TYPES:
        tag = f"{type_label}{rank}"
        ops.append(
            Op(
                label=f"cli.verify.{tag}",
                argv=("verify", "--in", str(artifact_path(work, tag))),
                exit_code=1 if tag in KNOWN_RED else 0,
                red=VERIFY_RED if tag in KNOWN_RED else frozenset(),
            )
        )
    return ops


def wordspace_ops(work: Path) -> list[Op]:
    return [
        Op(
            label=f"cli.rho.{type_label}{rank}d{degree}",
            argv=(
                "rho-check", "--type", type_label, "--rank", str(rank),
                "--degree", str(degree),
            ),
            exit_code=0,
            instances=instances,
        )
        for type_label, rank, degree, instances in RHO_CASES
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[Path], list[Op]]  # work directory -> operations
    needs_artifacts: bool  # set-up builds the six algebra files first


WORKLOADS = {
    "build": Workload("build", build_ops, needs_artifacts=False),
    "verify": Workload("verify", verify_ops, needs_artifacts=True),
    "wordspace": Workload("wordspace", wordspace_ops, needs_artifacts=False),
}
