"""JSON codecs for every persisted object.

All numeric payloads are rational strings of the form ``p/q`` (``/q``
dropped for integers); nothing is ever rendered through floating point.
Serialization is deterministic: dictionaries are dumped with sorted
keys and fixed separators, so rebuilding an algebra from the same
parameters reproduces the file byte for byte.
"""

from __future__ import annotations

import json

from .bracket import StructureConstants
from .errors import MalformedInputError, StructuralFailureError
from .linalg import LinearSolver, SpanBasis
from .matrices import MJMatrix, QuatMatrix, flatten
from .quaternify import QuaternionLieAlgebra, _root_vector_table
from .realizations import ChevalleyGenerators
from .rootsystem import CartanMatrix, custom_cartan, positive_roots_with_tree
from .scalars import (
    GaussianRational,
    Quaternion,
    format_rational,
    parse_rational,
)

ARTIFACT_VERSION = "1"


def quaternion_to_json(q: Quaternion) -> list:
    return [format_rational(v) for v in q.to_coords()]


def quaternion_from_json(data) -> Quaternion:
    if len(data) != 4:
        raise MalformedInputError("quaternion needs exactly 4 rational strings")
    a, b, c, d = (parse_rational(v) for v in data)
    return Quaternion.from_coords(a, b, c, d)


def gaussian_to_json(z: GaussianRational) -> list:
    return [format_rational(z.re), format_rational(z.im)]


def gaussian_from_json(data) -> GaussianRational:
    return GaussianRational(parse_rational(data[0]), parse_rational(data[1]))


def quat_matrix_to_json(m: QuatMatrix) -> dict:
    return {
        "n": m.n,
        "entries": [[quaternion_to_json(a) for a in row] for row in m.rows],
    }


def quat_matrix_from_json(data) -> QuatMatrix:
    n = data["n"]
    entries = data["entries"]
    if len(entries) != n or any(len(row) != n for row in entries):
        raise MalformedInputError("matrix entries do not match the declared size")
    return QuatMatrix(
        [[quaternion_from_json(a) for a in row] for row in entries]
    )


def mj_matrix_to_json(mj: MJMatrix) -> dict:
    return {
        "n": mj.n,
        "block_a": [[gaussian_to_json(z) for z in row] for row in mj.block_a],
        "block_b": [[gaussian_to_json(z) for z in row] for row in mj.block_b],
    }


def mj_matrix_from_json(data) -> MJMatrix:
    return MJMatrix(
        [[gaussian_from_json(z) for z in row] for row in data["block_a"]],
        [[gaussian_from_json(z) for z in row] for row in data["block_b"]],
    )


def constants_to_json(sc: StructureConstants) -> dict:
    entries = []
    for (i, j), terms in sorted(sc.table.items()):
        for k, coeff in terms:
            entries.append([i, j, k, format_rational(coeff)])
    return {"dim": sc.dim, "entries": entries}


def constants_from_json(data) -> StructureConstants:
    dim = data["dim"]
    sc = StructureConstants(dim=dim)
    grouped: dict[tuple, list] = {}
    for i, j, k, coeff in data["entries"]:
        if not i < j:
            raise MalformedInputError("structure constants must be stored with i < j")
        if not (0 <= i and j < dim and 0 <= k < dim):
            raise MalformedInputError(
                f"structure constant index out of range(dim={dim}): {[i, j, k]}"
            )
        grouped.setdefault((i, j), []).append((k, parse_rational(coeff)))
    for (i, j), terms in grouped.items():
        sc.set_entry(i, j, terms)
    return sc


def roots_to_json(roots) -> list:
    return [list(r.coeffs) for r in roots]


def algebra_to_json(g: QuaternionLieAlgebra, manifest: dict | None = None) -> dict:
    doc = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "quaternion-lie-algebra",
        "type": g.type_label,
        "rank": g.rank,
        "realization": g.realization,
        "ambient_n": g.ambient_n,
        "dim": g.dim,
        "cartan": [list(row) for row in g.cartan.entries],
        "basis": [quat_matrix_to_json(m) for m in g.basis],
        "structure_constants": constants_to_json(g.constants),
        "generators": {
            "h": [quat_matrix_to_json(m) for m in g.generators.h],
            "e": [quat_matrix_to_json(m) for m in g.generators.e],
            "f": [quat_matrix_to_json(m) for m in g.generators.f],
        },
        "positive_roots": roots_to_json(g.pos_roots),
        "weights": [
            {"weight": list(values), "indices": list(indices)}
            for values, indices in sorted(g.weight_indices.items())
        ],
        "k_indices": list(g.k_indices),
        "hr_indices": list(g.hr_indices),
        "hr_perp_indices": list(g.hr_perp_indices),
    }
    if manifest is not None:
        doc["manifest"] = manifest
    return doc


def _index_set(values, dim: int, what: str) -> tuple:
    """Distinct basis indices below ``dim``, or MalformedInputError."""
    values = tuple(values)
    if len(set(values)) != len(values) or not all(0 <= i < dim for i in values):
        raise MalformedInputError(f"{what} must be distinct indices below dim {dim}")
    return values


def _matrices_from_json(items, n: int, what: str) -> list:
    matrices = [quat_matrix_from_json(m) for m in items]
    if any(m.n != n for m in matrices):
        raise MalformedInputError(f"{what} matrices must be {n} x {n}")
    return matrices


def algebra_from_json(data) -> QuaternionLieAlgebra:
    """Rebuild a verified-shape algebra object from its self-describing dump.

    No closure or decomposition is re-derived; verification commands run
    their checks against exactly what the file declares.  The file's
    shape is checked first: the artifact version, index ranges, integer
    weights whose blocks partition the basis, k containing h_r and
    h_r-perp, and the Cartan matrix, rank, matrix sizes and generators
    agreeing (the generators must give every root a vector).  Any
    mismatch raises MalformedInputError.
    """
    if data.get("kind") != "quaternion-lie-algebra":
        raise MalformedInputError("not an algebra file")
    if data.get("artifact_version") != ARTIFACT_VERSION:
        raise MalformedInputError(f"artifact_version must be {ARTIFACT_VERSION!r}")
    rank = data["rank"]
    try:
        cartan = custom_cartan(data["cartan"])
    except ValueError as exc:
        raise MalformedInputError(f"bad Cartan matrix: {exc}") from exc
    if cartan.rank != rank:
        raise MalformedInputError(f"Cartan matrix has rank {cartan.rank}, file says {rank}")
    if data["type"] in ("A", "B", "C", "D"):
        cartan = CartanMatrix(
            type_label=data["type"], rank=cartan.rank, entries=cartan.entries
        )
    n = data["ambient_n"]
    basis = _matrices_from_json(data["basis"], n, "basis")
    dim = len(basis)
    ambient = 4 * n * n
    span = SpanBasis(ambient)
    for m in basis:
        span.insert(flatten(m))
    if span.rank != dim:
        raise MalformedInputError("declared basis is linearly dependent")
    generators = {
        kind: _matrices_from_json(data["generators"][kind], n, "generator")
        for kind in ("h", "e", "f")
    }
    if any(len(mats) != rank for mats in generators.values()):
        raise MalformedInputError(f"expected {rank} generators of each kind")
    gens = ChevalleyGenerators(
        type_label=data["type"], rank=rank, ambient_n=n, cartan=cartan, **generators
    )
    constants = constants_from_json(data["structure_constants"])
    if constants.dim != dim:
        raise MalformedInputError(f"structure constants over dim {constants.dim}, basis has {dim}")
    weight_indices = {}
    for item in data["weights"]:
        weight = tuple(item["weight"])
        if len(weight) != rank or not all(type(v) is int for v in weight):
            raise MalformedInputError(f"weight {list(weight)} is not {rank} integers")
        weight_indices[weight] = _index_set(item["indices"], dim, "weight block")
    if sorted(i for block in weight_indices.values() for i in block) != list(range(dim)):
        raise MalformedInputError("weight blocks do not partition the basis indices")
    k_indices = _index_set(data["k_indices"], dim, "k_indices")
    hr_indices = _index_set(data["hr_indices"], dim, "hr_indices")
    hr_perp_indices = _index_set(data["hr_perp_indices"], dim, "hr_perp_indices")
    if not set(hr_indices) | set(hr_perp_indices) <= set(k_indices):
        raise MalformedInputError("k_indices must contain hr_indices and hr_perp_indices")
    tree = positive_roots_with_tree(cartan)
    try:
        root_vectors = _root_vector_table(gens, tree)
    except StructuralFailureError as exc:
        raise MalformedInputError(f"generators do not fit the Cartan matrix: {exc}") from exc
    return QuaternionLieAlgebra(
        type_label=data["type"],
        rank=rank,
        realization=data["realization"],
        ambient_n=n,
        cartan=cartan,
        generators=gens,
        basis=basis,
        span=span,
        solver=LinearSolver([flatten(m) for m in basis], ambient),
        constants=constants,
        pos_roots=[node.root for node in tree],
        weight_indices=weight_indices,
        k_indices=k_indices,
        hr_indices=hr_indices,
        hr_perp_indices=hr_perp_indices,
        root_vectors=root_vectors,
    )


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(doc))


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
