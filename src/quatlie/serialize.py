"""JSON codecs for every persisted object.

All numeric payloads are rational strings of the form ``p/q`` (``/q``
dropped for integers); nothing is ever rendered through floating point.
A matrix, a flattened coordinate row in the program, is written as
``n`` and ``entries``: n rows of n entries, each the list of its four
coordinates (re z1, im z1, re z2, im z2), zeros included.
Serialization is deterministic: the file's text is rendered directly,
each matrix from one template for its size and each structure constant
from one format string, and is byte-identical to ``json.dumps`` of the
document with sorted keys and fixed separators, so rebuilding an algebra
from the same parameters reproduces the file byte for byte.
"""

from __future__ import annotations

import functools
import json
import operator

from .bracket import StructureConstants
from .errors import DegenerateInputError, MalformedInputError, StructuralFailureError
from .linalg import Vec, independent_span
from .quaternify import QuaternionLieAlgebra
from .realizations import ChevalleyGenerators, realization_spec
from .rootsystem import CLASSICAL_TYPES, cartan_matrix, custom_cartan
from .scalars import format_rational, parse_rational

ARTIFACT_VERSION = "1"


def _matrices_text(vecs, n: int, template: str) -> str:
    """The JSON list of the flattened n x n matrices ``vecs``, each filled
    into ``template``, which has a ``%s`` per coordinate string."""
    zeros = ["0"] * (4 * n * n)
    texts = []
    for vec in vecs:
        coords = zeros.copy()
        for idx, val in vec.items():
            coords[idx] = format_rational(val)
        texts.append(template % tuple(coords))
    return "[" + ",".join(texts) + "]"


def matrix_from_json(data, n: int, what: str) -> Vec:
    """One matrix of the rendered text, read back: the inverse of the
    rendering for a matrix that must be n x n."""
    entries = data["entries"]
    size = _int(data["n"], "matrix size")
    if size != n or len(entries) != n or any(len(row) != n for row in entries):
        raise MalformedInputError(f"{what} matrices must be {n} x {n}")
    vec: Vec = {}
    for p, row in enumerate(entries):
        for q, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 4:
                raise MalformedInputError("matrix entry needs exactly 4 rational strings")
            for s, text in enumerate(entry):
                if text == "0":  # most coordinates are zero; all else is parsed
                    continue
                value = parse_rational(text)
                if value:
                    vec[4 * (p * n + q) + s] = value
    return vec


def constants_from_json(data) -> StructureConstants:
    """The table of the rendered ``structure_constants`` field, read back
    (the inverse of the rendering), checked column by column.

    The entries are checked in this order, each check over all of them
    before the next: every entry is a list of four; every index is an int
    (not a bool); i < j; all three indices lie in ``range(dim)``; every
    coefficient is a string; the distinct strings, parsed once each in
    first-occurrence order, are rationals; no (i, j, k) repeats.  The
    first check that fails raises MalformedInputError, naming the first
    entry at fault where its message names one, so a file with two faults
    reports the earlier check's, not the earlier entry's.  Zero
    coefficients are dropped; keys and terms keep the order of the file.
    """
    dim = _int(data["dim"], "structure constant dim")
    sc = StructureConstants(dim=dim)
    entries = data["entries"]
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {4}):
        raise MalformedInputError("structure constant entries must be [i, j, k, coeff]")
    if not entries:
        return sc
    I, J, K, C = zip(*entries)
    if not set(map(type, I + J + K)) <= {int}:
        _int(next(v for v in I + J + K if type(v) is not int), "structure constant index")  # raises
    if not all(map(operator.lt, I, J)):
        raise MalformedInputError("structure constants must be stored with i < j")
    if min(I) < 0 or max(J) >= dim or min(K) < 0 or max(K) >= dim:
        ijk = next(e[:3] for e in entries if not (0 <= e[0] and e[1] < dim and 0 <= e[2] < dim))
        raise MalformedInputError(f"structure constant index out of range(dim={dim}): {ijk}")
    if not set(map(type, C)) <= {str}:
        parse_rational(next(c for c in C if type(c) is not str))  # raises
    parsed = {text: parse_rational(text) for text in dict.fromkeys(C)}
    if len(set(zip(I, J, K))) != len(entries):
        seen = set()
        for key in zip(I, J, K):
            if key in seen:
                raise MalformedInputError(f"structure constant entry {list(key)} is repeated")
            seen.add(key)
    grouped: dict[tuple, list] = {}
    for i, j, k, text in entries:
        terms = grouped.setdefault((i, j), [])
        value = parsed[text]
        if value:
            terms.append((k, value))
    sc.table = {key: tuple(terms) for key, terms in grouped.items() if terms}
    return sc


def roots_to_json(roots) -> list:
    return [list(r) for r in roots]


def algebra_to_json(g: QuaternionLieAlgebra, manifest: dict | None = None) -> str:
    """The text of ``g``'s algebra file, with ``manifest`` embedded when given."""
    dump = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    n = g.ambient_n
    # one n x n matrix in the layout of the module docstring, a %s per coordinate
    row = "[" + ",".join(['["%s","%s","%s","%s"]'] * n) + "]"
    template = '{"entries":[' + ",".join([row] * n) + '],"n":' + str(n) + "}"
    text: dict = {}  # coefficient -> its text, formatted once per distinct value
    entries = ",".join(
        f'[{i},{j},{k},"{text.get(c) or text.setdefault(c, format_rational(c))}"]'
        for (i, j), terms in sorted(g.constants.table.items())
        for k, c in terms
    )
    gens = ",".join(
        f'"{kind}":{_matrices_text(g.generators.rows[kind], n, template)}'
        for kind in ("e", "f", "h")
    )
    small = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "quaternion-lie-algebra",
        "type": g.type_label,
        "rank": g.rank,
        "realization": g.realization,
        "ambient_n": n,
        "dim": g.dim,
        "cartan": g.cartan.entries,
        "positive_roots": g.pos_roots,
        "weights": [
            {"weight": values, "indices": indices}
            for values, indices in sorted(g.weight_indices.items())
        ],
        "k_indices": g.k_indices,
        "hr_indices": g.hr_indices,
        "hr_perp_indices": g.hr_perp_indices,
    }
    if manifest is not None:
        small["manifest"] = manifest
    fields = {key: dump(value) for key, value in small.items()}
    fields["basis"] = _matrices_text(g.basis, n, template)
    fields["structure_constants"] = f'{{"dim":{g.constants.dim},"entries":[{entries}]}}'
    fields["generators"] = "{" + gens + "}"
    return "{" + ",".join(f'"{key}":{fields[key]}' for key in sorted(fields)) + "}\n"


def _int(value, what: str) -> int:
    """``value`` itself when it is an int (not a bool), else MalformedInputError."""
    if type(value) is not int:
        raise MalformedInputError(f"{what} must be an integer")
    return value


def _index_set(values, dim: int, what: str) -> tuple:
    """Distinct int basis indices below ``dim``, or MalformedInputError."""
    values = tuple(values)
    if len(set(values)) != len(values) or not all(
        type(i) is int and 0 <= i < dim for i in values
    ):
        raise MalformedInputError(f"{what} must be distinct indices below dim {dim}")
    return values


def algebra_from_json(data) -> QuaternionLieAlgebra:
    """Rebuild a verified-shape algebra object from its self-describing dump.

    No closure or decomposition is re-derived; verification commands run
    their checks against exactly what the file declares.  The file's
    shape is checked first: the artifact version, int ranks, sizes and
    in-range indices, int weights whose blocks partition the basis, k
    the zero-weight block and containing h_r and h_r-perp, the basis
    rows at ``hr_indices`` the stored h generators in order, a type
    among A-D whose Cartan matrix and positive roots are the declared
    ones, the realization label and ambient n that ``quaternify`` gives
    the type and rank (none beyond the ambient cap; both are checked
    before any root is generated or matrix parsed), and the rank, matrix
    sizes and generators agreeing (the generators must give every root a
    vector).  Any mismatch raises MalformedInputError, a missing field
    or a value of the wrong JSON type included.
    """
    try:
        return _algebra_from_json(data)
    except KeyError as exc:
        raise MalformedInputError(f"missing field {exc}") from exc
    except TypeError as exc:
        raise MalformedInputError(f"a field has the wrong JSON type: {exc}") from exc


def _algebra_from_json(data) -> QuaternionLieAlgebra:
    if not isinstance(data, dict) or data.get("kind") != "quaternion-lie-algebra":
        raise MalformedInputError("not an algebra file")
    if data.get("artifact_version") != ARTIFACT_VERSION:
        raise MalformedInputError(f"artifact_version must be {ARTIFACT_VERSION!r}")
    rank = _int(data["rank"], "rank")
    type_label = data["type"]
    if type_label not in CLASSICAL_TYPES:
        raise MalformedInputError(f"type must be one of {', '.join(CLASSICAL_TYPES)}")
    try:
        declared = custom_cartan(data["cartan"])
        cartan = cartan_matrix(type_label, declared.rank)
    except ValueError as exc:
        raise MalformedInputError(f"bad Cartan matrix: {exc}") from exc
    if declared.rank != rank:
        raise MalformedInputError(f"Cartan matrix has rank {declared.rank}, file says {rank}")
    if declared.entries != cartan.entries:
        raise MalformedInputError(f"Cartan matrix is not the one of type {type_label}{rank}")
    try:
        realization, ambient_n = realization_spec(type_label, rank)
    except ValueError as exc:
        raise MalformedInputError(str(exc)) from exc
    if data["realization"] != realization:
        raise MalformedInputError(f"realization must be {realization!r} for {type_label}{rank}")
    n = _int(data["ambient_n"], "ambient_n")
    if n != ambient_n:
        raise MalformedInputError(f"ambient_n must be {ambient_n} for {type_label}{rank}")
    basis = [matrix_from_json(m, n, "basis") for m in data["basis"]]
    dim = len(basis)
    if _int(data["dim"], "dim") != dim:
        raise MalformedInputError(f"dim {data['dim']} differs from the {dim} basis matrices")
    try:
        span = independent_span(basis)
    except DegenerateInputError as exc:
        raise MalformedInputError("declared basis is linearly dependent") from exc
    generators = {
        kind: [matrix_from_json(m, n, "generator") for m in data["generators"][kind]]
        for kind in ("h", "e", "f")
    }
    if any(len(rows) != rank for rows in generators.values()):
        raise MalformedInputError(f"expected {rank} generators of each kind")
    gens = ChevalleyGenerators(
        type_label=type_label, rank=rank, ambient_n=n, cartan=cartan, rows=generators
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
    if set(k_indices) != set(weight_indices.get((0,) * rank, ())):
        raise MalformedInputError("k_indices must be the zero-weight block")
    if [basis[i] for i in hr_indices] != gens.rows["h"]:
        raise MalformedInputError("hr_indices must name the h generators' rows, in order")
    if not set(hr_indices) | set(hr_perp_indices) <= set(k_indices):
        raise MalformedInputError("k_indices must contain hr_indices and hr_perp_indices")
    try:
        algebra = QuaternionLieAlgebra(
            generators=gens,
            realization=realization,
            basis=basis,
            span=span,
            constants=constants,
            weight_indices=weight_indices,
            k_indices=k_indices,
            hr_indices=hr_indices,
            hr_perp_indices=hr_perp_indices,
        )
    except StructuralFailureError as exc:
        raise MalformedInputError(f"generators do not fit the Cartan matrix: {exc}") from exc
    roots = data["positive_roots"]
    if roots != roots_to_json(algebra.pos_roots) or not all(
        type(v) is int for root in roots for v in root
    ):
        raise MalformedInputError(f"positive_roots are not those of type {type_label}{rank}")
    return algebra


def write_json(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
