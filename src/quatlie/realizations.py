"""Named matrix algebras and Chevalley generators for the classical types.

Named algebras come with an explicit real basis of rational-coordinate
matrices and an exact membership predicate; every builder double-checks
the basis against its closed-form dimension.

Chevalley generators use the defining matrix realizations:

  * type A_l in sl(l+1, C): h_i = E_ii - E_{i+1,i+1}, e_i = E_{i,i+1},
    f_i = E_{i+1,i};
  * type B_l in so(2l+1, C) for the symmetric form
    S = E_00 + sum_p (E_{p, l+p} + E_{l+p, p}) on coordinates
    (0 | 1..l | l+1..2l), with the short simple root listed first;
  * type C_l in sp(2l, C) for the form Omega = [[0, I], [-I, 0]];
  * type D_l in so(2l, C) for the form S = [[0, I], [I, 0]].

B, C and D share one chain of eps_p - eps_(p+1) generators (``_chain``);
only B's short root, C's long root and D's eps_(l-1) + eps_l are their
own.  ``chevalley_generators`` and ``closure_realization`` construct
through one function: type, rank and ``MAX_AMBIENT_N`` checked from
type and rank alone (before any matrix exists, the Cartan matrix
included), then the Cartan matrix and the generators, validated before
returning: no generator row has a J coordinate, and the four plain
relation families hold exactly against the stored Cartan matrix.  Every family of ``freerep.FAMILIES`` is
evaluated by one method, ``ChevalleyGenerators.relations``, with
``bracket_grouped`` on the generators' coordinate rows, which the object
builds once; the ``relations`` check of ``quaternify`` runs all sixteen
through it.

``closure_realization`` picks, per type, the realization that
``quaternify`` closes in (its module docstring gives the reason);
``_closure_source`` alone decides which types and ranks have one, its
label and, through the source's defining realization, its ambient n.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

from .bracket import bracket_grouped, group_rows, left_unit_vec
from .errors import CheckReport, StructuralFailureError
from .freerep import FAMILIES, family_target
from .matrices import QuatMatrix, flatten, quat_transpose_mj
from .rootsystem import CartanMatrix, cartan_matrix, require_type_rank
from .scalars import GR_ONE, Q_I, Q_J, Q_K, Q_ONE, Quaternion

MAX_NAMED_N = 8
MAX_AMBIENT_N = 10  # keeps every flattened span at 4*n*n <= 400 coordinates


def _unit(n, p, q, coeff=Q_ONE):
    return QuatMatrix.unit(n, p, q, coeff)


def _units(n, *entries):
    return QuatMatrix.unit_sum(n, [(p, q, c) for p, q, c in entries])


# ---------------------------------------------------------------------------
# Named algebras
# ---------------------------------------------------------------------------


class NamedAlgebra(NamedTuple):
    name: str
    n: int
    basis: list[QuatMatrix]
    dim: int


def _basis_gl_h(n):
    out = []
    for p in range(n):
        for q in range(n):
            for coeff in (Q_ONE, Q_I, Q_J, Q_K):
                out.append(_unit(n, p, q, coeff))
    return out


def _basis_sl_h(n):
    out = []
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            for coeff in (Q_ONE, Q_I, Q_J, Q_K):
                out.append(_unit(n, p, q, coeff))
    for p in range(n - 1):
        out.append(_units(n, (p, p, Q_ONE), (n - 1, n - 1, -Q_ONE)))
    for p in range(n):
        for coeff in (Q_I, Q_J, Q_K):
            out.append(_unit(n, p, p, coeff))
    return out


def _basis_sk_c(n):
    out = []
    for p in range(n):
        for q in range(n):
            if p != q:
                out.append(_unit(n, p, q, Q_ONE))
                out.append(_unit(n, p, q, Q_I))
    for p in range(n - 1):
        out.append(_units(n, (p, p, Q_ONE), (n - 1, n - 1, -Q_ONE)))
    for p in range(n):
        out.append(_unit(n, p, p, Q_I))
    return out


def _basis_sl_c(n):
    out = []
    for p in range(n):
        for q in range(n):
            if p != q:
                out.append(_unit(n, p, q, Q_ONE))
                out.append(_unit(n, p, q, Q_I))
    for p in range(n - 1):
        for coeff in (Q_ONE, Q_I):
            out.append(
                _units(n, (p, p, coeff), (p + 1, p + 1, -coeff))
            )
    return out


def _basis_u(n):
    out = [_unit(n, p, p, Q_I) for p in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            out.append(_units(n, (p, q, Q_ONE), (q, p, -Q_ONE)))
            out.append(_units(n, (p, q, Q_I), (q, p, Q_I)))
    return out


def _basis_so_c(n):
    out = []
    for p in range(n):
        for q in range(p + 1, n):
            out.append(_units(n, (p, q, Q_ONE), (q, p, -Q_ONE)))
            out.append(_units(n, (p, q, Q_I), (q, p, -Q_I)))
    return out


def _basis_so_star(n):
    # A antisymmetric complex, B Hermitian
    out = _basis_so_c(n)
    for p in range(n):
        out.append(_unit(n, p, p, Q_J))
    for p in range(n):
        for q in range(p + 1, n):
            out.append(_units(n, (p, q, Q_J), (q, p, Q_J)))
            out.append(_units(n, (p, q, Q_K), (q, p, -Q_K)))
    return out


def _basis_sp(n):
    # A skew-Hermitian, B symmetric
    out = _basis_u(n)
    for p in range(n):
        out.append(_unit(n, p, p, Q_J))
        out.append(_unit(n, p, p, Q_K))
    for p in range(n):
        for q in range(p + 1, n):
            out.append(_units(n, (p, q, Q_J), (q, p, Q_J)))
            out.append(_units(n, (p, q, Q_K), (q, p, Q_K)))
    return out


_BUILDERS = {
    "gl_n_H": (_basis_gl_h, lambda n: 4 * n * n),
    "sl_n_H": (_basis_sl_h, lambda n: 4 * n * n - 1),
    "sk_n_C": (_basis_sk_c, lambda n: 2 * n * n - 1),
    "sl_n_C": (_basis_sl_c, lambda n: 2 * (n * n - 1)),
    "u_n": (_basis_u, lambda n: n * n),
    "so_n_C": (_basis_so_c, lambda n: n * (n - 1)),
    "so_star_2n": (_basis_so_star, lambda n: n * (2 * n - 1)),
    "sp_n": (_basis_sp, lambda n: n * (2 * n + 1)),
}


def build_named(name: str, n: int) -> NamedAlgebra:
    if name not in _BUILDERS:
        raise ValueError(f"unknown algebra name {name!r}")
    if not 2 <= n <= MAX_NAMED_N:
        raise ValueError(f"n={n} out of range [2, {MAX_NAMED_N}]")
    if name == "so_n_C" and n == 2:
        warnings.warn("so(2, C) is abelian, not semisimple", stacklevel=2)
    builder, dim_formula = _BUILDERS[name]
    basis = builder(n)
    if len(basis) != dim_formula(n):
        raise StructuralFailureError(
            f"{name} basis has {len(basis)} elements, expected {dim_formula(n)}"
        )
    for m in basis:
        if not membership(name, n, m):
            raise StructuralFailureError(f"{name} basis element fails its predicate")
    return NamedAlgebra(name=name, n=n, basis=basis, dim=len(basis))


def membership(name: str, n: int, m: QuatMatrix) -> bool:
    """Exact defining predicate of the named algebra."""
    if m.n != n:
        raise ValueError(f"dimension mismatch: matrix is {m.n}x{m.n}, algebra has n={n}")
    if name == "gl_n_H":
        return True
    if name == "sl_n_H":
        return m.re_trace() == 0
    if name == "sk_n_C":
        return _is_plain(m) and m.trace().z1.re == 0
    if name == "sl_n_C":
        return _is_plain(m) and m.trace().is_zero()
    if name == "u_n":
        return _is_plain(m) and (m.conj_transpose() + m).is_zero()
    if name == "so_n_C":
        return _is_plain(m) and _plain_transpose_sum_zero(m)
    if name == "so_star_2n":
        return (quat_transpose_mj(m) + m).is_zero()
    if name == "sp_n":
        return (m.conj_transpose() + m).is_zero()
    raise ValueError(f"unknown algebra name {name!r}")


def _is_plain(m: QuatMatrix) -> bool:
    return all(a.z2.is_zero() for row in m.rows for a in row)


def _plain_transpose_sum_zero(m: QuatMatrix) -> bool:
    n = m.n
    return all(
        (m.rows[p][q].z1 + m.rows[q][p].z1).is_zero()
        for p in range(n)
        for q in range(n)
    )


# ---------------------------------------------------------------------------
# Chevalley generators
# ---------------------------------------------------------------------------


class ChevalleyGenerators:
    """Generator matrices, with ``rows`` (kind -> coordinate rows of h, e, f
    and their J images Jh, Je, Jf) and ``grouped`` (those rows grouped for
    ``bracket_grouped``) built once from them on construction."""

    __slots__ = ("type_label", "rank", "ambient_n", "h", "e", "f", "cartan", "rows", "grouped")

    def __init__(self, type_label: str, rank: int, ambient_n: int, h, e, f, cartan: CartanMatrix):
        self.type_label, self.rank, self.ambient_n = type_label, rank, ambient_n
        self.h, self.e, self.f, self.cartan = h, e, f, cartan
        plain = {"h": h, "e": e, "f": f}
        rows = {kind: [flatten(m) for m in mats] for kind, mats in plain.items()}
        for kind in plain:
            rows["J" + kind] = [left_unit_vec(2, v) for v in rows[kind]]
        self.rows = rows
        n = ambient_n
        self.grouped = {kind: [group_rows(v, n) for v in vecs] for kind, vecs in rows.items()}

    def relations(self, families=FAMILIES) -> list[CheckReport]:
        """One report per relation family, failures the (i, j) where it fails.

        Family (name, a, b, t) of ``freerep.FAMILIES`` states
        [a_i, b_j] = t for all i, j; both sides are coordinate rows.
        """
        rows, grouped = self.rows, self.grouped
        n = self.ambient_n
        l = self.rank
        reports = []
        for name, kind_a, kind_b, target in families:
            failures = []
            for i in range(l):
                for j in range(l):
                    kind_t, index, coeff = family_target(target, i, j, self.cartan.entries)
                    expected = {}
                    if coeff:
                        expected = {k: v * coeff for k, v in rows[kind_t][index].items()}
                    if bracket_grouped(grouped[kind_a][i], grouped[kind_b][j], n) != expected:
                        failures.append((i, j))
            reports.append(CheckReport(f"relations.{name}", l * l, failures))
        return reports

    def validate(self) -> None:
        """No J coordinate, then the four plain families, exactly.

        Raises StructuralFailureError naming the first generator with a
        J coordinate or the first family that fails and its (i, j).
        """
        for kind in ("h", "e", "f"):
            for i, row in enumerate(self.rows[kind]):
                if any(idx & 2 for idx in row):
                    raise StructuralFailureError(f"generator {kind}{i} has a J component")
        plain = [family for family in FAMILIES if "J" not in family[1] + family[2]]
        for report in self.relations(plain):
            if not report.ok:
                raise StructuralFailureError(f"{report.name} failed at {report.failures}")


def _chain(n: int, l: int, plus) -> list:
    """(h, e, f) of eps_p - eps_(p+1) for each p in ``plus``, for a form
    that pairs plus coordinate p with minus coordinate l + p (B, C, D)."""
    out = []
    for p in plus:
        m = l + p
        h = [(p, p, Q_ONE), (p + 1, p + 1, -Q_ONE), (m, m, -Q_ONE), (m + 1, m + 1, Q_ONE)]
        e = [(p, p + 1, Q_ONE), (m + 1, m, -Q_ONE)]
        f = [(p + 1, p, Q_ONE), (m, m + 1, -Q_ONE)]
        out.append(tuple(QuatMatrix.unit_sum(n, entries) for entries in (h, e, f)))
    return out


def _gens_type_a(n: int, l: int) -> list:
    return [
        (_units(n, (i, i, Q_ONE), (i + 1, i + 1, -Q_ONE)), _unit(n, i, i + 1), _unit(n, i + 1, i))
        for i in range(l)
    ]


def _gens_type_b(n: int, l: int) -> list:
    # coordinates (0 | plus 1..l | minus l+1..2l); short root first, then
    # beta_k = eps_p - eps_(p+1) with p = l - k + 1 for k = 2..l
    two = Quaternion(GR_ONE * 2)
    short = (
        _units(n, (l, l, two), (2 * l, 2 * l, -two)),
        _units(n, (l, 0, Q_ONE), (0, 2 * l, -Q_ONE)),
        _units(n, (0, l, two), (2 * l, 0, -two)),
    )
    return [short, *_chain(n, l, range(l - 1, 0, -1))]


def _gens_type_c(n: int, l: int) -> list:
    # long root 2 eps_l last
    long = (
        _units(n, (l - 1, l - 1, Q_ONE), (2 * l - 1, 2 * l - 1, -Q_ONE)),
        _unit(n, l - 1, 2 * l - 1),
        _unit(n, 2 * l - 1, l - 1),
    )
    return [*_chain(n, l, range(l - 1)), long]


def _gens_type_d(n: int, l: int) -> list:
    a, b = l - 2, l - 1  # last root eps_(l-1) + eps_l
    last = (
        _units(n, (a, a, Q_ONE), (b, b, Q_ONE), (l + a, l + a, -Q_ONE), (l + b, l + b, -Q_ONE)),
        _units(n, (b, l + a, Q_ONE), (a, l + b, -Q_ONE)),
        _units(n, (l + a, b, Q_ONE), (l + b, a, -Q_ONE)),
    )
    return [*_chain(n, l, range(l - 1)), last]


# type -> (ambient n of the defining realization at rank l, its (h, e, f)
# per simple root, in the node order of the Cartan matrix)
_DEFINING = {
    "A": (lambda l: l + 1, _gens_type_a),
    "B": (lambda l: 2 * l + 1, _gens_type_b),
    "C": (lambda l: 2 * l, _gens_type_c),
    "D": (lambda l: 2 * l, _gens_type_d),
}


def _ambient_n(type_label: str, rank: int, source: str) -> int:
    """n of ``source``'s defining realization at ``rank``, ValueError above the cap."""
    n = _DEFINING[source][0](rank)
    if n > MAX_AMBIENT_N:
        raise ValueError(f"{type_label}{rank} needs ambient n={n}, beyond the supported cap")
    return n


def _generators(type_label: str, rank: int, source: str, order=None) -> ChevalleyGenerators:
    """Validated generators of ``type_label`` from ``source``'s defining
    realization at the same rank, its simple roots taken in ``order``."""
    require_type_rank(type_label, rank)
    n = _ambient_n(type_label, rank, source)  # before the rank x rank Cartan matrix
    cm = cartan_matrix(type_label, rank)
    simple = _DEFINING[source][1](n, rank)
    if order is not None:
        simple = [simple[p] for p in order]
    h, e, f = (list(mats) for mats in zip(*simple))
    gens = ChevalleyGenerators(
        type_label=type_label, rank=rank, ambient_n=n, h=h, e=e, f=f, cartan=cm
    )
    gens.validate()
    return gens


def chevalley_generators(type_label: str, rank: int) -> ChevalleyGenerators:
    """Generators in the defining realization (module docstring)."""
    return _generators(type_label, rank, type_label)


def _closure_source(type_label: str, rank: int) -> tuple:
    """Label, source type and simple-root order of the realization
    :func:`closure_realization` uses: the source's defining realization
    at the same rank.

    Ranks with no realization whose weight differences stay in the
    roots (B above 2, D other than 3) are rejected with ValueError;
    their defining representations produce non-root weights like
    2*eps_i and the closure cannot decompose over the root system.
    """
    require_type_rank(type_label, rank)
    if type_label == "A":
        return f"sl({rank + 1},C) in gl({rank + 1},H)", "A", None
    if type_label == "C":
        return f"sp({2 * rank},C) in gl({2 * rank},H)", "C", None
    if type_label == "B":
        if rank != 2:
            raise ValueError(
                "quaternification is supported for type B only at rank 2 "
                "(higher spin realizations have non-root weight differences)"
            )
        return "sp(4,C) spin realization of so(5,C) in gl(4,H)", "C", None
    if type_label == "D":
        if rank != 3:
            raise ValueError(
                "quaternification is supported for type D only at rank 3 "
                "(higher half-spin realizations have non-root weight differences)"
            )
        # the central node of A3 becomes the first D3 node
        return "sl(4,C) half-spin realization of so(6,C) in gl(4,H)", "A", (1, 0, 2)


def realization_spec(type_label: str, rank: int) -> tuple[str, int]:
    """Tag and ambient n of the realization :func:`closure_realization`
    uses; ValueError when the type and rank have none, or none within the
    ambient cap."""
    label, source, _ = _closure_source(type_label, rank)
    return label, _ambient_n(type_label, rank, source)


def closure_realization(type_label: str, rank: int):
    """Generators in a realization whose weight differences stay in the roots.

    Returns the generators together with their :func:`realization_spec` tag.
    """
    label, source, order = _closure_source(type_label, rank)
    return _generators(type_label, rank, source, order), label
