"""Named matrix algebras and Chevalley generators for the classical types.

Named algebras and generators are born as coordinate rows (``Vec``,
the layout of ``quatlie.bracket``), each set cell by cell through
``_row``.  A named algebra comes with an explicit real basis and an
exact membership predicate, one table on coordinates (``_MEMBERSHIP``);
every builder double-checks the basis against its closed-form dimension
and the predicate.

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
type and rank alone (before any row exists, the Cartan matrix
included), then the Cartan matrix and the generators, validated before
returning: no generator row has a J coordinate, and the four plain
relation families hold exactly against the stored Cartan matrix.  Every
family of ``freerep.FAMILIES`` is evaluated by one method, ``ChevalleyGenerators.relations``, with
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
from .linalg import Vec
from .rootsystem import CartanMatrix, cartan_matrix, require_type_rank

MAX_NAMED_N = 8
MAX_AMBIENT_N = 10  # keeps every flattened span at 4*n*n <= 400 coordinates


def _row(n: int, *entries) -> Vec:
    """Coordinate row of the n x n matrix with value v at cell (p, q),
    unit offset s (1, i, j, -k), for each (p, q, s, v) of ``entries``."""
    return {4 * (p * n + q) + s: v for p, q, s, v in entries}


# ---------------------------------------------------------------------------
# Named algebras
# ---------------------------------------------------------------------------


class NamedAlgebra(NamedTuple):
    name: str
    n: int
    basis: list[Vec]
    dim: int


# the units 1, i, j and k as (offset, value): k is -1 at the -k offset
_UNITS = ((0, 1), (1, 1), (2, 1), (3, -1))


def _off_diagonal(n, units):
    return [_row(n, (p, q, s, v)) for p in range(n) for q in range(n) if p != q for s, v in units]


def _basis_gl_h(n):
    return [_row(n, (p, q, s, v)) for p in range(n) for q in range(n) for s, v in _UNITS]


def _basis_sl_h(n):
    out = _off_diagonal(n, _UNITS)
    out += [_row(n, (p, p, 0, 1), (n - 1, n - 1, 0, -1)) for p in range(n - 1)]
    out += [_row(n, (p, p, s, v)) for p in range(n) for s, v in _UNITS[1:]]
    return out


def _basis_sk_c(n):
    out = _off_diagonal(n, _UNITS[:2])
    out += [_row(n, (p, p, 0, 1), (n - 1, n - 1, 0, -1)) for p in range(n - 1)]
    out += [_row(n, (p, p, 1, 1)) for p in range(n)]
    return out


def _basis_sl_c(n):
    out = _off_diagonal(n, _UNITS[:2])
    out += [_row(n, (p, p, s, 1), (p + 1, p + 1, s, -1)) for p in range(n - 1) for s in (0, 1)]
    return out


def _pairs(n, *signed):
    """For each p < q and each (s, v, w) of ``signed``, the row with v at
    (p, q) and w at (q, p), unit offset s."""
    return [
        _row(n, (p, q, s, v), (q, p, s, w))
        for p in range(n)
        for q in range(p + 1, n)
        for s, v, w in signed
    ]


def _basis_u(n):
    return [_row(n, (p, p, 1, 1)) for p in range(n)] + _pairs(n, (0, 1, -1), (1, 1, 1))


def _basis_so_c(n):
    return _pairs(n, (0, 1, -1), (1, 1, -1))


def _basis_so_star(n):
    # A antisymmetric complex, B Hermitian
    out = _basis_so_c(n)
    out += [_row(n, (p, p, 2, 1)) for p in range(n)]
    return out + _pairs(n, (2, 1, 1), (3, -1, 1))


def _basis_sp(n):
    # A skew-Hermitian, B symmetric
    out = _basis_u(n)
    out += [_row(n, (p, p, s, v)) for p in range(n) for s, v in _UNITS[2:]]
    return out + _pairs(n, (2, 1, 1), (3, -1, -1))


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
    for row in basis:
        if not membership(name, n, row):
            raise StructuralFailureError(f"{name} basis element fails its predicate")
    return NamedAlgebra(name=name, n=n, basis=basis, dim=len(basis))


# name -> (plain: no j coordinate, the offsets whose diagonal sum must
# vanish, and the sign t_s with X_pq + t_s X_qp = 0 at each offset s, or
# None): t = (1, -1, -1, -1) is X* = -X; t = (1, 1, -1, 1) is X^t = -X for
# the transpose A + J B -> tA - J conj(tB) of the complex picture, which
# on plain matrices is the entrywise one of so_n_C
_MEMBERSHIP = {
    "gl_n_H": (False, (), None),
    "sl_n_H": (False, (0,), None),
    "sk_n_C": (True, (0,), None),
    "sl_n_C": (True, (0, 1), None),
    "u_n": (True, (), (1, -1, -1, -1)),
    "so_n_C": (True, (), (1, 1, 1, 1)),
    "so_star_2n": (False, (), (1, 1, -1, 1)),
    "sp_n": (False, (), (1, -1, -1, -1)),
}


def membership(name: str, n: int, row: Vec) -> bool:
    """Exact defining predicate of the named algebra on a flattened n x n matrix."""
    if name not in _MEMBERSHIP:
        raise ValueError(f"unknown algebra name {name!r}")
    if any(not 0 <= idx < 4 * n * n for idx in row):
        raise ValueError(f"dimension mismatch: row has a coordinate outside {n}x{n}")
    plain, traced, signs = _MEMBERSHIP[name]
    if plain and any(val for idx, val in row.items() if idx & 2):
        return False
    if any(sum(row.get(4 * p * (n + 1) + s, 0) for p in range(n)) for s in traced):
        return False
    if signs is None:
        return True
    for idx, val in row.items():
        cell, s = divmod(idx, 4)
        p, q = divmod(cell, n)
        if val + signs[s] * row.get(4 * (q * n + p) + s, 0):
            return False
    return True


# ---------------------------------------------------------------------------
# Chevalley generators
# ---------------------------------------------------------------------------


class ChevalleyGenerators:
    """Generators as coordinate rows: ``rows`` (kind -> rows of h, e, f
    and of their J images Jh, Je, Jf) and ``grouped`` (those rows grouped
    for ``bracket_grouped``), both built on construction from the h, e
    and f rows of the ``rows`` passed in; any J kinds there are rebuilt."""

    __slots__ = ("type_label", "rank", "ambient_n", "cartan", "rows", "grouped")

    def __init__(self, type_label: str, rank: int, ambient_n: int, cartan: CartanMatrix, rows):
        self.type_label, self.rank, self.ambient_n = type_label, rank, ambient_n
        self.cartan = cartan
        self.rows = {kind: list(rows[kind]) for kind in ("h", "e", "f")}
        for kind in ("h", "e", "f"):
            self.rows["J" + kind] = [left_unit_vec(2, v) for v in self.rows[kind]]
        n = ambient_n
        self.grouped = {kind: [group_rows(v, n) for v in vecs] for kind, vecs in self.rows.items()}

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
        h = _row(n, (p, p, 0, 1), (p + 1, p + 1, 0, -1), (m, m, 0, -1), (m + 1, m + 1, 0, 1))
        e = _row(n, (p, p + 1, 0, 1), (m + 1, m, 0, -1))
        f = _row(n, (p + 1, p, 0, 1), (m, m + 1, 0, -1))
        out.append((h, e, f))
    return out


def _gens_type_a(n: int, l: int) -> list:
    return [
        (
            _row(n, (i, i, 0, 1), (i + 1, i + 1, 0, -1)),
            _row(n, (i, i + 1, 0, 1)),
            _row(n, (i + 1, i, 0, 1)),
        )
        for i in range(l)
    ]


def _gens_type_b(n: int, l: int) -> list:
    # coordinates (0 | plus 1..l | minus l+1..2l); short root first, then
    # beta_k = eps_p - eps_(p+1) with p = l - k + 1 for k = 2..l
    short = (
        _row(n, (l, l, 0, 2), (2 * l, 2 * l, 0, -2)),
        _row(n, (l, 0, 0, 1), (0, 2 * l, 0, -1)),
        _row(n, (0, l, 0, 2), (2 * l, 0, 0, -2)),
    )
    return [short, *_chain(n, l, range(l - 1, 0, -1))]


def _gens_type_c(n: int, l: int) -> list:
    # long root 2 eps_l last
    long = (
        _row(n, (l - 1, l - 1, 0, 1), (2 * l - 1, 2 * l - 1, 0, -1)),
        _row(n, (l - 1, 2 * l - 1, 0, 1)),
        _row(n, (2 * l - 1, l - 1, 0, 1)),
    )
    return [*_chain(n, l, range(l - 1)), long]


def _gens_type_d(n: int, l: int) -> list:
    a, b = l - 2, l - 1  # last root eps_(l-1) + eps_l
    last = (
        _row(n, (a, a, 0, 1), (b, b, 0, 1), (l + a, l + a, 0, -1), (l + b, l + b, 0, -1)),
        _row(n, (b, l + a, 0, 1), (a, l + b, 0, -1)),
        _row(n, (l + a, b, 0, 1), (l + b, a, 0, -1)),
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
    rows = dict(zip(("h", "e", "f"), zip(*simple)))
    gens = ChevalleyGenerators(type_label=type_label, rank=rank, ambient_n=n, cartan=cm, rows=rows)
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
