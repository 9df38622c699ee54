"""Cartan matrices of the classical finite types, positive roots, weights.

Each type is one row of ``CLASSICAL_TYPES``: its minimum rank, and its
number of positive roots and nonzero off-diagonal Cartan entries as
functions of the rank.  The type and rank checks, the matrix and the
cross-check of a generated root list all read that row.

Index convention: the stored matrix satisfies ``[h_i, e_j] = c_ji e_j``
for the matching generator realization, i.e. ``c_ij`` is the value of
the i-th simple root on the j-th coroot.  Conventions in the literature
differ from this one by a transpose; every formula in this package
pairs a root with coroots by summing ``coeffs[k] * c[k][j]`` over k.

A root is the int tuple of its simple-root coefficients, all >= 0 or all
<= 0, and a weight (``weight_of``) the int tuple of its coroot values.

For type B the short simple root is listed first, which is what makes
the relation above produce ``[[2, -1], [-2, 2]]`` at rank 2.
"""

from __future__ import annotations

from typing import NamedTuple


def _chain(m: int) -> dict:
    """The -1 entries that join simple roots 0, 1, ..., m-1 in a path."""
    return {pair: -1 for i in range(m - 1) for pair in ((i, i + 1), (i + 1, i))}


# type -> (minimum rank, positive-root count at rank l, the nonzero
# off-diagonal entries {(i, j): c_ij} at rank l)
CLASSICAL_TYPES = {
    "A": (1, lambda l: l * (l + 1) // 2, _chain),
    # short root first: the chain pairs -1 except the short root's
    # doubled coroot, giving c[1][0] = -2
    "B": (2, lambda l: l * l, lambda l: {**_chain(l), (1, 0): -2}),
    # long root last: its coroot is halved, giving c[l-1][l-2] = -2
    "C": (2, lambda l: l * l, lambda l: {**_chain(l), (l - 1, l - 2): -2}),
    # the fork: root l-1 joins root l-3, beside the chain of roots 0..l-2
    "D": (
        3,
        lambda l: l * (l - 1),
        lambda l: {**_chain(l - 1), (l - 1, l - 3): -1, (l - 3, l - 1): -1},
    ),
}

# positive roots a root listing may generate: A44 has 990 (0.22 s with
# Python 3.11 on a 2-vCPU VM), A120 has 7,260 (10 s); E8's 120 are inside
MAX_POSITIVE_ROOTS = 1000


class CartanMatrix(NamedTuple):
    type_label: str | None
    rank: int
    entries: tuple  # tuple of tuples of int

    def pairing(self, coeffs, j: int) -> int:
        """Value of the root with the given simple-root coefficients on coroot j."""
        return sum(coeffs[k] * self.entries[k][j] for k in range(self.rank))


def _validate_gcm(entries) -> None:
    size = len(entries)
    if any(len(row) != size for row in entries):
        raise ValueError("Cartan matrix must be square")
    for i in range(size):
        if entries[i][i] != 2:
            raise ValueError("diagonal Cartan entries must equal 2")
        for j in range(size):
            if i != j:
                if entries[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (entries[i][j] == 0) != (entries[j][i] == 0):
                    raise ValueError("zero pattern must be symmetric")


def custom_cartan(entries) -> CartanMatrix:
    """Generalized Cartan matrix without a type label (used by mutation tests)."""
    entries = tuple(tuple(row) for row in entries)
    if not all(type(v) is int for row in entries for v in row):
        raise ValueError("Cartan entries must be integers")
    _validate_gcm(entries)
    return CartanMatrix(type_label=None, rank=len(entries), entries=entries)


def require_type_rank(type_label: str, rank: int) -> None:
    """ValueError for a type outside ``CLASSICAL_TYPES`` or a rank below its minimum."""
    if type_label not in CLASSICAL_TYPES:
        raise ValueError(
            f"unknown type {type_label!r}; expected one of {', '.join(CLASSICAL_TYPES)}"
        )
    min_rank = CLASSICAL_TYPES[type_label][0]
    if rank < min_rank:
        raise ValueError(f"type {type_label} needs rank >= {min_rank}")


def require_root_count(type_label: str, rank: int) -> None:
    """ValueError, before any matrix is built, when the type and rank are
    invalid or have more than ``MAX_POSITIVE_ROOTS`` positive roots."""
    require_type_rank(type_label, rank)
    count = CLASSICAL_TYPES[type_label][1](rank)
    if count > MAX_POSITIVE_ROOTS:
        raise ValueError(
            f"{type_label}{rank} has {count} positive roots, "
            f"more than {MAX_POSITIVE_ROOTS}, beyond the supported cap"
        )


def cartan_matrix(type_label: str, rank: int) -> CartanMatrix:
    require_type_rank(type_label, rank)
    off_diagonal = CLASSICAL_TYPES[type_label][2](rank)
    entries = tuple(
        tuple(2 if i == j else off_diagonal.get((i, j), 0) for j in range(rank))
        for i in range(rank)
    )
    _validate_gcm(entries)
    return CartanMatrix(type_label=type_label, rank=rank, entries=entries)


def weight_of(root: tuple, cm: CartanMatrix) -> tuple:
    """The values ``sum_k root[k] * c[k][j]`` of ``root`` on the coroots j."""
    return tuple(cm.pairing(root, j) for j in range(cm.rank))


def simple_root(cm: CartanMatrix, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(cm.rank))


class RootTreeNode(NamedTuple):
    root: tuple  # coefficients in the simple roots
    parent: int | None  # index of the root this one was grown from
    simple: int | None  # which simple root was added


def positive_roots_with_tree(cm: CartanMatrix) -> list[RootTreeNode]:
    """Positive roots by root-string closure, with the growth tree.

    A candidate ``beta + alpha_i`` is a root exactly when ``p -
    <beta, alpha_i^vee> > 0`` where p is the length of the alpha_i-string
    below beta.  ``nodes`` is read in the order it grows, which is height
    order, so the full down-string is known when it is probed.
    Non-finite-type matrices trip a divergence guard.
    """
    l = cm.rank
    cap = 10 * l * l
    nodes = [RootTreeNode(simple_root(cm, i), None, None) for i in range(l)]
    index: dict[tuple, int] = {node.root: k for k, node in enumerate(nodes)}
    for node_idx, node in enumerate(nodes):  # visits the nodes appended below too
        beta = node.root
        for i in range(l):
            probe = list(beta)
            probe[i] -= 1
            down = 0
            while tuple(probe) in index:
                down += 1
                probe[i] -= 1
            if down - cm.pairing(beta, i) <= 0:
                continue
            probe[i] = beta[i] + 1  # the probe becomes beta + alpha_i
            key = tuple(probe)
            if key in index:
                continue
            index[key] = len(nodes)
            nodes.append(RootTreeNode(key, node_idx, i))
            if len(nodes) > cap:
                raise ValueError(
                    "root generation exceeded the finite-type bound; "
                    "the matrix is not of finite type"
                )
    row = CLASSICAL_TYPES.get(cm.type_label)
    if row is not None and len(nodes) != row[1](l):
        raise ValueError(
            f"generated {len(nodes)} positive roots for {cm.type_label}{l}, "
            f"expected {row[1](l)}"
        )
    return nodes


def positive_roots(cm: CartanMatrix) -> list[tuple]:
    return [node.root for node in positive_roots_with_tree(cm)]
