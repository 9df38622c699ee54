"""Construction and verification of quaternified classical Lie algebras.

Starting from Chevalley generators of a classical simple algebra in a
faithful matrix realization, the quaternification is built as the real
bracket closure, inside gl(n, H), of the generator set

    { x, i*x, J x, i*J x : x in {h_k, e_k, f_k} }

(the real span of all complex multiples of the generators and their J
images).  The pipeline then

  1. computes the weight decomposition with respect to {h_1..h_l},
     probing exactly the candidate weights coming from the root system
     plus zero and verifying that they exhaust the algebra,
  2. splits the zero-weight part k into the Cartan real form h_r, the
     derived part [k, k], and (when those do not span) completion rows,
  3. rebuilds the basis adapted to the decomposition (zero-weight rows,
     then one block per nonzero weight in sorted order) and extracts
     structure constants over it, and
  4. verifies the sixteen generator relation families, Serre vanishing,
     conjugation equivariance, the sigma grading, weight additivity of
     the bracket and the Jacobi identity before returning.  Failures of
     these raise StructuralFailureError.

The realization per type is chosen so that every pairwise difference of
the defining representation's weights lies in the root system or is
zero; otherwise brackets like [i*x, J*y] (whose complex part sees the
anticommutator x y + y x, not the commutator) escape the root-space sum
and the decomposition cannot close.  That forces sl(l+1, C) for type A,
sp(2l, C) for type C, the spin realization sp(4, C) for B2 and the
half-spin realization sl(4, C) for D3, and rules out higher B/D ranks.

Two textbook claims are measured rather than assumed: every nonzero
weight space is four dimensional and equals H x (root vector), and
k = h_r + [k, k].  Every supported build closes to all of sl(n, H); for
B2 and C2 that is sl(4, H), the same span as A3.  Restricted to
sp(4, C), sl(4, C) = sp(4, C) + V_5, so each short root is the weight of
two matrix positions: the short-root spaces, the short simple root
(1, 0) among them, are 8 dimensional, against the abstract's clause that
each fundamental root space is complex 2-dimensional, and the real
diagonal diag(1, -1, 1, -1) lies in k outside h_r + [k, k].  Those
checks are returned as reports; callers decide what to enforce.  A type
B/C construction meeting the abstract needs the paper's full text.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .bracket import (
    StructureConstants,
    bracket,
    bracket_vec,
    check_conjugation_equivariance,
    close_under_bracket,
    jacobi_check,
    structure_constants,
)
from .errors import NotClosedError, StructuralFailureError
from .linalg import LinearSolver, SpanBasis, Vec, kernel_basis, vec_iadd_scaled
from .matrices import QuatMatrix, apply_J, flatten, sigma_eigenvalue
from .realizations import ChevalleyGenerators, chevalley_generators
from .rootsystem import (
    CartanMatrix,
    Weight,
    cartan_matrix,
    positive_roots_with_tree,
    weight_of,
)
from .scalars import Q_I


def closure_realization(type_label: str, rank: int):
    """Generators in a realization whose weight differences stay in the roots.

    Returns the generators together with a human-readable tag.  Ranks
    with no such realization (B above 2, D other than 3) are rejected;
    their defining representations produce non-root weights like 2*eps_i
    and the closure cannot decompose over the root system.
    """
    if type_label == "A":
        gens = chevalley_generators("A", rank)
        return gens, f"sl({rank + 1},C) in gl({rank + 1},H)"
    if type_label == "C":
        gens = chevalley_generators("C", rank)
        return gens, f"sp({2 * rank},C) in gl({2 * rank},H)"
    if type_label == "B":
        if rank != 2:
            raise ValueError(
                "quaternification is supported for type B only at rank 2 "
                "(higher spin realizations have non-root weight differences)"
            )
        base = chevalley_generators("C", 2)
        gens = ChevalleyGenerators(
            type_label="B",
            rank=2,
            ambient_n=base.ambient_n,
            h=base.h,
            e=base.e,
            f=base.f,
            cartan=cartan_matrix("B", 2),
        )
        gens.validate()
        return gens, "sp(4,C) spin realization of so(5,C) in gl(4,H)"
    if type_label == "D":
        if rank != 3:
            raise ValueError(
                "quaternification is supported for type D only at rank 3 "
                "(higher half-spin realizations have non-root weight differences)"
            )
        base = chevalley_generators("A", 3)
        perm = (1, 0, 2)  # central node of A3 becomes the first D3 node
        gens = ChevalleyGenerators(
            type_label="D",
            rank=3,
            ambient_n=base.ambient_n,
            h=[base.h[p] for p in perm],
            e=[base.e[p] for p in perm],
            f=[base.f[p] for p in perm],
            cartan=cartan_matrix("D", 3),
        )
        gens.validate()
        return gens, "sl(4,C) half-spin realization of so(6,C) in gl(4,H)"
    raise ValueError(f"unknown type {type_label!r}; expected one of A, B, C, D")


@dataclass
class RelationReport:
    family: str
    instances_checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class KStructureReport:
    dim_k: int
    dim_hr: int
    dim_hr_perp: int
    checks: list  # (name, ok) pairs
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class GradingReport:
    homogeneous: bool
    eigenvalues: list
    instances_checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return self.homogeneous and not self.failures


@dataclass
class QuaternionLieAlgebra:
    type_label: str
    rank: int
    realization: str
    ambient_n: int
    cartan: CartanMatrix
    generators: ChevalleyGenerators
    basis: list  # QuatMatrix, adapted order
    span: SpanBasis
    solver: LinearSolver
    constants: StructureConstants
    pos_roots: list  # Root
    weights: list  # nonzero Weight objects in basis-block order
    weight_indices: dict  # weight values tuple -> tuple of basis indices
    k_indices: tuple
    hr_indices: tuple
    hr_perp_indices: tuple
    root_vectors: dict  # signed root coeffs -> QuatMatrix in the plain part
    timings_ms: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)  # check name -> report object

    @property
    def dim(self) -> int:
        return len(self.basis)

    def j_images(self):
        g = self.generators
        return (
            [apply_J(m) for m in g.h],
            [apply_J(m) for m in g.e],
            [apply_J(m) for m in g.f],
        )

    def weight_space(self, values) -> list:
        return [self.basis[i] for i in self.weight_indices[tuple(values)]]

    def index_weight(self, index: int):
        for values, indices in self.weight_indices.items():
            if index in indices:
                return values
        raise KeyError(index)


def generating_set(gens: ChevalleyGenerators) -> list:
    """Real generators: every Chevalley generator with its i, J and iJ images."""
    out = []
    for m in [*gens.h, *gens.e, *gens.f]:
        m_i = m.scale(Q_I)
        out.extend([m, m_i, apply_J(m), apply_J(m_i)])
    return out


def _ad_columns(h: Vec, span: SpanBasis, n: int) -> list:
    """Coordinates of [h, b_j] over the echelon rows, one column per row j."""
    cols = []
    for row in span.rows:
        coeffs = span.coords(bracket_vec(h, row, n))
        if coeffs is None:
            raise StructuralFailureError("ad(h) left the closure span")
        cols.append({k: c for k, c in enumerate(coeffs) if c})
    return cols


def _weight_kernel(ad_cols: list, weight_values, dim: int) -> list:
    """Kernel of every (ad h_i - w_i id) simultaneously, in row coordinates."""
    equations: dict[tuple, Vec] = {}
    for i, cols in enumerate(ad_cols):
        w_i = Fraction(weight_values[i])
        rows: dict[int, Vec] = {}
        for j, col in enumerate(cols):
            for r, val in col.items():
                rows.setdefault(r, {})[j] = val
        if w_i:
            for r in range(dim):
                row = rows.setdefault(r, {})
                acc = row.get(r, Fraction(0)) - w_i
                if acc:
                    row[r] = acc
                else:
                    row.pop(r, None)
        for r, row in rows.items():
            if row:
                equations[(i, r)] = row
    return kernel_basis(list(equations.values()), dim)


def _combine(rows: list, coeffs: Vec) -> Vec:
    out: Vec = {}
    for j, c in coeffs.items():
        vec_iadd_scaled(out, rows[j], c)
    return out


def _derived_span(rows: list, n: int) -> SpanBasis:
    """Echelon span of the brackets of all pairs of flattened matrices."""
    derived = SpanBasis(4 * n * n)
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            prod = bracket_vec(rows[a], rows[b], n)
            if prod:
                derived.insert(prod)
    return derived


def _root_vector_table(
    gens: ChevalleyGenerators, tree: list
) -> dict:
    """Plain root vectors for all signed roots, grown along the root tree."""
    table: dict[tuple, QuatMatrix] = {}
    for node in tree:
        coeffs = node.root.coeffs
        if node.parent is None:
            simple = coeffs.index(1)
            table[coeffs] = gens.e[simple]
            table[tuple(-c for c in coeffs)] = gens.f[simple]
            continue
        parent = tree[node.parent].root.coeffs
        pos = bracket(gens.e[node.simple], table[parent])
        neg = bracket(gens.f[node.simple], table[tuple(-c for c in parent)])
        if pos.is_zero() or neg.is_zero():
            raise StructuralFailureError(
                f"root vector for {coeffs} vanished in the realization"
            )
        table[coeffs] = pos
        table[tuple(-c for c in coeffs)] = neg
    return table


def quaternify(type_label: str, rank: int) -> QuaternionLieAlgebra:
    """Build the quaternification and verify it; see the module docstring."""
    timings: dict[str, float] = {}
    clock = time.perf_counter

    gens, realization = closure_realization(type_label, rank)
    cm = gens.cartan
    n = gens.ambient_n
    ambient = 4 * n * n

    t0 = clock()
    span = close_under_bracket(generating_set(gens)).span
    dim = span.rank
    timings["closure"] = (clock() - t0) * 1000.0

    t0 = clock()
    hr_flats = [flatten(h) for h in gens.h]
    ad_cols = [_ad_columns(h, span, n) for h in hr_flats]
    tree = positive_roots_with_tree(cm)
    pos_weights = [weight_of(node.root, cm) for node in tree]
    nonzero_weights = sorted(
        {w.values for w in pos_weights} | {(-w).values for w in pos_weights}
    )
    zero = tuple(0 for _ in range(rank))
    if zero in nonzero_weights:
        raise StructuralFailureError("zero weight appeared among the roots")

    candidates = [zero] + nonzero_weights
    spaces: dict[tuple, list] = {}  # weight -> echelon rows of its block
    total = 0
    for values in candidates:
        block = SpanBasis(ambient)
        for coeffs in _weight_kernel(ad_cols, values, dim):
            block.insert(_combine(span.rows, coeffs))
        if values == zero and block.rank == 0:
            raise StructuralFailureError("empty zero-weight space")
        if block.rank:
            spaces[values] = block.rows
            total += block.rank
    if total != dim:
        raise StructuralFailureError(
            f"weight spaces cover {total} of {dim} dimensions"
        )
    if set(spaces) - set(candidates):
        raise StructuralFailureError("unexpected weight appeared")
    missing = [w for w in nonzero_weights if w not in spaces]
    if missing:
        raise StructuralFailureError(f"weights without vectors: {missing}")
    timings["decomposition"] = (clock() - t0) * 1000.0

    t0 = clock()
    k_rows = spaces[zero]
    k_span = SpanBasis(ambient)
    for row in k_rows:
        k_span.insert(row)
    for vec in hr_flats:
        if not k_span.contains(vec):
            raise StructuralFailureError("h_r is not inside the zero-weight space")
    perp_span = _derived_span(k_rows, n)
    split = SpanBasis(ambient)
    for vec in hr_flats:
        if not split.insert(vec):
            raise StructuralFailureError("h_r vectors are dependent")
    perp_rows_kept = []
    for row in perp_span.rows:
        if not split.insert(row):
            raise StructuralFailureError("h_r meets [k, k] nontrivially")
        perp_rows_kept.append(row)
    # h_r + [k, k] spans k for type A and D3; for B2/C2 it misses real
    # diagonal directions and the zero-weight kernel completes the block
    completion_rows = []
    for row in k_span.rows:
        if split.insert(row):
            completion_rows.append(row)
    if split.rank != k_span.rank:
        raise StructuralFailureError("zero-weight block failed to assemble")

    basis_rows: list[Vec] = [*hr_flats, *perp_rows_kept, *completion_rows]
    hr_indices = tuple(range(rank))
    hr_perp_indices = tuple(range(rank, rank + len(perp_rows_kept)))
    k_indices = tuple(range(k_span.rank))
    weight_indices: dict[tuple, tuple] = {zero: k_indices}
    weights_in_order: list[Weight] = []
    for values in nonzero_weights:
        start = len(basis_rows)
        basis_rows.extend(spaces[values])
        weight_indices[values] = tuple(range(start, len(basis_rows)))
        weights_in_order.append(Weight(values))
    if len(basis_rows) != dim:
        raise StructuralFailureError("adapted basis lost dimensions")

    basis = [QuatMatrix.unflatten(n, row) for row in basis_rows]
    solver = LinearSolver(basis_rows, ambient)
    try:
        constants = structure_constants(basis, solver)
    except NotClosedError as exc:
        raise StructuralFailureError("adapted basis is not bracket-closed") from exc
    timings["constants"] = (clock() - t0) * 1000.0

    algebra = QuaternionLieAlgebra(
        type_label=type_label,
        rank=rank,
        realization=realization,
        ambient_n=n,
        cartan=cm,
        generators=gens,
        basis=basis,
        span=span,
        solver=solver,
        constants=constants,
        pos_roots=[node.root for node in tree],
        weights=weights_in_order,
        weight_indices=weight_indices,
        k_indices=k_indices,
        hr_indices=hr_indices,
        hr_perp_indices=hr_perp_indices,
        root_vectors=_root_vector_table(gens, tree),
        timings_ms=timings,
    )

    t0 = clock()
    _verify_built(algebra)
    algebra.timings_ms["verification"] = (clock() - t0) * 1000.0
    return algebra


def _verify_built(g: QuaternionLieAlgebra) -> None:
    """Exact identities that must hold in any faithful realization raise;
    the measured textbook claims (root-space dims, k split) are recorded."""
    relation_reports = verify_relations(g)
    g.reports["relations"] = relation_reports
    for report in relation_reports:
        if not report.ok:
            raise StructuralFailureError(
                f"relation family {report.family} failed: {report.failures[:3]}"
            )
    serre = verify_serre(g)
    g.reports["serre"] = serre
    if not serre.ok:
        raise StructuralFailureError(f"Serre vanishing failed: {serre.failures[:3]}")
    add = check_weight_additivity(g)
    g.reports["additivity"] = add
    if not add.ok:
        raise StructuralFailureError(f"weight additivity failed: {add.failures[:3]}")
    grading = sigma_grading_check(g)
    g.reports["grading"] = grading
    if not grading.ok:
        raise StructuralFailureError(f"sigma grading failed: {grading.failures[:3]}")
    equi = check_conjugation_equivariance(g.basis)
    g.reports["conjugations"] = equi
    if not equi.ok:
        raise StructuralFailureError(f"equivariance failed: {equi.failures[:3]}")
    jac = jacobi_check(g.constants)
    g.reports["jacobi"] = jac
    if not jac.ok:
        raise StructuralFailureError(f"Jacobi failed: {jac.failures[:3]}")
    g.reports["root-spaces"] = check_root_spaces(g)
    g.reports["k-structure"] = k_structure(g)


# ---------------------------------------------------------------------------
# Verification passes (also runnable standalone, e.g. from the CLI)
# ---------------------------------------------------------------------------


def verify_relations(g: QuaternionLieAlgebra) -> list[RelationReport]:
    """The four plain and twelve J-tagged generator relation families."""
    gens = g.generators
    jh, je, jf = g.j_images()
    c = g.cartan.entries
    l = g.rank
    zero = QuatMatrix.zeros(g.ambient_n)

    def c_scale(m, value):
        return m.scale_rational(Fraction(value))

    families = (
        ("h.h", lambda i, j: (bracket(gens.h[i], gens.h[j]), zero)),
        (
            "e.f",
            lambda i, j: (
                bracket(gens.e[i], gens.f[j]),
                gens.h[i] if i == j else zero,
            ),
        ),
        ("h.e", lambda i, j: (bracket(gens.h[i], gens.e[j]), c_scale(gens.e[j], c[j][i]))),
        ("h.f", lambda i, j: (bracket(gens.h[i], gens.f[j]), c_scale(gens.f[j], -c[j][i]))),
        ("h.Jh", lambda i, j: (bracket(gens.h[i], jh[j]), zero)),
        ("Jh.h", lambda i, j: (bracket(jh[i], gens.h[j]), zero)),
        ("Jh.Jh", lambda i, j: (bracket(jh[i], jh[j]), zero)),
        (
            "Je.f",
            lambda i, j: (bracket(je[i], gens.f[j]), jh[i] if i == j else zero),
        ),
        (
            "e.Jf",
            lambda i, j: (bracket(gens.e[i], jf[j]), jh[i] if i == j else zero),
        ),
        (
            "Je.Jf",
            lambda i, j: (bracket(je[i], jf[j]), -gens.h[i] if i == j else zero),
        ),
        ("h.Je", lambda i, j: (bracket(gens.h[i], je[j]), c_scale(je[j], c[j][i]))),
        ("Jh.e", lambda i, j: (bracket(jh[i], gens.e[j]), c_scale(je[j], c[j][i]))),
        ("Jh.Je", lambda i, j: (bracket(jh[i], je[j]), c_scale(gens.e[j], -c[j][i]))),
        ("h.Jf", lambda i, j: (bracket(gens.h[i], jf[j]), c_scale(jf[j], -c[j][i]))),
        ("Jh.f", lambda i, j: (bracket(jh[i], gens.f[j]), c_scale(jf[j], -c[j][i]))),
        ("Jh.Jf", lambda i, j: (bracket(jh[i], jf[j]), c_scale(gens.f[j], c[j][i]))),
    )
    reports = []
    for name, rule in families:
        failures = []
        for i in range(l):
            for j in range(l):
                got, expected = rule(i, j)
                if got != expected:
                    failures.append((i, j))
        reports.append(
            RelationReport(family=name, instances_checked=l * l, failures=failures)
        )
    return reports


def verify_serre(g: QuaternionLieAlgebra) -> RelationReport:
    """(ad x_i)^(1 - c_ji) applied to x_j vanishes for all J-combinations."""
    gens = g.generators
    jh, je, jf = g.j_images()
    c = g.cartan.entries
    l = g.rank
    failures = []
    checked = 0
    for i in range(l):
        for j in range(l):
            if i == j:
                continue
            power = 1 - c[j][i]
            for side, ops, targets in (
                ("e", (gens.e[i], je[i]), (gens.e[j], je[j])),
                ("f", (gens.f[i], jf[i]), (gens.f[j], jf[j])),
            ):
                for a, op in enumerate(ops):
                    for b, target in enumerate(targets):
                        checked += 1
                        acc = target
                        for _ in range(power):
                            acc = bracket(op, acc)
                        if not acc.is_zero():
                            failures.append((i, j, side, a, b))
    return RelationReport(family="serre", instances_checked=checked, failures=failures)


def weight_decomposition(g: QuaternionLieAlgebra) -> dict:
    """Weight -> list of basis matrices, zero weight included."""
    return {
        values: [g.basis[i] for i in indices]
        for values, indices in g.weight_indices.items()
    }


@dataclass
class RootSpaceReport:
    spaces_checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def check_root_spaces(g: QuaternionLieAlgebra) -> RootSpaceReport:
    """Nonzero weight spaces are four dimensional and equal H x (root vector).

    Also checks that the weight set is exactly the signed root system and
    that the whole algebra is the direct sum of the weight blocks (the
    block sizes add up to the dimension by construction of the basis).
    """
    ambient = 4 * g.ambient_n * g.ambient_n
    failures = []
    root_weights = {weight_of(r, g.cartan).values for r in g.pos_roots}
    root_weights |= {(-weight_of(r, g.cartan)).values for r in g.pos_roots}
    nonzero = {w for w in g.weight_indices if any(w)}
    if nonzero != root_weights:
        failures.append(("weight-set", sorted(nonzero ^ root_weights)))
    signed_roots = [r for r in g.pos_roots] + [-r for r in g.pos_roots]
    for root in signed_roots:
        values = weight_of(root, g.cartan).values
        indices = g.weight_indices.get(values, ())
        if len(indices) != 4:
            failures.append((root.coeffs, "dim", len(indices)))
            continue
        vector = g.root_vectors[root.coeffs]
        quarter = SpanBasis(ambient)
        for scaled in (
            vector,
            vector.scale(Q_I),
            apply_J(vector),
            apply_J(vector.scale(Q_I)),
        ):
            quarter.insert(flatten(scaled))
        block = SpanBasis(ambient)
        for i in indices:
            block.insert(flatten(g.basis[i]))
        if quarter.rank != 4 or not block.same_span(quarter):
            failures.append((root.coeffs, "span-mismatch"))
    return RootSpaceReport(spaces_checked=len(signed_roots), failures=failures)


@dataclass
class AdditivityReport:
    entries_checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def check_weight_additivity(g: QuaternionLieAlgebra) -> AdditivityReport:
    """[g_w, g_v] lands in g_{w+v}, read off the structure constants."""
    index_weight = {}
    for values, indices in g.weight_indices.items():
        for i in indices:
            index_weight[i] = values
    failures = []
    checked = 0
    for (i, j), terms in g.constants.table.items():
        wi = index_weight[i]
        wj = index_weight[j]
        target = tuple(a + b for a, b in zip(wi, wj))
        for k, _ in terms:
            checked += 1
            if index_weight[k] != target:
                failures.append((i, j, k))
    return AdditivityReport(entries_checked=checked, failures=failures)


def k_structure(g: QuaternionLieAlgebra):
    """Zero-weight structure: h_r central in k, k = h_r + [k,k] directly."""
    n = g.ambient_n
    ambient = 4 * n * n
    k_vecs = [flatten(g.basis[i]) for i in g.k_indices]
    hr_vecs = [flatten(g.basis[i]) for i in g.hr_indices]
    perp_rows = [flatten(g.basis[i]) for i in g.hr_perp_indices]
    failures = []
    checks = []

    central = not any(bracket_vec(h, m, n) for h in hr_vecs for m in k_vecs)
    checks.append(("hr-central-in-k", central))
    if not central:
        failures.append("hr-central-in-k")

    abelian = not any(bracket_vec(a, b, n) for a in hr_vecs for b in hr_vecs)
    checks.append(("hr-abelian", abelian))
    if not abelian:
        failures.append("hr-abelian")

    perp_span = SpanBasis(ambient)
    for row in perp_rows:
        perp_span.insert(row)
    derived_ok = _derived_span(k_vecs, n).same_span(perp_span)
    checks.append(("derived-k-equals-hr-perp", derived_ok))
    if not derived_ok:
        failures.append("derived-k-equals-hr-perp")

    direct = SpanBasis(ambient)
    direct_ok = True
    for row in hr_vecs + perp_rows:
        direct_ok = direct.insert(row) and direct_ok
    direct_ok = direct_ok and direct.rank == len(g.k_indices)
    checks.append(("k-direct-sum", direct_ok))
    if not direct_ok:
        failures.append("k-direct-sum")

    return KStructureReport(
        dim_k=len(g.k_indices),
        dim_hr=len(g.hr_indices),
        dim_hr_perp=len(g.hr_perp_indices),
        checks=checks,
        failures=failures,
    )


def sigma_grading_check(g: QuaternionLieAlgebra, samples: int = 200, seed: int = 7) -> GradingReport:
    """Homogeneity of the basis, graded structure constants, parity of words.

    Every adapted basis vector must be a sigma eigenvector; the bracket
    must multiply eigenvalues (so the plain part is a subalgebra); and
    nested brackets of generators must land in the component predicted
    by the parity of their J count.
    """
    eigen = [sigma_eigenvalue(m) for m in g.basis]
    homogeneous = all(s is not None for s in eigen)
    failures = []
    checked = 0
    if homogeneous:
        for (i, j), terms in g.constants.table.items():
            product = eigen[i] * eigen[j]
            for k, _ in terms:
                checked += 1
                if eigen[k] != product:
                    failures.append(("grading", i, j, k))
    tagged = []
    for m in [*g.generators.h, *g.generators.e, *g.generators.f]:
        tagged.append((m, 0))
        tagged.append((m.scale(Q_I), 0))
        tagged.append((apply_J(m), 1))
        tagged.append((apply_J(m.scale(Q_I)), 1))
    rng = random.Random(seed)
    for _ in range(samples):
        depth = rng.choice((2, 3))
        picks = [tagged[rng.randrange(len(tagged))] for _ in range(depth)]
        acc, parity = picks[0]
        for m, tag in picks[1:]:
            acc = bracket(acc, m)
            parity += tag
        if acc.is_zero():
            continue
        checked += 1
        expected = 1 if parity % 2 == 0 else -1
        if sigma_eigenvalue(acc) != expected:
            failures.append(("parity", [t for _, t in picks]))
    return GradingReport(
        homogeneous=homogeneous,
        eigenvalues=eigen,
        instances_checked=checked,
        failures=failures,
    )
