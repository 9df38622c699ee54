"""Construction and verification of quaternified classical Lie algebras.

Starting from Chevalley generators of a classical simple algebra in a
faithful matrix realization, the quaternification is built as the real
bracket closure, inside gl(n, H), of the generator set

    { x, i*x, J x, J(i*x) : x in {h_k, e_k, f_k} }

(the real span of all complex multiples of the generators and their J
images).  The closure is taken by ad of the e and f lines alone
(``close_generators``): the smallest span that contains the 8*l rows
{x, i*x, J x, J(i*x) : x in {e_k, f_k}} and is stable under their ad is
the subalgebra they generate, at most dim * 8*l brackets (only pairs
whose supports meet, ``bracket.support_masks``) instead of C(dim, 2),
and fewer still: every one of those rows, and every bracket of them, is
homogeneous for the grading of the cells by ad(h) (``cell_weights``),
which lets ``bracket.close_vecs`` skip the brackets that its span would
reject.  When that subalgebra contains every h line it is the closure of
the whole generator set; when any h line is missing, the whole set is
closed pairwise instead, under the same grading, so h in <e, f> is
checked, never assumed.  The
algebra is kept as flattened coordinate rows (``Vec``, see
``quatlie.bracket``) from the generators to the stored basis; quaternion
matrices appear only for the root vectors.  The
pipeline then

  1. splits the closure into weight spaces with respect to {h_1..h_l}
     (``weight_spaces``): every h_k is real diagonal, so each flattened
     coordinate is a joint ad(h) eigenvector, and a weight space is the
     span of the closure rows cut down to that weight's coordinates; it
     checks that every closure row has one weight and that the weights
     are exactly zero and the roots,
  2. splits the zero-weight part k into the Cartan real form h_r, the
     derived part [k, k], and the rows of k that those do not span; the
     block must have exactly dim k rows,
  3. rebuilds the basis adapted to the decomposition (zero-weight rows,
     then one block per nonzero weight in sorted order) and extracts
     structure constants over it, and
  4. runs the check registry ``CHECKS``, which ``quatlie verify`` runs
     too: the sixteen generator relation families of
     ``freerep.FAMILIES``, Serre vanishing, the Jacobi identity,
     sigma and tau invariance of the span, the sigma grading, the k
     split and the weight checks (root spaces, additivity of the
     bracket).  One report is settled before the pass: ``structure``
     holds by construction, since step 3 computed every table entry as
     the exact solve of its pair's bracket.  The checks that read the
     table (Jacobi on all triples, the k split, the sigma grading and
     weight additivity) rest on it, in a build as in ``verify``.  A
     failure raises StructuralFailureError, except for the two measured
     claims in ``MEASURED``.

The realization per type (``realizations.closure_realization``) is
chosen so that every pairwise difference of the defining
representation's weights lies in the root system or is zero; otherwise
brackets like [i*x, J*y] (whose complex part sees the anticommutator
x y + y x, not the commutator) escape the root-space sum and the
decomposition cannot close.  That forces sl(l+1, C) for type A,
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
two checks are recorded in ``reports``; callers decide what to enforce.
A type B/C construction meeting the abstract needs the paper's full
text.
"""

from __future__ import annotations

import functools
import operator
import time
from itertools import combinations
from math import comb

from .bracket import (
    StructureConstants,
    bracket,
    bracket_grouped,
    close_vecs,
    group_rows,
    left_unit_vec,
    sigma_parity,
    sigma_vec,
    structure_constants,
    sweep_brackets,
    tau_vec,
)
from .errors import CheckReport, NotClosedError, StructuralFailureError
from .linalg import LinearSolver, SpanBasis, Vec, span_of, vec_iadd_scaled
from .matrices import QuatMatrix, flatten
from .realizations import ChevalleyGenerators, closure_realization
from .rootsystem import CartanMatrix, positive_roots, positive_roots_with_tree, weight_of


class QuaternionLieAlgebra:
    """A built or loaded algebra.  ``type_label``, ``rank``, ``ambient_n``
    and ``cartan`` read ``generators``; ``pos_roots`` and ``root_vectors``
    (plain, grown along the root tree) are derived by the constructor,
    which raises StructuralFailureError when a root vector vanishes in the
    realization.  ``reports`` starts empty."""

    def __init__(
        self,
        generators: ChevalleyGenerators,
        realization: str,
        basis: list,  # Vec, flattened adapted basis rows
        solver: LinearSolver,
        constants: StructureConstants,
        weight_indices: dict,  # weight values tuple -> tuple of basis indices
        k_indices: tuple,
        hr_indices: tuple,
        hr_perp_indices: tuple,
        timings_ms: dict | None = None,
    ):
        self.generators = generators
        self.realization = realization
        self.basis = basis
        self.solver = solver
        self.constants = constants
        self.weight_indices = weight_indices
        self.k_indices = k_indices
        self.hr_indices = hr_indices
        self.hr_perp_indices = hr_perp_indices
        self.timings_ms = {} if timings_ms is None else timings_ms
        self.reports = {}  # report name -> CheckReport
        tree = positive_roots_with_tree(generators.cartan)
        self.pos_roots = [node.root for node in tree]
        # signed root coeffs -> its plain root vector, a quaternion matrix
        self.root_vectors = _root_vector_table(generators, tree)

    type_label = property(lambda self: self.generators.type_label)
    rank = property(lambda self: self.generators.rank)
    ambient_n = property(lambda self: self.generators.ambient_n)
    cartan = property(lambda self: self.generators.cartan)

    @property
    def dim(self) -> int:
        return len(self.basis)


def quaternion_line(x: Vec) -> list:
    """x, i x, J x and J(i x): a real basis of the quaternion line H x.

    ``x`` is a flattened matrix, and so are the four returned rows.
    """
    x_i = left_unit_vec(1, x)
    return [x, x_i, left_unit_vec(2, x), left_unit_vec(2, x_i)]


def _lines(gens: ChevalleyGenerators, kinds) -> list:
    """The quaternion lines of the generators of ``kinds``, flattened, in order."""
    return [v for kind in kinds for x in gens.rows[kind] for v in quaternion_line(x)]


def generating_set(gens: ChevalleyGenerators) -> list:
    """Real generators: the quaternion line of every Chevalley generator, flattened."""
    return _lines(gens, ("h", "e", "f"))


def close_generators(gens: ChevalleyGenerators) -> SpanBasis:
    """The bracket closure of :func:`generating_set`, as the closure of
    the e and f lines under their own ad when it contains the h lines,
    else by bracketing the whole set pairwise (module docstring)."""
    n = gens.ambient_n
    weights = cell_weights(gens.rows["h"], n)
    ef = _lines(gens, ("e", "f"))
    span = close_vecs(ef, n, ef, weights)
    if all(span.contains(v) for v in _lines(gens, ("h",))):
        return span
    return close_vecs(generating_set(gens), n, cell_weight=weights)


def cell_weights(hs: list, n: int) -> list:
    """Cell p * n + q -> (d_p - d_q for each h in ``hs``), where d is read
    off the real diagonal of h: an additive grading of the cells for any
    ``hs``, and the weight of the cell under ad(hs) when every h is a
    real diagonal matrix diag(d)."""
    diagonals = [[h.get(4 * p * (n + 1), 0) for p in range(n)] for h in hs]
    return [tuple(d[p] - d[q] for d in diagonals) for p in range(n) for q in range(n)]


def signed_root_weights(roots: list, cm: CartanMatrix) -> dict:
    """Signed root -> its weight values, the given positive roots first."""
    return {r: weight_of(r, cm).values for r in (*roots, *(-r for r in roots))}


def weight_spaces(span: SpanBasis, hs: list, weights, n: int) -> dict:
    """Weight -> echelon rows of its block, for a span that ad(hs) preserves.

    Each h in ``hs`` must be a flattened real diagonal matrix diag(d).  Then
    [h, E_pq u] = (d_p - d_q) E_pq u, so every coordinate of cell (p, q) is a
    joint eigenvector of ad(hs), and the block of weight w is spanned by the
    rows of ``span`` cut down to the coordinates of weight w.

    Those cut rows lie in ``span`` exactly when each row has one weight.
    A graded span is the sum of its blocks, and the reduced echelon rows
    of the blocks together are reduced echelon for the sum, so they are
    the rows of ``span``; if every part of every row lay in ``span``, it
    would be spanned by one-weight parts and so graded.  A row of two
    weights therefore means that some part of some such row leaves
    ``span``, which is solved for and reported; each block is the rows of
    its weight as they are.  Each weight must be zero or in ``weights``
    (the nonzero root weights), and each of ``weights`` must occur.  The
    zero block comes first, then the others in sorted order.
    """
    if any(idx % 4 or idx // 4 % (n + 1) for h in hs for idx in h):
        raise StructuralFailureError("an h_i is not a real diagonal matrix")
    cell_weight = cell_weights(hs, n)
    parts: dict[tuple, list] = {}
    for row in span.rows:
        cut: dict[tuple, Vec] = {}
        for idx, val in row.items():
            cut.setdefault(cell_weight[idx // 4], {})[idx] = val
        if len(cut) == 1:
            (values,) = cut
            parts.setdefault(values, []).append(row)
            continue
        for values, part in cut.items():
            if not span.contains(part):
                raise StructuralFailureError(f"a row cut to weight {values} left the span")

    zero = tuple(0 for _ in hs)
    if zero in weights:
        raise StructuralFailureError("zero weight appeared among the roots")
    unexpected = sorted(set(parts) - set(weights) - {zero})
    if unexpected:
        raise StructuralFailureError(f"weights outside the roots: {unexpected}")
    if zero not in parts:
        raise StructuralFailureError("empty zero-weight space")
    missing = [w for w in weights if w not in parts]
    if missing:
        raise StructuralFailureError(f"weights without vectors: {missing}")
    spaces = {w: parts[w] for w in [zero, *sorted(set(parts) - {zero})]}
    total = sum(map(len, spaces.values()))
    if total != span.rank:
        raise StructuralFailureError(f"weight spaces cover {total} of {span.rank} dimensions")
    return spaces


def _derived_span(grouped: list, n: int) -> SpanBasis:
    """Echelon span of the brackets of all pairs of matrices given by ``group_rows``."""
    derived = SpanBasis(4 * n * n)
    for a in range(len(grouped)):
        for b in range(a + 1, len(grouped)):
            prod = bracket_grouped(grouped[a], grouped[b], n)
            if prod:
                derived.insert(prod)
    return derived


def _root_vector_table(
    gens: ChevalleyGenerators, tree: list
) -> dict:
    """Plain root vectors for all signed roots, grown along the root tree
    from the simple-root leaves, the e and f rows unflattened."""
    n = gens.ambient_n
    e, f = ([QuatMatrix.unflatten(n, v) for v in gens.rows[kind]] for kind in ("e", "f"))
    table: dict[tuple, QuatMatrix] = {}
    for node in tree:
        coeffs = node.root.coeffs
        if node.parent is None:
            simple = coeffs.index(1)
            table[coeffs] = e[simple]
            table[tuple(-c for c in coeffs)] = f[simple]
            continue
        parent = tree[node.parent].root.coeffs
        pos = bracket(e[node.simple], table[parent])
        neg = bracket(f[node.simple], table[tuple(-c for c in parent)])
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

    t0 = clock()
    gens, realization = closure_realization(type_label, rank)
    timings["realization"] = (clock() - t0) * 1000.0
    cm = gens.cartan
    n = gens.ambient_n
    ambient = 4 * n * n

    t0 = clock()
    span = close_generators(gens)
    dim = span.rank
    timings["closure"] = (clock() - t0) * 1000.0

    t0 = clock()
    hr_flats = gens.rows["h"]
    nonzero_weights = sorted(set(signed_root_weights(positive_roots(cm), cm).values()))
    spaces = weight_spaces(span, hr_flats, nonzero_weights, n)
    timings["decomposition"] = (clock() - t0) * 1000.0

    t0 = clock()
    zero = tuple(0 for _ in range(rank))
    k_rows = spaces[zero]
    derived = _derived_span([group_rows(row, n) for row in k_rows], n)
    # h_r + [k, k] spans k for type A and D3; for B2/C2 it misses real
    # diagonal directions and rows of k complete the block
    split = span_of([*hr_flats, *derived.rows], ambient)
    completion_rows = [row for row in k_rows if split.insert(row)]
    basis: list[Vec] = [*hr_flats, *derived.rows, *completion_rows]
    # more rows than dim k exactly when h_r leaves k or meets [k, k]
    if len(basis) != len(k_rows):
        raise StructuralFailureError(
            f"zero-weight block has {len(basis)} rows, k has dimension {len(k_rows)}"
        )
    k_indices = tuple(range(len(k_rows)))
    weight_indices: dict[tuple, tuple] = {zero: k_indices}
    for values in nonzero_weights:
        start = len(basis)
        basis.extend(spaces[values])
        weight_indices[values] = tuple(range(start, len(basis)))

    solver = LinearSolver(basis, ambient)
    try:
        constants = structure_constants(basis, n, solver)
    except NotClosedError as exc:
        raise StructuralFailureError("adapted basis is not bracket-closed") from exc
    timings["constants"] = (clock() - t0) * 1000.0

    algebra = QuaternionLieAlgebra(
        generators=gens,
        realization=realization,
        basis=basis,
        solver=solver,
        constants=constants,
        weight_indices=weight_indices,
        k_indices=k_indices,
        hr_indices=tuple(range(rank)),
        hr_perp_indices=tuple(range(rank, rank + derived.rank)),
        timings_ms=timings,
    )

    t0 = clock()
    # every table entry above is the exact solve of its basis pair's
    # bracket over an independent basis, which is what `structure` checks
    built = CheckReport("structure", comb(dim, 2), [])
    names = [c for c in CHECKS if c != "structure"]
    reports, check_ms = run_checks(algebra, names, [built])
    for report in reports:
        if not report.ok and report.name not in MEASURED:
            raise StructuralFailureError(
                f"{report.name} failed: {report.failures[:3]}"
            )
    algebra.timings_ms.update(check_ms)
    algebra.timings_ms["verification"] = (clock() - t0) * 1000.0
    return algebra


# ---------------------------------------------------------------------------
# Verification passes and the registry that runs them
# ---------------------------------------------------------------------------


def verify_relations(g: QuaternionLieAlgebra) -> list[CheckReport]:
    """The four plain and twelve J-tagged generator relation families.

    ``ChevalleyGenerators.relations`` evaluates the table
    ``freerep.FAMILIES``, which the word-space check reads too.
    """
    return g.generators.relations()


def verify_serre(g: QuaternionLieAlgebra) -> CheckReport:
    """(ad x_i)^(1 - c_ji) applied to x_j vanishes for all J-combinations."""
    ops = g.generators.grouped
    n = g.ambient_n
    c = g.cartan.entries
    l = g.rank
    failures = []
    checked = 0
    for i in range(l):
        for j in range(l):
            if i == j:
                continue
            power = 1 - c[j][i]
            for side in ("e", "f"):
                pair = (side, "J" + side)
                for a, op in enumerate(ops[kind][i] for kind in pair):
                    for b, target in enumerate(ops[kind][j] for kind in pair):
                        checked += 1
                        acc = target
                        for _ in range(power):
                            acc = group_rows(bracket_grouped(op, acc, n), n)
                        if acc:
                            failures.append((i, j, side, a, b))
    return CheckReport("serre", checked, failures)


def check_structure(g: QuaternionLieAlgebra) -> CheckReport:
    """The stored structure constants against brackets recomputed on the basis.

    Each pair's bracket [x_i, x_j] is compared with the table's
    combination sum_k c_k x_k of basis rows.  The basis is independent
    (``LinearSolver`` refuses a dependent one, the loader's included), so
    the two are equal exactly when the bracket's coefficients are the
    stored ones, and no solve is needed to confirm a pair: the table's
    combination is subtracted in place from the pair's fresh bracket
    dict, and the pair fails when any value is left nonzero.
    ``sweep_brackets`` yields only the pairs with a term, the others'
    brackets being zero, so row i walks those and the table's pairs
    (i, j).  A solve runs only on a mismatch, to name it: the residual
    lies in the span exactly when the bracket does (the combination is
    in it), so ``outside-span`` when the residual leaves the span, else
    ``table-mismatch``.
    """
    basis = g.basis
    entries: dict = {}  # i -> [(j, terms)] of the table
    for (i, j), terms in g.constants.table.items():
        entries.setdefault(i, []).append((j, terms))
    failures = []
    for i, brackets in sweep_brackets(basis, g.ambient_n):
        for j, terms in entries.get(i, ()):
            residual = brackets.setdefault(j, {})
            for k, c in terms:
                vec_iadd_scaled(residual, basis[k], -c)
        for j, residual in brackets.items():
            if any(residual.values()):
                kind = "outside-span" if g.solver.express(residual) is None else "table-mismatch"
                failures.append((i, j, kind))
    failures.sort()
    return CheckReport("structure", comb(g.dim, 2), failures)


def weight_decomposition(g: QuaternionLieAlgebra) -> dict:
    """Weight -> list of basis matrices, zero weight included."""
    return {
        values: [QuatMatrix.unflatten(g.ambient_n, g.basis[i]) for i in indices]
        for values, indices in g.weight_indices.items()
    }


def check_root_spaces(g: QuaternionLieAlgebra) -> CheckReport:
    """Nonzero weight spaces are four dimensional and equal H x (root vector).

    Also checks that the weight set is exactly the signed root system and
    that the whole algebra is the direct sum of the weight blocks (the
    block sizes add up to the dimension by construction of the basis).
    """
    ambient = 4 * g.ambient_n * g.ambient_n
    failures = []
    weights = signed_root_weights(g.pos_roots, g.cartan)
    root_weights = set(weights.values())
    nonzero = {w for w in g.weight_indices if any(w)}
    if nonzero != root_weights:
        failures.append(("weight-set", sorted(nonzero ^ root_weights)))
    for root, values in weights.items():
        indices = g.weight_indices.get(values, ())
        if len(indices) != 4:
            failures.append((root.coeffs, "dim", len(indices)))
            continue
        quarter = span_of(quaternion_line(flatten(g.root_vectors[root.coeffs])), ambient)
        block = span_of([g.basis[i] for i in indices], ambient)
        if quarter.rank != 4 or not block.same_span(quarter):
            failures.append((root.coeffs, "span-mismatch"))
    return CheckReport("weights.spaces", len(weights), failures)


def _graded_triples(constants: StructureConstants, grade, combine) -> tuple[int, list]:
    """Entries checked, and the (i, j, k) of the table with a nonzero
    [x_i, x_j] -> x_k term where ``grade[k] != combine(grade[i], grade[j])``."""
    checked = 0
    failures = []
    for (i, j), terms in constants.table.items():
        target = combine(grade[i], grade[j])
        for k, _ in terms:
            checked += 1
            if grade[k] != target:
                failures.append((i, j, k))
    return checked, failures


def check_weight_additivity(g: QuaternionLieAlgebra) -> CheckReport:
    """[g_w, g_v] lands in g_{w+v}, read off the table (``_unverified_table``)."""
    index_weight = {
        i: values for values, indices in g.weight_indices.items() for i in indices
    }
    # one sum per pair of weight blocks, not per table key
    weight_sum = functools.cache(lambda a, b: tuple(map(operator.add, a, b)))
    checked, failures = _graded_triples(g.constants, index_weight, weight_sum)
    return CheckReport("weights.additivity", checked, _unverified_table(g) or failures)


def k_structure(g: QuaternionLieAlgebra) -> CheckReport:
    """Zero-weight structure: h_r central in k, k = h_r + [k,k] directly,
    read off the stored table, which ``structure`` must have verified.

    The basis is independent, so basis row p is the unit coefficient
    vector {p: 1} and a pair's table entry is its bracket's coefficient
    vector: h_r is central in k (and abelian) when no (h_r, k) pair has
    an entry, [k, k] is the span of the entries on pairs of k, and the
    split is direct and fills k when ``hr_indices`` and
    ``hr_perp_indices`` are disjoint and their sizes add up to dim k.
    ``detail`` holds the dimensions of k, h_r and h_r-perp and the
    verdict of each of the four sub-checks, as (name, ok) pairs; a red
    ``structure`` alone makes the report red, with the dimensions only.
    """
    sc = g.constants
    k, hr, perp = g.k_indices, g.hr_indices, g.hr_perp_indices
    detail = {"dim_k": len(k), "dim_hr": len(hr), "dim_hr_perp": len(perp)}
    unverified = _unverified_table(g)
    if unverified:
        return CheckReport("k-structure", 4, unverified, detail)

    derived = span_of((dict(sc.get(a, b)) for a, b in combinations(k, 2)), g.dim)
    checks = [
        ("hr-central-in-k", not any(sc.get(h, m) for h in hr for m in k)),
        ("hr-abelian", not any(sc.get(a, b) for a in hr for b in hr)),
        ("derived-k-equals-hr-perp", derived.same_span(span_of([{p: 1} for p in perp], g.dim))),
        ("k-direct-sum", len({*hr, *perp}) == len(hr) + len(perp) == len(k)),
    ]
    return CheckReport(
        "k-structure",
        len(checks),
        [name for name, ok in checks if not ok],
        {**detail, "checks": checks},
    )


def sigma_grading_check(g: QuaternionLieAlgebra) -> CheckReport:
    """Homogeneity of the basis, graded structure constants, generator parity.

    Every adapted basis vector must be a sigma eigenvector, and the
    bracket must multiply eigenvalues (so the plain part is a
    subalgebra).  Each real generator from ``generating_set`` must be a
    sigma eigenvector too, +1 for x and i x and -1 for J x and J(i x).
    sigma = Ad(i 1) is an automorphism of gl(n, H), so every nested
    bracket of generators then lands in the component given by the
    parity of its J count.  The table is read through ``_unverified_table``.
    """
    eigen = [sigma_parity(v) for v in g.basis]
    failures = [("inhomogeneous", i) for i, s in enumerate(eigen) if s is None]
    homogeneous = not failures
    checked = 0
    if homogeneous:
        checked, graded = _graded_triples(g.constants, eigen, operator.mul)
        failures += _unverified_table(g) or [("grading", *triple) for triple in graded]
    # generating_set yields x, i x, J x, J(i x) for each Chevalley generator
    for index, v in enumerate(generating_set(g.generators)):
        checked += 1
        if sigma_parity(v) != (1 if index % 4 < 2 else -1):
            failures.append(("parity", index))
    return CheckReport("grading", checked, failures, {"homogeneous": homogeneous})


def check_conjugations(g: QuaternionLieAlgebra) -> CheckReport:
    """The span is sigma- and tau-stable: sigma(b) and tau(b) lie in it
    for every basis row b, 2 * dim solves.

    sigma = Ad(i 1) and tau = Ad(j 1) are automorphisms of gl(n, H), so
    they commute with the bracket on any matrices; what a closure can
    miss is their preserving its span.  Failures name the row and the map.
    """
    failures = [
        (i, name)
        for i, row in enumerate(g.basis)
        for name, conj in (("sigma", sigma_vec), ("tau", tau_vec))
        if g.solver.express(conj(row)) is None
    ]
    return CheckReport("conjugations", 2 * g.dim, failures)


def _structure(g: QuaternionLieAlgebra) -> CheckReport:
    """The ``structure`` report of the current pass, checked on first use."""
    report = g.reports.get("structure")
    if report is None:
        report = g.reports["structure"] = check_structure(g)
    return report


def _unverified_table(g: QuaternionLieAlgebra) -> list:
    """``[("structure", failure count)]`` when ``structure`` is red, else
    ``[]``.  A check that reads the table reports this, when red, in place
    of the failures it reads off the table (see ``check_jacobi``)."""
    structure = _structure(g)
    return [] if structure.ok else [("structure", len(structure.failures))]


def check_jacobi(g: QuaternionLieAlgebra) -> CheckReport:
    """The Jacobi identity on all C(dim, 3) triples, through ``structure``.

    A table that matches the commutator of an independent basis on every
    pair is the commutator bracket of a subalgebra of gl(n, H), which
    satisfies Jacobi (de Graaf, *Lie Algebras: Theory and Algorithms*,
    2000).  Every check that reads the table rests on ``structure`` the
    same way (``_unverified_table``): a red ``structure`` leaves Jacobi
    unestablished, and the report is red with ``("structure", failure
    count)``.
    """
    return CheckReport("jacobi", comb(g.dim, 3), _unverified_table(g))


# Check name -> fn(g) -> list[CheckReport], in the order `verify` runs
# them.  Every check function is called through its module-global name,
# never captured, so a rebinding of that name (a tracer's wrapper) is
# what runs.  `structure` is one bracket sweep per pass, and every check
# that reads the table rests on it (`_unverified_table`); a build settles
# `structure` itself (`quaternify`).
CHECKS = {
    "relations": lambda g: verify_relations(g),
    "serre": lambda g: [verify_serre(g)],
    "jacobi": lambda g: [check_jacobi(g)],
    "structure": lambda g: [_structure(g)],
    "conjugations": lambda g: [check_conjugations(g)],
    "grading": lambda g: [sigma_grading_check(g)],
    "k-structure": lambda g: [k_structure(g)],
    "weights": lambda g: [check_root_spaces(g), check_weight_additivity(g)],
}

# Reports of measured textbook claims: a build records them red instead
# of raising (see the module docstring for why B2 and C2 fail them).
MEASURED = ("weights.spaces", "k-structure")


def run_checks(
    g: QuaternionLieAlgebra, names, settled=()
) -> tuple[list[CheckReport], dict]:
    """Run the named ``CHECKS`` in order: their reports and each one's time in ms.

    The run is one pass: ``g.reports`` starts afresh from ``settled``
    (reports that hold by construction), a check may reuse what an
    earlier one of the pass put there, and it ends holding every report.
    """
    g.reports = {report.name: report for report in settled}
    reports: list[CheckReport] = []
    timings: dict[str, float] = {}
    for name in names:
        t0 = time.perf_counter()
        reports.extend(CHECKS[name](g))
        timings[name] = (time.perf_counter() - t0) * 1000.0
    g.reports.update((report.name, report) for report in reports)
    return reports, timings
