"""Exact quaternion matrix Lie algebras.

Builds quaternion Lie algebras inside gl(n, H) from Chevalley
generators of the classical complex Lie algebras and mechanically
verifies the generator relations, Serre vanishing, weight space
decomposition and zero-weight structure, all in exact rational
arithmetic.

The package holds what the ``quatlie`` commands run, the library calls
the README shows, and what the benchmark's tracer patches by name.  The
independent oracles that the tests hold it against, the 2n x 2n complex
picture among them, live beside the tests in ``tests/oracles.py``.
"""

from .bracket import (
    StructureConstants,
    bracket,
    bracket_grouped,
    check_conjugation_equivariance,
    close_under_bracket,
    group_rows,
    jacobi_check,
    left_unit_vec,
    sigma_vec,
    structure_constants,
    tau_vec,
)
from .matrices import QuatMatrix
from .quaternify import (
    QuaternionLieAlgebra,
    k_structure,
    quaternify,
    sigma_grading_check,
    verify_relations,
    verify_serre,
    weight_decomposition,
)
from .realizations import (
    ChevalleyGenerators,
    NamedAlgebra,
    build_named,
    chevalley_generators,
    membership,
)
from .rootsystem import (
    CartanMatrix,
    Root,
    Weight,
    cartan_matrix,
    custom_cartan,
    positive_roots,
    weight_of,
)
from .scalars import (
    GaussianRational,
    Quaternion,
    quat_mul,
)

__version__ = "0.1.0"
