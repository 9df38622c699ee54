"""Exact quaternion matrix Lie algebras.

Builds quaternion Lie algebras inside gl(n, H) from Chevalley
generators of the classical complex Lie algebras and mechanically
verifies the generator relations, Serre vanishing, weight space
decomposition and zero-weight structure, all in exact rational
arithmetic.
"""

from .bracket import (
    StructureConstants,
    bracket,
    check_conjugation_equivariance,
    closure,
    close_under_bracket,
    jacobi_check,
    structure_constants,
)
from .matrices import (
    MJMatrix,
    QuatMatrix,
    apply_J,
    apply_sigma,
    apply_tau,
    coordinate_change,
    is_J_submodule,
    is_sigma_submodule,
    mj_embed,
    mj_extract,
    quat_transpose_mj,
)
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
    quat_conj_sigma,
    quat_conj_tau,
    quat_mul,
)

__version__ = "0.1.0"
