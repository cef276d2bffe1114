"""Clifford-algebra embeddings of m-qubit states.

Density matrices are expanded over the graded basis of a hermitian Clifford
algebra representation; their spectra become closed-form functions of
rotation invariants, and admissible parameter regions become generalized
Bloch spheres.  Every closed form ships with an independent eigensolver
oracle to check it against.
"""

from .clifford import (
    CliffordBasis,
    basis_element,
    cached_basis,
    chirality,
    extended_gammas,
    full_basis,
    generate_gammas,
    verify_algebra,
)
from .coords import (
    AntisymTensor,
    StateCoords,
    antisym,
    coords_from_json,
    coords_to_json,
    decode,
    encode,
    state_coords,
    tensor_config,
    vector,
)
from .domains import (
    DomainVerdict,
    descartes_positivity,
    figure_columns,
    figure_data,
    min_eigenvalue_verdict,
    positivity,
    rT4_domain,
    sample_domain,
    tunnel_membership,
    z_from_coords,
    z_variable,
)
from .invariants import (
    InvariantSet,
    dual_tensor,
    det_identity_check,
    epsilon_D3,
    frobenius_r,
    pfaffian,
    pseudo_vector_V,
    scale_dimension,
    trace_T4,
    two_tensor_invariants,
    vector_invariants,
)
from .linalg import (
    char_poly,
    exp_i_hermitian,
    hermitian_eigenvalues,
    hermitian_eigensystem,
    matrix_from_json,
    matrix_to_json,
)
from .spectra import (
    Spectrum,
    closed_form_spectrum,
    degeneracy_pattern,
    factorized_charpoly,
    normal_form_eigenvalues,
    numeric_spectrum,
    pure_config,
    quartet_eigenvalues,
    spectrum_from_values,
    tunnel_spectrum,
    two_tensor_spectrum,
    vector_spectrum,
)
from .symmetry import (
    conjugate_state,
    orthogonal_from_generator,
    rotate_coords,
    spin_lift,
)

__version__ = "0.1.0"
